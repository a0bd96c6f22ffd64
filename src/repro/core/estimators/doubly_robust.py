"""Doubly Robust (DR) off-policy evaluation.

The hybrid §5 proposes (Dudík, Langford, Li 2011): use a reward model
as a baseline and correct its residual with importance weighting::

    dr(π) = (1/N) Σ_t [ r̂(x_t, π) + (π(a_t|x_t)/p_t) · (r_t − r̂(x_t, a_t)) ]

Unbiased whenever *either* the propensities or the reward model are
correct, and lower-variance than IPS whenever the model explains a
useful fraction of the reward.  The ablation bench
``benchmarks/test_ablation_doubly_robust.py`` measures that variance
reduction on the machine-health data.
"""

from __future__ import annotations

from typing import Optional

from repro.core.estimators.base import OffPolicyEstimator
from repro.core.estimators.direct import RewardModel, fit_default_model
from repro.core.policies import Policy
from repro.core.types import Dataset


class DoublyRobustEstimator(OffPolicyEstimator):
    """Doubly robust estimator combining a reward model with IPS.

    ``model`` may be fitted beforehand (ideally on held-out data to
    avoid reusing the evaluation set); if omitted, it is fitted on the
    evaluation dataset, which preserves unbiasedness only approximately
    but matches the single-log setting of the paper.
    """

    name = "doubly-robust"
    # The model term softens — but does not remove — sensitivity to bad
    # weights, so DR keeps the full IPS check battery.
    diagnostics_profile = "ips"
    needs_model = True

    def __init__(self, model: Optional[RewardModel] = None) -> None:
        self.model = model

    def reduction(self, policy: Policy, context, model=None):
        from repro.core.estimators.reductions import DoublyRobustReduction

        model = self.model or model
        if model is None:
            raise ValueError(
                f"{self.name}: reduction requires a fitted reward model"
            )
        return DoublyRobustReduction(
            policy, context, name=self.name, model=model
        )

    def _reduction(self, policy: Policy, dataset: Dataset, context):
        return self.reduction(
            policy, context, model=self.model or fit_default_model(dataset)
        )
