"""The SWITCH estimator: cap IPS variance with a model fallback.

SWITCH (Wang, Agarwal, Dudík 2017) interpolates between IPS and the
Direct Method *per datapoint*: where the importance weight is small
(≤ τ) it trusts the unbiased IPS term; where the weight explodes it
falls back to the reward model::

    switch(π) = (1/N) Σ_t [ w_t r_t · 1{w_t ≤ τ}
                            + r̂(x_t, π) · 1{w_t > τ} ]

with ``w_t = π(a_t|x_t)/p_t``.  τ → ∞ recovers IPS.

Two notes on this implementation, which thresholds the *realized*
weight of the logged action (the only weight a scavenged log exposes —
Wang et al.'s original form thresholds every action's weight, which
requires the full logging distribution):

- it trades bias for variance only where the log actually produces
  extreme weights; on logs with a *single* propensity level (e.g.
  uniform-random logging) it degenerates to exactly IPS (τ above the
  level) or a heavily biased DM hybrid (τ below), so it earns its keep
  on skewed logging policies, not uniform ones;
- the residual bias is bounded by the candidate's probability mass on
  actions whose weights exceed τ at points where the logged action's
  weight did not.

It rounds out the §5 toolbox next to Doubly Robust for scavenged logs
whose propensities span orders of magnitude.
"""

from __future__ import annotations

from typing import Optional

from repro.core.estimators.base import OffPolicyEstimator
from repro.core.estimators.direct import RewardModel, fit_default_model
from repro.core.policies import Policy
from repro.core.types import Dataset


class SwitchEstimator(OffPolicyEstimator):
    """SWITCH: IPS below the weight threshold τ, Direct Method above."""

    needs_model = True

    def __init__(
        self,
        tau: float = 10.0,
        model: Optional[RewardModel] = None,
    ) -> None:
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self.model = model
        self.name = f"switch[tau={tau:g}]"

    def reduction(self, policy: Policy, context, model=None):
        from repro.core.estimators.reductions import SwitchReduction

        model = self.model or model
        if model is None:
            raise ValueError(
                f"{self.name}: reduction requires a fitted reward model"
            )
        return SwitchReduction(
            policy, context, name=self.name, model=model, tau=self.tau
        )

    def _reduction(self, policy: Policy, dataset: Dataset, context):
        return self.reduction(
            policy, context, model=self.model or fit_default_model(dataset)
        )
