"""Shared estimator interfaces.

:class:`OffPolicyEstimator` estimates by one whole-log fold of the
dataset's columns through the estimator's reduction
(:mod:`repro.core.estimators.reductions`); :class:`EstimatorResult` is
what every estimate returns.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.diagnostics import ReliabilityDiagnostics
from repro.core.policies import Policy
from repro.core.types import Dataset, Interaction
from repro.obs.tracing import get_tracer


@dataclass
class EstimatorResult:
    """The outcome of one off-policy evaluation.

    ``value`` is the estimated average reward of the candidate policy;
    ``std_error`` the standard error of that estimate; ``n`` the number
    of exploration datapoints used; ``effective_n`` the number whose
    logged action matched the candidate policy (the "match rate"
    governs the variance of IPS-style estimators).  ``diagnostics``
    carries the reliability verdict (see :mod:`repro.core.diagnostics`)
    when the estimator computes one.
    """

    value: float
    std_error: float
    n: int
    effective_n: int
    estimator: str
    details: dict = field(default_factory=dict)
    diagnostics: Optional[ReliabilityDiagnostics] = None

    @property
    def reliable(self) -> bool:
        """Whether diagnostics (if computed) clear the UNRELIABLE bar."""
        return self.diagnostics is None or self.diagnostics.reliable

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI at ``z`` standard errors."""
        return (self.value - z * self.std_error, self.value + z * self.std_error)

    def __repr__(self) -> str:
        lo, hi = self.confidence_interval()
        flag = "" if self.reliable else " UNRELIABLE"
        return (
            f"EstimatorResult({self.estimator}: {self.value:.4f} "
            f"[{lo:.4f}, {hi:.4f}], n={self.n}{flag})"
        )


def eligible_actions_fn(dataset: Dataset) -> Callable[[Interaction], list[int]]:
    """Build a per-interaction eligible-action lookup for a dataset.

    Uses the dataset's :class:`~repro.core.types.ActionSpace` when one
    is attached (it may restrict actions per context); otherwise falls
    back to the set of action ids observed anywhere in the log, which
    is the best reconstruction available when scavenging foreign logs.
    """
    if dataset.action_space is not None:
        space = dataset.action_space
        return lambda interaction: space.actions(interaction.context)
    if len(dataset) == 0:
        return lambda interaction: [0]
    observed = sorted({i.action for i in dataset})
    return lambda interaction: observed


class OffPolicyEstimator(ABC):
    """Interface: estimate a policy's value from logged exploration data.

    An estimate is one fold of the dataset's cached columnar
    :class:`~repro.core.columns.DatasetColumns` view through the
    estimator's reduction (:mod:`repro.core.estimators.reductions`).
    :func:`repro.core.engine.evaluate_jsonl_chunked` folds the same
    reductions over a streamed log, chunk by chunk; the two agree up to
    float reassociation.
    """

    name: str = "estimator"
    #: Which diagnostic check profile applies to this estimator family
    #: (see :data:`repro.core.diagnostics.PROFILES`).
    diagnostics_profile: str = "ips"
    #: Whether this estimator's reduction requires a fitted reward
    #: model (the chunked file driver fits one shared model up front).
    needs_model: bool = False

    def estimate(self, policy: Policy, dataset: Dataset) -> EstimatorResult:
        """Estimate the average reward ``policy`` would obtain.

        The template all reduction-backed estimators share: build this
        estimator's reduction for the policy, fold the whole dataset
        through it once, and finalize against the log summary.  Subclasses customize by implementing
        :meth:`reduction`; estimators outside the reduction protocol
        (e.g. trajectory estimators) override this method wholesale.
        """
        self._require_data(dataset)
        from repro.core.estimators.reductions import (
            LogSummary,
            ReductionContext,
        )

        with get_tracer().span(
            "estimate",
            estimator=self.name,
            policy=policy.name,
            n=len(dataset),
        ):
            context = ReductionContext.from_dataset(dataset)
            reduction = self._reduction(policy, dataset, context)
            columns = dataset.columns()
            state = reduction.fold(reduction.init_state(), columns)
            return reduction.finalize(state, LogSummary.from_columns(columns))

    def reduction(self, policy: Policy, context):
        """Build this estimator's reduction for one candidate policy.

        ``context`` is a
        :class:`~repro.core.estimators.reductions.ReductionContext`
        describing the whole log.  Model-based estimators take an
        additional ``model`` keyword (a fitted
        :class:`~repro.core.estimators.direct.RewardModel`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the reduction "
            "protocol"
        )

    def _reduction(self, policy: Policy, dataset: Dataset, context):
        """Reduction for the in-memory template (hooks model fitting)."""
        return self.reduction(policy, context)

    @staticmethod
    def _standard_error(samples: np.ndarray) -> float:
        """Standard error of the mean of ``samples``."""
        if samples.size <= 1:
            return float("inf")
        return float(np.std(samples, ddof=1) / np.sqrt(samples.size))

    def _require_data(self, dataset: Dataset) -> None:
        if len(dataset) == 0:
            raise ValueError(f"{self.name}: cannot estimate from an empty dataset")
