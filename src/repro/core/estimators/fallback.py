"""Graceful degradation: fall down an estimator ladder, never crash.

When the reliability diagnostics (:mod:`repro.core.diagnostics`) flag
an IPS estimate as ``UNRELIABLE`` — the Table 2 situation — the honest
move is not to return the number anyway, nor to crash, but to degrade
to an estimator whose failure mode is gentler and *say so*.
:class:`FallbackEstimator` walks a ladder::

    IPS  →  clipped IPS  →  SNIPS  →  Direct Method

accepting the first rung whose estimate is finite and whose diagnostics
clear the UNRELIABLE bar.  The last rung (DM by default) is terminal:
its value is always finite, so the caller is guaranteed a usable —
if biased — number.  Every attempt, with its verdict and the reasons
it was rejected, is logged (``repro.fallback`` logger) and recorded in
``details["fallback"]`` so the downgrade is auditable.

Two execution modes share the selection logic:

- :meth:`FallbackEstimator.estimate` walks the ladder *lazily* — rung
  ``k+1`` is never evaluated when rung ``k`` is accepted, which keeps
  the in-memory happy path at one estimator's cost;
- :class:`FallbackReduction` folds *every* rung over the same chunks
  in one pass (a
  :class:`~repro.core.estimators.reductions.CompositeReduction`) and
  selects at ``finalize``.  The chunked file driver uses it: when the
  log streams by once, re-reading it per rung would cost more than
  folding four cheap states side by side.
"""

from __future__ import annotations

import logging
import math
from typing import Iterable, Optional, Sequence

from repro.core.estimators.base import EstimatorResult, OffPolicyEstimator
from repro.core.estimators.direct import DirectMethodEstimator
from repro.core.estimators.ips import (
    ClippedIPSEstimator,
    IPSEstimator,
    SNIPSEstimator,
)
from repro.core.estimators.reductions import CompositeReduction, LogSummary
from repro.core.policies import Policy
from repro.core.types import Dataset
from repro.obs.metrics import get_metrics

logger = logging.getLogger("repro.fallback")


def default_ladder() -> tuple[OffPolicyEstimator, ...]:
    """The standard degradation ladder, most-trusted first."""
    return (
        IPSEstimator(),
        ClippedIPSEstimator(),
        SNIPSEstimator(),
        DirectMethodEstimator(),
    )


def _assess(result: EstimatorResult) -> tuple[bool, dict]:
    """One rung's accept/reject decision and its audit-trail entry."""
    finite = math.isfinite(result.value)
    reasons: list[str] = []
    if not finite:
        reasons.append(f"estimate is {result.value}")
    if result.diagnostics is not None:
        reasons.extend(result.diagnostics.reasons)
    accepted = finite and result.reliable
    return accepted, {
        "estimator": result.estimator,
        "verdict": (
            result.diagnostics.verdict
            if result.diagnostics is not None
            else "OK"
        ),
        "accepted": accepted,
        "reasons": reasons,
    }


def select_down_ladder(
    results: Iterable[EstimatorResult],
    ladder_name: str,
    policy_name: str,
) -> EstimatorResult:
    """Walk rung results in ladder order; keep the first acceptable one.

    ``results`` is consumed lazily — pass a generator to avoid
    evaluating rungs below the accepted one.  The returned result is the
    accepted (or last) rung's, annotated with the ``"fallback"`` audit
    trail and the ``"degraded"`` flag.
    """
    metrics = get_metrics()
    attempts: list[dict] = []
    chosen: Optional[EstimatorResult] = None
    for result in results:
        accepted, attempt = _assess(result)
        attempts.append(attempt)
        chosen = result
        metrics.counter(
            "fallback.attempts",
            estimator=result.estimator,
            accepted=str(accepted).lower(),
        ).inc()
        if accepted:
            break
        logger.info(
            "fallback: %s rejected %s for policy %r: %s",
            ladder_name,
            result.estimator,
            policy_name,
            "; ".join(attempt["reasons"]) or "unreliable",
        )
    assert chosen is not None
    degraded = len(attempts) > 1 or not attempts[0]["accepted"]
    if degraded:
        # Counted on the per-run registry (not just logged once per
        # process): how many estimates this run served from a rung
        # below the ladder's head, and which rung served them.
        metrics.counter(
            "fallback.downgrades",
            ladder=ladder_name,
            served_by=chosen.estimator,
        ).inc()
        logger.info(
            "fallback: policy %r served by %s after %d attempt(s)",
            policy_name,
            chosen.estimator,
            len(attempts),
        )
    details = dict(chosen.details)
    details["fallback"] = attempts
    details["degraded"] = degraded
    return EstimatorResult(
        value=chosen.value,
        std_error=chosen.std_error,
        n=chosen.n,
        effective_n=chosen.effective_n,
        estimator=chosen.estimator,
        details=details,
        diagnostics=chosen.diagnostics,
    )


class FallbackReduction(CompositeReduction):
    """Every ladder rung folded in one pass; selection at finalize.

    The single-pass counterpart of the lazy estimate walk: the states
    are cheap (sufficient statistics only), the data pass is the
    expensive part, so the chunked driver folds all rungs at once and
    applies the identical ladder selection to the finalized results.
    """

    def __init__(self, members, name: str) -> None:
        super().__init__(members, name)

    def finalize(self, state: list, log: LogSummary) -> EstimatorResult:  # type: ignore[override]
        results = [
            member.finalize(part, log)
            for member, part in zip(self.members, state)
        ]
        return select_down_ladder(results, self.name, self.policy.name)


class FallbackEstimator(OffPolicyEstimator):
    """Try each ladder rung until one produces a reliable estimate.

    The returned :class:`EstimatorResult` is the accepted rung's result
    with two additions in ``details``:

    - ``"fallback"`` — one entry per attempted rung: its name, verdict,
      whether it was accepted, and the diagnostic reasons if not;
    - ``"degraded"`` — True when the first rung was rejected, i.e. the
      caller is looking at a downgraded estimate.

    The result's ``estimator`` field names the rung that produced it,
    so downstream reporting stays truthful about what was computed.
    """

    name = "auto"
    needs_model = True  # the terminal DM rung needs one in reduction mode

    def __init__(
        self,
        ladder: Optional[Sequence[OffPolicyEstimator]] = None,
    ) -> None:
        self.ladder = tuple(ladder) if ladder is not None else default_ladder()
        if not self.ladder:
            raise ValueError("fallback ladder must have at least one rung")

    def estimate(self, policy: Policy, dataset: Dataset) -> EstimatorResult:
        self._require_data(dataset)
        return select_down_ladder(
            (rung.estimate(policy, dataset) for rung in self.ladder),
            self.name,
            policy.name,
        )

    def reduction(self, policy: Policy, context, model=None):
        members = [
            rung.reduction(policy, context, model=model)
            if rung.needs_model
            else rung.reduction(policy, context)
            for rung in self.ladder
        ]
        return FallbackReduction(members, name=self.name)
