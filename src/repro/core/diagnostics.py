"""OPE reliability diagnostics: is this estimate trustworthy?

Table 2 of the paper is a warning shot: IPS confidently mis-valued the
degenerate "send to 1" policy because the logged data violated the
A1/A2 assumptions of §5.  An estimator that returns a number without
saying whether the number can be believed is a trap; this module
computes per-estimate health metrics and an explicit verdict:

- **effective sample size** (Kish): ``(Σw)² / Σw²`` of the importance
  weights — how many log rows the estimate *really* rests on;
- **max / 99th-percentile importance weight** — heavy tails mean a
  handful of rows dominate;
- **propensity floor** — ε of Eq. 1; tiny propensities inflate
  variance beyond what the CI accounts for;
- **support coverage** — how much of the candidate policy's action
  mass lands on actions that appear in the log at all (mass off the
  logged support is invisible to any importance-weighted estimator);
- **mean-weight identity** — under assumption A1,
  ``E[π(a_t|x_t)/p_t] = 1`` for any fully-supported candidate π;
- **per-action propensity identity** — under A1,
  ``E[1{a_t=a}/p_t] = 1`` for every action ``a``.  Logs harvested from
  a *deterministic* production policy (propensity ≡ 1, the Table 2
  scenario) fail this loudly: the per-action mean is the action's raw
  frequency, not 1.

The thresholds combine into a three-level verdict — ``OK`` / ``WARN``
/ ``UNRELIABLE`` — attached to every
:class:`~repro.core.estimators.base.EstimatorResult` by the IPS-family,
DR, and DM estimators at every chunk size, rendered by
:mod:`repro.core.reporting`, and consumed by
:class:`~repro.core.estimators.fallback.FallbackEstimator` to degrade
gracefully instead of returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.columns import distinct_actions
from repro.obs.metrics import get_metrics
from repro.obs.monitors import get_monitors

VERDICT_OK = "OK"
VERDICT_WARN = "WARN"
VERDICT_UNRELIABLE = "UNRELIABLE"

#: Check profiles: which rules apply depends on the estimator family.
#: - "ips"    — every check at full strength (plain IPS trusts the
#:   weights completely);
#: - "clipped" — the mean-weight identity only fails *upward* (clipping
#:   legitimately biases the mean weight below 1);
#: - "snips"  — the *mean-weight* identity caps at WARN
#:   (self-normalization absorbs a uniformly mis-scaled propensity
#:   model), but the per-action identity, support, and ESS checks still
#:   bind: degenerate logging is not a scaling problem;
#: - "model"  — DM uses no weights; only support coverage applies, and
#:   only ever as a warning (the model extrapolates, it doesn't blow up).
PROFILES = ("ips", "clipped", "snips", "model")


@dataclass(frozen=True)
class DiagnosticThresholds:
    """Cut-offs separating OK from WARN from UNRELIABLE."""

    ess_fraction_warn: float = 0.05
    ess_fraction_fail: float = 0.005
    identity_warn: float = 0.25
    identity_fail: float = 0.5
    coverage_warn: float = 0.9
    coverage_fail: float = 0.5
    max_weight_warn: float = 100.0
    min_propensity_warn: float = 1e-4


DEFAULT_THRESHOLDS = DiagnosticThresholds()


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size ``(Σw)² / Σw²``, safely.

    Guarded against the all-zero case *and* against denormal weights
    whose squares underflow to exactly 0 (a Hypothesis-found corner:
    ``Σw > 0`` while ``Σw² == 0`` returned NaN).
    """
    weights = np.asarray(weights, dtype=float)
    sum_sq = float(np.sum(np.square(weights)))
    if sum_sq <= 0.0:
        return 0.0
    total = float(np.sum(weights))
    return total * total / sum_sq


def weight_quantile(weights: np.ndarray, q: float = 0.99) -> float:
    """The ``q``-quantile importance weight via an O(N) partition."""
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        return 0.0
    index = int(q * (weights.size - 1))
    return float(np.partition(weights, index)[index])


@dataclass(frozen=True)
class WeightSummary:
    """Sufficient statistics of an importance-weight vector.

    Everything the verdict logic needs to know about a weight vector,
    in O(1) space: the count, first two power sums, the maximum, and
    the 99th-percentile weight.  Built either from a full array
    (:meth:`from_weights`) or folded chunk-by-chunk by the reduction
    kernel (:class:`repro.core.estimators.reductions.WeightStats`), so
    whole-log and chunked evaluation produce identical diagnostics.
    """

    n: int
    total: float
    total_sq: float
    maximum: float
    q99: float

    @classmethod
    def from_weights(cls, weights: np.ndarray) -> "WeightSummary":
        weights = np.asarray(weights, dtype=float)
        n = int(weights.size)
        return cls(
            n=n,
            total=float(np.sum(weights)) if n else 0.0,
            total_sq=float(np.sum(np.square(weights))) if n else 0.0,
            maximum=float(weights.max()) if n else 0.0,
            q99=weight_quantile(weights),
        )

    @property
    def effective_sample_size(self) -> float:
        """Kish ESS ``(Σw)²/Σw²`` with the same underflow guard as
        :func:`effective_sample_size`."""
        if self.total_sq <= 0.0:
            return 0.0
        return self.total * self.total / self.total_sq


def propensity_identity_error(
    actions: np.ndarray, propensities: np.ndarray
) -> float:
    """Worst per-action deviation of the A1 identity ``E[1{a_t=a}/p_t]``.

    For every *observed* action the empirical mean of ``1{a_t=a}/p_t``
    should be 1 when the logged propensities are truthful.  Logs from a
    deterministic policy recorded with propensity 1 put that mean at
    the action's raw frequency — far from 1 — which is exactly how the
    Table 2 failure announces itself in the data.
    """
    actions = np.asarray(actions)
    propensities = np.asarray(propensities, dtype=float)
    n = actions.size
    if n == 0:
        return 0.0
    inverse = 1.0 / propensities
    worst = 0.0
    for action in distinct_actions(actions):
        mean = float(inverse[actions == action].sum()) / n
        worst = max(worst, abs(mean - 1.0))
    return worst


@dataclass(frozen=True)
class ReliabilityDiagnostics:
    """Health metrics for one off-policy estimate, plus the verdict.

    Weight-based fields are ``None`` for model-based (DM) estimates,
    which use no importance weights.
    """

    n: int
    effective_sample_size: Optional[float]
    ess_fraction: Optional[float]
    mean_weight: Optional[float]
    max_weight: Optional[float]
    weight_q99: Optional[float]
    min_propensity: float
    propensity_identity_error: float
    support_coverage: float
    profile: str
    verdict: str
    reasons: tuple[str, ...]

    @property
    def reliable(self) -> bool:
        """Whether the estimate clears the UNRELIABLE bar."""
        return self.verdict != VERDICT_UNRELIABLE

    def to_dict(self) -> dict:
        """JSON-serializable representation (None fields omitted)."""
        out = {
            "n": self.n,
            "min_propensity": self.min_propensity,
            "propensity_identity_error": self.propensity_identity_error,
            "support_coverage": self.support_coverage,
            "profile": self.profile,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
        }
        for key in (
            "effective_sample_size",
            "ess_fraction",
            "mean_weight",
            "max_weight",
            "weight_q99",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def __repr__(self) -> str:
        detail = f", reasons={list(self.reasons)}" if self.reasons else ""
        return f"ReliabilityDiagnostics({self.verdict}{detail})"


def diagnose(
    weights: Optional[np.ndarray],
    propensities: np.ndarray,
    actions: np.ndarray,
    support_coverage: float,
    profile: str = "ips",
    thresholds: Optional[DiagnosticThresholds] = None,
    identity_error: Optional[float] = None,
) -> ReliabilityDiagnostics:
    """Compute diagnostics + verdict for one (policy, dataset) estimate.

    ``weights`` are the importance weights the estimator actually used
    (clipped weights for clipped IPS), or ``None`` for model-based
    estimates.  All inputs are plain arrays, so any code path that
    produces identical weight vectors gets *identical* diagnostics.  ``identity_error`` is policy-independent and may
    be passed in pre-computed (see
    :meth:`repro.core.columns.DatasetColumns.propensity_identity_error`)
    so class searches don't recompute it per candidate.
    """
    propensities = np.asarray(propensities, dtype=float)
    n = int(propensities.size)
    min_propensity = float(propensities.min()) if n else 0.0
    if identity_error is None:
        identity_error = propensity_identity_error(actions, propensities)
    summary = (
        WeightSummary.from_weights(weights) if weights is not None else None
    )
    return diagnose_from_stats(
        summary,
        n=n,
        min_propensity=min_propensity,
        identity_error=identity_error,
        support_coverage=support_coverage,
        profile=profile,
        thresholds=thresholds,
    )


def diagnose_from_stats(
    weights: Optional[WeightSummary],
    n: int,
    min_propensity: float,
    identity_error: float,
    support_coverage: float,
    profile: str = "ips",
    thresholds: Optional[DiagnosticThresholds] = None,
) -> ReliabilityDiagnostics:
    """Verdict logic over sufficient statistics (the fold-friendly core).

    :func:`diagnose` is a thin wrapper that reduces full arrays to these
    statistics first; chunked folds accumulate the same statistics
    incrementally (see :mod:`repro.core.estimators.reductions`), so
    both paths share one copy of the threshold logic and agree exactly.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    t = thresholds or DEFAULT_THRESHOLDS

    failures: list[str] = []
    warnings_: list[str] = []

    if weights is not None:
        ess = weights.effective_sample_size
        ess_fraction = ess / n if n else 0.0
        mean_weight = weights.total / n if n else 0.0
        max_weight = weights.maximum
        q99 = weights.q99

        if ess_fraction < t.ess_fraction_fail:
            failures.append(
                f"effective sample size {ess:.1f} is {ess_fraction:.2%} of "
                f"n={n}"
            )
        elif ess_fraction < t.ess_fraction_warn:
            warnings_.append(
                f"effective sample size {ess:.1f} is {ess_fraction:.2%} of "
                f"n={n}"
            )

        deviation = mean_weight - 1.0
        identity_applies = (
            deviation > t.identity_warn
            if profile == "clipped"
            else abs(deviation) > t.identity_warn
        )
        if identity_applies:
            message = (
                f"mean importance weight {mean_weight:.2f} breaks the "
                f"E[w]=1 identity (A1 violation)"
            )
            hard = (
                deviation > t.identity_fail
                if profile == "clipped"
                else abs(deviation) > t.identity_fail
            )
            if hard and profile != "snips":
                failures.append(message)
            else:
                warnings_.append(message)

        if max_weight > t.max_weight_warn:
            warnings_.append(f"max importance weight {max_weight:.1f} (heavy tail)")
    else:
        ess = ess_fraction = mean_weight = max_weight = q99 = None

    if identity_error > t.identity_fail and profile != "model":
        failures.append(
            f"per-action propensity identity off by {identity_error:.2f} "
            f"(degenerate logging?)"
        )
    elif identity_error > t.identity_warn:
        warnings_.append(
            f"per-action propensity identity off by {identity_error:.2f}"
        )

    if support_coverage < t.coverage_fail and profile != "model":
        failures.append(
            f"only {support_coverage:.0%} of the policy's action mass is "
            f"on logged support"
        )
    elif support_coverage < t.coverage_warn:
        warnings_.append(
            f"{support_coverage:.0%} of the policy's action mass is on "
            f"logged support"
        )

    if 0.0 < min_propensity < t.min_propensity_warn:
        warnings_.append(f"propensity floor {min_propensity:.2e}")

    if failures:
        verdict = VERDICT_UNRELIABLE
    elif warnings_:
        verdict = VERDICT_WARN
    else:
        verdict = VERDICT_OK
    # Every verdict — scalar, vectorized, or chunked — passes through
    # here, so this one counter is the authoritative per-run tally,
    # and the same sufficient statistics feed the streaming monitors
    # (ESS window + weight tail fire on the evaluation side too).
    get_metrics().counter(
        "estimator.verdicts", verdict=verdict, profile=profile
    ).inc()
    monitors = get_monitors()
    if monitors.enabled and weights is not None and n:
        monitors.observe_weight_stats(
            n, weights.total, weights.total_sq, weights.maximum
        )
    return ReliabilityDiagnostics(
        n=n,
        effective_sample_size=ess,
        ess_fraction=ess_fraction,
        mean_weight=mean_weight,
        max_weight=max_weight,
        weight_q99=q99,
        min_propensity=min_propensity,
        propensity_identity_error=identity_error,
        support_coverage=support_coverage,
        profile=profile,
        verdict=verdict,
        reasons=tuple(failures + warnings_),
    )
