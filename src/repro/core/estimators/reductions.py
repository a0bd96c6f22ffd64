"""The fold-based reduction kernel behind every estimator.

Every estimator in this package — IPS, clipped IPS, SNIPS, the Direct
Method, Doubly Robust, SWITCH — is a mean of per-interaction terms plus
a handful of moments.  That makes each of them a *reduction*::

    state = reduction.init_state()
    for chunk in chunks:                 # the log's rows, in order
        state = reduction.fold(state, chunk_columns)
    result = reduction.finalize(state, log_summary)

``fold`` consumes a :class:`~repro.core.columns.DatasetColumns` view of
one chunk; states carry only sufficient statistics (weighted sums,
match counts, Welford term moments, and the diagnostics accumulators
for Kish ESS / weight tails / the E[w]=1 identity), so peak memory is
O(chunk), not O(log).  Each log is folded in one order: an in-memory
estimate folds the whole log as one chunk
(:meth:`~repro.core.estimators.base.OffPolicyEstimator.estimate`), and
the JSONL file driver (:func:`repro.core.engine.evaluate_jsonl_chunked`)
folds it chunk by chunk as it streams by; both share ``finalize``, as
do the streaming wrappers (:mod:`repro.core.streaming`), which build on
:class:`Moments`.

Exact chunk-size invariance caveats worth knowing:

- The 99th-percentile weight is *order statistics*, not a sum.  Each
  :class:`WeightStats` keeps the top ``N − floor(0.99·(N−1))`` weights
  for the known total row count ``N`` (~1% of N), which makes the q99
  of any sequence of chunk folds exact — not an approximation.
- Chan's moment combination and the per-action inverse-propensity sums
  reassociate float additions, so chunked results match whole-log
  results to ~1e-12 relative, not bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.columns import DatasetColumns, distinct_actions
from repro.core.diagnostics import (
    ReliabilityDiagnostics,
    WeightSummary,
    diagnose_from_stats,
)
from repro.core.estimators.base import EstimatorResult
from repro.core.policies import Policy
from repro.core.types import Dataset


# ---------------------------------------------------------------------------
# accumulators


@dataclass
class Moments:
    """Running count / mean / sum of squared deviations of a series.

    ``push`` is Welford's single-point recurrence (the one
    :class:`~repro.core.streaming.StreamingIPS` has always used);
    ``fold`` ingests a whole chunk at array speed; ``merge_in`` is
    Chan's parallel combination.  All three agree with the batch
    ``mean``/``std(ddof=1)`` up to float reassociation, and ``fold`` of
    a single whole-log chunk reproduces them exactly.
    """

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def push(self, value: float) -> None:
        """Welford update with one observation (O(1) streaming mode)."""
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (value - self.mean)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "Moments":
        values = np.asarray(values, dtype=float)
        n = int(values.size)
        if n == 0:
            return cls()
        mean = float(values.mean())
        return cls(n=n, mean=mean, m2=float(np.sum((values - mean) ** 2)))

    def fold(self, values: np.ndarray) -> None:
        """Ingest one chunk of observations."""
        self.merge_in(Moments.from_array(values))

    def merge_in(self, other: "Moments") -> None:
        """Chan's parallel-variance combination; associative."""
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            return
        n = self.n + other.n
        delta = other.mean - self.mean
        self.mean = (self.n * self.mean + other.n * other.mean) / n
        self.m2 = self.m2 + other.m2 + delta * delta * (self.n * other.n) / n
        self.n = n

    def std_error(self) -> float:
        """Standard error of the mean; ``inf`` below two observations."""
        if self.n <= 1:
            return float("inf")
        variance = self.m2 / (self.n - 1)
        return math.sqrt(variance / self.n)


@dataclass
class WeightStats:
    """Diagnostics accumulator over an importance-weight vector.

    Folds the power sums behind Kish ESS and the E[w]=1 identity, the
    running maximum, the match count, and — because a quantile is not a
    sum — the largest ``tail_k`` weights seen so far.  ``tail_k`` is
    sized from the *total* row count (known up front by every driver:
    ``len(dataset)`` in memory, the discovery pass for files) as
    ``N − floor(0.99·(N−1))``, the exact number of weights at or above
    the q99 order statistic; keeping that many makes the q99 exact
    however the log is split into chunks.
    """

    tail_k: int
    n: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    maximum: float = 0.0
    matches: int = 0
    tail: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=float)
    )

    @classmethod
    def for_rows(cls, total_rows: int) -> "WeightStats":
        if total_rows > 0:
            tail_k = total_rows - int(0.99 * (total_rows - 1))
        else:
            tail_k = 1
        return cls(tail_k=max(1, tail_k))

    def fold(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=float)
        size = int(weights.size)
        if size == 0:
            return
        self.n += size
        self.total += float(np.sum(weights))
        self.total_sq += float(np.sum(np.square(weights)))
        self.maximum = max(self.maximum, float(weights.max()))
        self.matches += int(np.count_nonzero(weights))
        if size > self.tail_k:
            cut = size - self.tail_k
            weights = np.partition(weights, cut)[cut:]
        tail = np.sort(np.concatenate([self.tail, weights]))
        self.tail = tail[max(0, tail.size - self.tail_k):]

    def q99(self) -> float:
        """The 0.99-quantile weight, exact while ``n ≤`` the sized total."""
        if self.n == 0:
            return 0.0
        needed = self.n - int(0.99 * (self.n - 1))
        position = self.tail.size - min(needed, self.tail.size)
        return float(self.tail[position])

    def summary(self) -> WeightSummary:
        return WeightSummary(
            n=self.n,
            total=self.total,
            total_sq=self.total_sq,
            maximum=self.maximum,
            q99=self.q99(),
        )


@dataclass
class RatioMoments:
    """Sufficient statistics of the SNIPS ratio ``Σwr / Σw``.

    Carries the five power sums that reconstruct both the ratio and its
    delta-method standard error
    ``sqrt(Σ w²(r−v)²)/Σw = sqrt(Σ(wr)² − 2vΣw²r + v²Σw²)/Σw``.
    """

    n: int = 0
    weight_sum: float = 0.0
    numerator_sum: float = 0.0  # Σ w·r
    sq_weight_sum: float = 0.0  # Σ w²
    sq_cross_sum: float = 0.0  # Σ w²·r
    sq_numerator_sum: float = 0.0  # Σ (w·r)²

    def fold(self, weights: np.ndarray, rewards: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=float)
        rewards = np.asarray(rewards, dtype=float)
        if weights.size == 0:
            return
        numerators = weights * rewards
        self.n += int(weights.size)
        self.weight_sum += float(np.sum(weights))
        self.numerator_sum += float(np.sum(numerators))
        self.sq_weight_sum += float(np.sum(weights * weights))
        self.sq_cross_sum += float(np.sum(numerators * weights))
        self.sq_numerator_sum += float(np.sum(numerators * numerators))

    def value(self) -> float:
        if self.weight_sum == 0.0:
            return float("nan")
        return self.numerator_sum / self.weight_sum

    def std_error(self) -> float:
        if self.n <= 1 or self.weight_sum == 0.0:
            return float("inf")
        v = self.value()
        residual_sq = (
            self.sq_numerator_sum
            - 2.0 * v * self.sq_cross_sum
            + v * v * self.sq_weight_sum
        )
        # The expansion can go microscopically negative by cancellation.
        return math.sqrt(max(0.0, residual_sq)) / self.weight_sum


@dataclass
class LogStats:
    """Policy-independent facts of the log, folded chunk by chunk.

    Row count, propensity floor, and the per-action ``Σ 1/p`` sums
    behind the A1 identity check.  One instance serves every (policy ×
    estimator) reduction in a run — the identity error depends only on
    the log, so class searches must not pay for it per candidate.
    """

    n: int = 0
    min_propensity: float = float("inf")
    inverse_sums: dict = field(default_factory=dict)

    def fold(self, actions: np.ndarray, propensities: np.ndarray) -> None:
        propensities = np.asarray(propensities, dtype=float)
        actions = np.asarray(actions)
        if propensities.size == 0:
            return
        self.n += int(propensities.size)
        self.min_propensity = min(
            self.min_propensity, float(propensities.min())
        )
        inverse = 1.0 / propensities
        for action in distinct_actions(actions):
            key = int(action)
            self.inverse_sums[key] = self.inverse_sums.get(key, 0.0) + float(
                inverse[actions == action].sum()
            )

    def identity_error(self) -> float:
        if self.n == 0:
            return 0.0
        return max(
            (abs(total / self.n - 1.0) for total in self.inverse_sums.values()),
            default=0.0,
        )

    def summary(self) -> "LogSummary":
        return LogSummary(
            n=self.n,
            min_propensity=(
                self.min_propensity if self.n else 0.0
            ),
            identity_error=self.identity_error(),
        )


@dataclass(frozen=True)
class LogSummary:
    """What ``finalize`` needs to know about the whole log."""

    n: int
    min_propensity: float
    identity_error: float

    @classmethod
    def from_columns(cls, columns: DatasetColumns) -> "LogSummary":
        return cls(
            n=columns.n,
            min_propensity=(
                float(columns.propensities.min()) if columns.n else 0.0
            ),
            identity_error=columns.propensity_identity_error(),
        )


@dataclass
class ReductionContext:
    """Log-level facts pinned before folding starts.

    ``observed_actions`` (the global logged support) and ``total_rows``
    must describe the *whole* log, not a chunk — coverage and the q99
    tail buffer depend on them.  In-memory drivers read both off the
    dataset; the file driver discovers them in its first pass.
    """

    observed_actions: np.ndarray
    total_rows: int

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "ReductionContext":
        columns = dataset.columns()
        return cls(
            observed_actions=columns.observed_actions(),
            total_rows=len(dataset),
        )


@dataclass
class ChunkTerms:
    """Per-row quantities of one chunk, ready to fold into a state."""

    n: int
    terms: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    rewards: Optional[np.ndarray] = None
    coverage_sum: float = 0.0
    matched: int = 0
    clipped: int = 0
    switched: int = 0


@dataclass
class FoldState:
    """Sufficient statistics of the rows folded so far."""

    terms: Moments = field(default_factory=Moments)
    weights: Optional[WeightStats] = None
    ratio: Optional[RatioMoments] = None
    coverage_sum: float = 0.0
    matched: int = 0
    clipped: int = 0
    switched: int = 0
    #: Raw per-row term chunks, in fold order — populated only when the
    #: reduction's ``collect_terms`` is set (the bootstrap resamples the
    #: IPS term vector, 8 bytes a row).
    term_chunks: Optional[list] = None


# ---------------------------------------------------------------------------
# the reduction protocol


class EstimatorReduction:
    """One estimator's fold/finalize over one candidate policy.

    Subclasses supply :meth:`chunk_batch` (array math over a chunk's
    columnar view, returning a :class:`ChunkTerms`) and
    :meth:`finalize`; folding is generic.
    """

    #: Diagnostics profile, or ``None`` for estimators without a verdict.
    profile: Optional[str] = None
    #: Whether folds keep the raw per-row terms (:meth:`collected_terms`);
    #: the file driver sets it on the IPS reductions a bootstrap resamples.
    collect_terms: bool = False

    def __init__(
        self,
        policy: Policy,
        context: ReductionContext,
        name: str,
    ) -> None:
        self.policy = policy
        self.context = context
        self.name = name

    # -- state lifecycle ---------------------------------------------------

    def init_state(self) -> FoldState:
        state = FoldState()
        if self.profile is not None and self._uses_weights():
            state.weights = WeightStats.for_rows(self.context.total_rows)
        if self._uses_ratio():
            state.ratio = RatioMoments()
        if self.collect_terms:
            state.term_chunks = []
        return state

    def _uses_weights(self) -> bool:
        return True

    def _uses_ratio(self) -> bool:
        return False

    def fold(self, state: FoldState, columns: DatasetColumns) -> FoldState:
        """Fold one chunk's columnar view into ``state``."""
        return self.fold_chunk(state, self.chunk_batch(columns))

    def fold_chunk(self, state: FoldState, chunk: ChunkTerms) -> FoldState:
        if chunk.terms is not None:
            terms = np.asarray(chunk.terms, dtype=float)
            state.terms.fold(terms)
            if state.term_chunks is not None:
                state.term_chunks.append(terms)
        if state.weights is not None and chunk.weights is not None:
            state.weights.fold(chunk.weights)
        if state.ratio is not None:
            state.ratio.fold(chunk.weights, chunk.rewards)
        state.coverage_sum += chunk.coverage_sum
        state.matched += chunk.matched
        state.clipped += chunk.clipped
        state.switched += chunk.switched
        return state

    def collected_terms(self, state: FoldState) -> np.ndarray:
        """The per-row term vector, in log order (collect_terms mode)."""
        if state.term_chunks is None:
            raise ValueError("reduction does not collect its terms")
        if not state.term_chunks:
            return np.empty(0, dtype=float)
        return np.concatenate(state.term_chunks)

    # -- per-estimator hooks ----------------------------------------------

    def chunk_batch(self, columns: DatasetColumns) -> ChunkTerms:
        raise NotImplementedError

    def finalize(self, state: FoldState, log: LogSummary) -> EstimatorResult:
        raise NotImplementedError

    # -- shared pieces -----------------------------------------------------

    def _coverage(self, state: FoldState, log: LogSummary) -> float:
        return state.coverage_sum / log.n if log.n else 0.0

    def _diagnostics(
        self, state: FoldState, log: LogSummary
    ) -> Optional[ReliabilityDiagnostics]:
        if self.profile is None:
            return None
        summary = (
            state.weights.summary() if state.weights is not None else None
        )
        return diagnose_from_stats(
            summary,
            n=log.n,
            min_propensity=log.min_propensity,
            identity_error=log.identity_error,
            support_coverage=self._coverage(state, log),
            profile=self.profile,
        )


def _batch_weights_and_coverage(
    policy: Policy,
    columns: DatasetColumns,
    observed: np.ndarray,
) -> tuple[np.ndarray, float]:
    """One probability pass: importance weights + summed coverage mass.

    The weights also seed the columns' memo
    (:meth:`~repro.core.columns.DatasetColumns.memo_ips_weights`), so a
    bootstrap after a whole-log fold reuses them.
    """
    matrix = policy.probabilities_batch(columns)
    weights = columns.memo_ips_weights(policy, matrix)
    coverage_sum = float(matrix[:, observed].sum(axis=1).sum())
    return weights, coverage_sum


class IPSReduction(EstimatorReduction):
    """Plain inverse-propensity scoring as a reduction."""

    profile = "ips"

    def chunk_batch(self, columns: DatasetColumns) -> ChunkTerms:
        weights, coverage_sum = _batch_weights_and_coverage(
            self.policy, columns, self.context.observed_actions
        )
        return self._chunk_from_weights(
            weights, columns.rewards, coverage_sum
        )

    def _chunk_from_weights(
        self,
        weights: np.ndarray,
        rewards: np.ndarray,
        coverage_sum: float,
    ) -> ChunkTerms:
        return ChunkTerms(
            n=int(weights.size),
            terms=weights * rewards,
            weights=weights,
            rewards=rewards,
            coverage_sum=coverage_sum,
            matched=int(np.count_nonzero(weights)),
        )

    def finalize(self, state: FoldState, log: LogSummary) -> EstimatorResult:
        n = state.terms.n
        return EstimatorResult(
            value=state.terms.mean if n else float("nan"),
            std_error=state.terms.std_error(),
            n=n,
            effective_n=state.matched,
            estimator=self.name,
            details={"match_rate": state.matched / n if n else 0.0},
            diagnostics=self._diagnostics(state, log),
        )


class ClippedIPSReduction(IPSReduction):
    """IPS with weights clipped at ``max_weight``."""

    profile = "clipped"

    def __init__(
        self,
        policy: Policy,
        context: ReductionContext,
        name: str,
        max_weight: float,
    ) -> None:
        super().__init__(policy, context, name)
        self.max_weight = max_weight

    def _chunk_from_weights(
        self,
        raw: np.ndarray,
        rewards: np.ndarray,
        coverage_sum: float,
    ) -> ChunkTerms:
        weights = np.minimum(raw, self.max_weight)
        return ChunkTerms(
            n=int(raw.size),
            terms=weights * rewards,
            # Diagnose the weights actually used: clipping caps the
            # tail, which the "clipped" profile accounts for.
            weights=weights,
            rewards=rewards,
            coverage_sum=coverage_sum,
            matched=int(np.count_nonzero(weights)),
            clipped=int(np.count_nonzero(raw > self.max_weight)),
        )

    def finalize(self, state: FoldState, log: LogSummary) -> EstimatorResult:
        result = super().finalize(state, log)
        n = state.terms.n
        result.details["clipped_fraction"] = (
            state.clipped / n if n else 0.0
        )
        return result


class SNIPSReduction(IPSReduction):
    """Self-normalized IPS: a ratio of folded sums."""

    profile = "snips"

    def _uses_ratio(self) -> bool:
        return True

    def finalize(self, state: FoldState, log: LogSummary) -> EstimatorResult:
        assert state.ratio is not None
        n = state.ratio.n
        diagnostics = self._diagnostics(state, log)
        if state.ratio.weight_sum == 0.0:
            # The candidate never matches the log: no information at all.
            return EstimatorResult(
                value=float("nan"),
                std_error=float("inf"),
                n=n,
                effective_n=0,
                estimator=self.name,
                details={"match_rate": 0.0},
                diagnostics=diagnostics,
            )
        summary = state.weights.summary() if state.weights else None
        return EstimatorResult(
            value=state.ratio.value(),
            std_error=state.ratio.std_error(),
            n=n,
            effective_n=state.matched,
            estimator=self.name,
            details={
                "match_rate": state.matched / n if n else 0.0,
                # Kish ESS with the underflow guard: denormal weights
                # can make Σw² exactly 0 while Σw > 0.
                "effective_sample_size": (
                    summary.effective_sample_size if summary else 0.0
                ),
            },
            diagnostics=diagnostics,
        )


class DirectMethodReduction(EstimatorReduction):
    """Model-based evaluation: fold the model's predicted values."""

    profile = "model"

    def __init__(
        self,
        policy: Policy,
        context: ReductionContext,
        name: str,
        model,
    ) -> None:
        super().__init__(policy, context, name)
        self.model = model

    def _uses_weights(self) -> bool:
        return False

    def chunk_batch(self, columns: DatasetColumns) -> ChunkTerms:
        probs = self.policy.probabilities_batch(columns)
        predictions = (probs * self.model.predict_matrix(columns)).sum(axis=1)
        observed = self.context.observed_actions
        coverage_sum = float(probs[:, observed].sum(axis=1).sum())
        return ChunkTerms(
            n=columns.n,
            terms=predictions,
            coverage_sum=coverage_sum,
            matched=columns.n,
        )

    def finalize(self, state: FoldState, log: LogSummary) -> EstimatorResult:
        n = state.terms.n
        return EstimatorResult(
            value=state.terms.mean if n else float("nan"),
            std_error=state.terms.std_error(),
            n=n,
            effective_n=n,
            estimator=self.name,
            diagnostics=self._diagnostics(state, log),
        )


class DoublyRobustReduction(EstimatorReduction):
    """Model baseline + importance-weighted residual correction."""

    profile = "ips"

    def __init__(
        self,
        policy: Policy,
        context: ReductionContext,
        name: str,
        model,
    ) -> None:
        super().__init__(policy, context, name)
        self.model = model

    def chunk_batch(self, columns: DatasetColumns) -> ChunkTerms:
        probs = self.policy.probabilities_batch(columns)
        predictions = self.model.predict_matrix(columns)
        baseline = (probs * predictions).sum(axis=1)
        ratio = columns.probability_of_logged(probs) / columns.propensities
        residual = columns.rewards - columns.probability_of_logged(
            predictions
        )
        observed = self.context.observed_actions
        return ChunkTerms(
            n=columns.n,
            terms=baseline + ratio * residual,
            weights=ratio,
            coverage_sum=float(probs[:, observed].sum(axis=1).sum()),
            matched=int(np.count_nonzero(ratio > 0)),
        )

    def finalize(self, state: FoldState, log: LogSummary) -> EstimatorResult:
        n = state.terms.n
        return EstimatorResult(
            value=state.terms.mean if n else float("nan"),
            std_error=state.terms.std_error(),
            n=n,
            effective_n=state.matched,
            estimator=self.name,
            details={"match_rate": state.matched / n if n else 0.0},
            diagnostics=self._diagnostics(state, log),
        )


class SwitchReduction(EstimatorReduction):
    """SWITCH: IPS below the weight threshold τ, Direct Method above."""

    profile = None  # SWITCH reports no reliability verdict

    def __init__(
        self,
        policy: Policy,
        context: ReductionContext,
        name: str,
        model,
        tau: float,
    ) -> None:
        super().__init__(policy, context, name)
        self.model = model
        self.tau = tau

    def chunk_batch(self, columns: DatasetColumns) -> ChunkTerms:
        probs = self.policy.probabilities_batch(columns)
        weight = columns.probability_of_logged(probs) / columns.propensities
        dm_terms = (probs * self.model.predict_matrix(columns)).sum(axis=1)
        use_ips = weight <= self.tau
        return ChunkTerms(
            n=columns.n,
            terms=np.where(use_ips, weight * columns.rewards, dm_terms),
            matched=int(np.count_nonzero(weight > 0)),
            switched=int(np.count_nonzero(~use_ips)),
        )

    def finalize(self, state: FoldState, log: LogSummary) -> EstimatorResult:
        n = state.terms.n
        return EstimatorResult(
            value=state.terms.mean if n else float("nan"),
            std_error=state.terms.std_error(),
            n=n,
            effective_n=state.matched,
            estimator=self.name,
            details={
                "match_rate": state.matched / n if n else 0.0,
                "switch_fraction": state.switched / n if n else 0.0,
            },
        )


class CompositeReduction(EstimatorReduction):
    """Fold several reductions over the same chunks simultaneously.

    The state is a list of the member states; ``finalize`` is supplied
    by subclasses (the fallback ladder selects among rung results).
    Used where a single streamed pass must feed multiple estimators.
    """

    def __init__(self, members: Sequence[EstimatorReduction], name: str) -> None:
        if not members:
            raise ValueError("composite reduction needs at least one member")
        self.members = tuple(members)
        self.name = name
        self.policy = members[0].policy
        self.context = members[0].context

    def init_state(self) -> list:  # type: ignore[override]
        return [member.init_state() for member in self.members]

    def fold(self, state: list, columns: DatasetColumns) -> list:  # type: ignore[override]
        return [
            member.fold(part, columns)
            for member, part in zip(self.members, state)
        ]

    def finalize(self, state: list, log: LogSummary) -> EstimatorResult:  # type: ignore[override]
        raise NotImplementedError
