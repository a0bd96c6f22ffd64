"""The harvesting pipeline: scavenge → infer → evaluate/optimize (§3).

:class:`LogScavenger` pulls ``⟨x, a, r⟩`` triples out of raw log
records via user-supplied extractors (each simulated system ships its
own pre-configured scavenger, e.g.
:func:`repro.loadbalance.harvest.access_log_scavenger`).
:class:`HarvestPipeline` chains a scavenger with a propensity model and
an off-policy estimator into the paper's three-step methodology.

The module also hosts the **batch harvest engine** — the generation
side of the paper's pitch that exploration data is cheap at scale.
:func:`harvest_columns` drives any policy's
:meth:`~repro.core.policies.Policy.act_batch` over a context stream in
configurable batches and writes the sampled ``⟨x, a, r, p⟩`` tuples
straight into a :class:`~repro.core.columns.DatasetColumns` view, so
generated logs enter the estimators without a per-row object in
between; :func:`harvest_dataset` wraps it for callers that want a
:class:`~repro.core.types.Dataset`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.audit.ledger import DecisionLedger
from repro.audit.streams import StreamRNG
from repro.core.columns import (
    DatasetColumns,
    DecisionBatch,
    EligibleSets,
    EligibleSpec,
    _restricted_sets,
    eligible_sets,
    row_context_ids,
)
from repro.core.policies import Policy, PolicyClass
from repro.core.types import ActionSpace, Context, Dataset, Interaction, RewardRange
from repro.core.validation import (
    PROPENSITY,
    REWARD,
    Quarantine,
    check_mode,
    check_values,
)
from repro.obs.metrics import get_metrics
from repro.obs.monitors import get_monitors
from repro.obs.tracing import get_tracer

if TYPE_CHECKING:
    from repro.core.estimators.base import EstimatorResult, OffPolicyEstimator
    from repro.core.propensity import PropensityModel

#: Default number of decisions sampled per ``act_batch`` call.
DEFAULT_BATCH_SIZE = 8192

#: ``reward_fn(indices, actions) -> rewards``: vectorized outcome lookup
#: for the rows at ``indices`` (positions in the context stream) under
#: the sampled ``actions``.  Called once per batch.
RewardFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Harvest randomness: a plain seeded generator, or an audit-grade
#: sharded stream (:class:`repro.audit.streams.StreamRNG`) whose draws
#: re-derive per shard for fork equivalence.
HarvestRNG = Union[np.random.Generator, StreamRNG]


def batch_segments(
    rng: HarvestRNG, start: int, stop: int
) -> Iterator[Tuple[int, int, np.random.Generator]]:
    """Split batch rows ``[start, stop)`` into generator segments.

    A plain generator is one segment; a :class:`StreamRNG` splits at
    shard boundaries so the derivation grid stays independent of the
    batch grid — the key to keeping the any-batch-size determinism
    contract while every shard remains re-derivable in isolation.
    """
    if isinstance(rng, StreamRNG):
        yield from rng.segments(start, stop)
    else:
        yield start, stop, rng


def _resolve_eligibility(
    contexts: Sequence[Context],
    eligible: Optional[EligibleSpec],
    action_space: Optional[ActionSpace],
    context_ids: np.ndarray,
) -> tuple[EligibleSets, int]:
    """Normalize the eligibility of rows ``contexts[context_ids]`` →
    ``(sets, n_actions)``.

    Each distinct eligible set is normalized once; a restricted action
    space is resolved once per distinct context.
    """
    n = len(context_ids)
    if eligible is None:
        if action_space is None:
            raise ValueError("harvest needs eligible actions or an action space")
        if action_space.restricted:
            eligible = _restricted_sets(action_space, contexts, context_ids)
        else:
            eligible = tuple(range(action_space.n_actions))
    sets = eligible_sets(eligible, n)
    if action_space is not None:
        n_actions = action_space.n_actions
    else:
        n_actions = max((max(row, default=0) for row in sets.sets), default=0) + 1
    return sets, int(n_actions)


def harvest_columns(
    policy: Policy,
    contexts: Sequence[Context],
    reward_fn: RewardFn,
    rng: HarvestRNG,
    *,
    eligible: Optional[EligibleSpec] = None,
    action_space: Optional[ActionSpace] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    reward_range: Optional[RewardRange] = None,
    scenario: str = "generic",
    timestamps: Optional[np.ndarray] = None,
    ledger: Optional[DecisionLedger] = None,
    context_ids: Optional[np.ndarray] = None,
) -> DatasetColumns:
    """Generate an exploration log in batches; return it columnar.

    The harvest-side hot path: for each batch of up to ``batch_size``
    contexts, one :meth:`~repro.core.policies.Policy.act_batch` call
    samples actions and propensities, one ``reward_fn`` call computes
    outcomes, and the results land in preallocated arrays — no per-row
    ``Interaction`` objects anywhere.  The output
    :class:`~repro.core.columns.DatasetColumns` feeds the vectorized
    estimators directly (use ``.to_dataset()`` when per-row objects are
    required).

    ``contexts`` are the rows' contexts or, with ``context_ids`` (one
    int per row), the distinct contexts the ids index — what a scenario
    builder hands over (:class:`~repro.core.coordinator.HarvestInputs`).
    The ids travel with the rows into the columns and the ledger, so
    every distinct context is featurized, digested and encoded once.

    Determinism contract: each batch consumes the generator exactly as
    ``act_batch`` specifies (one uniform per row, in row order, for
    randomizing policies), so **the produced log is bit-identical for
    any** ``batch_size`` ≥ 1 given the same seeded generator — "per
    row" is just ``batch_size=1`` through this same engine.

    Audit hooks: ``rng`` may be a
    :class:`~repro.audit.streams.StreamRNG`, in which case each batch
    is internally split at shard boundaries — the derivation grid is
    independent of the batch grid, so the contract above still holds
    *and* any shard of the log regenerates bit-identically in
    isolation (fork equivalence).  ``ledger`` chains every sampled
    ``(context, action, propensity)`` into a
    :class:`~repro.audit.ledger.DecisionLedger`; the per-batch cost is
    O(1) bookkeeping (hashing is deferred to seal time), keeping the
    hot path within the benchmark gate.

    Instrumented with a ``harvest.batched`` span (per-batch
    ``harvest.batch`` children), the ``harvest.rows_generated`` counter
    (labelled by ``scenario``), and a ``harvest.batch_seconds`` latency
    histogram.  When a monitor suite is installed
    (:func:`repro.obs.monitors.use_monitors`) each batch's
    propensities also feed the streaming health monitors — windowed
    ESS, propensity floor, and weight tails fire mid-harvest instead
    of in the post-hoc report.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    contexts = tuple(contexts)
    ids = row_context_ids(contexts, context_ids)
    n = len(ids)
    eligible, n_actions = _resolve_eligibility(
        contexts, eligible, action_space, ids
    )
    actions = np.empty(n, dtype=np.int64)
    propensities = np.empty(n, dtype=np.float64)
    rewards = np.empty(n, dtype=np.float64)
    tracer = get_tracer()
    metrics = get_metrics()
    monitors = get_monitors()
    latency = metrics.histogram("harvest.batch_seconds", scenario=scenario)
    with tracer.span(
        "harvest.batched", scenario=scenario, batch_size=batch_size
    ) as span:
        n_batches = 0
        for start in range(0, n, batch_size):
            stop = min(n, start + batch_size)
            began = time.perf_counter()
            with tracer.span("harvest.batch", start=start, rows=stop - start):
                for seg_start, seg_stop, generator in batch_segments(
                    rng, start, stop
                ):
                    rows = slice(seg_start, seg_stop)
                    batch = DecisionBatch(
                        contexts,
                        eligible.take(rows),
                        n_actions=n_actions,
                        context_ids=ids[rows],
                    )
                    sampled, probs = policy.act_batch(batch, None, generator)
                    actions[rows] = sampled
                    propensities[rows] = probs
                rewards[start:stop] = reward_fn(
                    np.arange(start, stop), actions[start:stop]
                )
                if ledger is not None:
                    ledger.extend_batch(
                        contexts,
                        actions[start:stop],
                        propensities[start:stop],
                        ids[start:stop],
                    )
            if monitors.enabled:
                monitors.observe_propensities(propensities[start:stop])
            latency.observe(time.perf_counter() - began)
            n_batches += 1
        span.set(rows=n, batches=n_batches)
    metrics.counter("harvest.rows_generated", scenario=scenario).inc(n)
    return DatasetColumns.from_arrays(
        contexts,
        actions,
        rewards,
        propensities,
        eligible=eligible,
        n_actions=n_actions,
        action_space=action_space,
        reward_range=reward_range,
        timestamps=timestamps,
        context_ids=ids,
    )


def harvest_dataset(
    policy: Policy,
    contexts: Sequence[Context],
    reward_fn: RewardFn,
    rng: HarvestRNG,
    *,
    eligible: Optional[EligibleSpec] = None,
    action_space: Optional[ActionSpace] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    reward_range: Optional[RewardRange] = None,
    scenario: str = "generic",
    timestamps: Optional[np.ndarray] = None,
    ledger: Optional[DecisionLedger] = None,
    context_ids: Optional[np.ndarray] = None,
) -> Dataset:
    """Harvest an exploration :class:`~repro.core.types.Dataset`.

    Runs the batched engine (:func:`harvest_columns`, same arguments
    and determinism contract) and materializes the result.
    """
    columns = harvest_columns(
        policy,
        contexts,
        reward_fn,
        rng,
        eligible=eligible,
        action_space=action_space,
        batch_size=batch_size,
        reward_range=reward_range,
        scenario=scenario,
        timestamps=timestamps,
        ledger=ledger,
        context_ids=context_ids,
    )
    return columns.to_dataset()


@dataclass
class ScavengedRecord:
    """One ``⟨x, a, r⟩`` triple extracted from a log, pre-propensity."""

    context: Context
    action: int
    reward: float
    timestamp: float = 0.0
    eligible_actions: Optional[Sequence[int]] = None


class LogScavenger:
    """Step 1: extract ``⟨x, a, r⟩`` from raw log records.

    Parameterized by extractor callbacks so it adapts to any log
    format.  Records for which any extractor raises or returns ``None``
    are dropped and counted (real logs are messy; the count surfaces
    how lossy the scavenge was).
    """

    def __init__(
        self,
        context_of: Callable[[dict], Optional[Context]],
        action_of: Callable[[dict], Optional[int]],
        reward_of: Callable[[dict], Optional[float]],
        timestamp_of: Optional[Callable[[dict], float]] = None,
        eligible_of: Optional[Callable[[dict], Sequence[int]]] = None,
    ) -> None:
        self._context_of = context_of
        self._action_of = action_of
        self._reward_of = reward_of
        self._timestamp_of = timestamp_of
        self._eligible_of = eligible_of
        self.dropped = 0

    def scavenge(self, records: Iterable[dict]) -> list[ScavengedRecord]:
        """Extract all parseable records, counting drops."""
        out: list[ScavengedRecord] = []
        self.dropped = 0
        with get_tracer().span("harvest.scavenge") as span:
            for index, record in enumerate(records):
                try:
                    context = self._context_of(record)
                    action = self._action_of(record)
                    reward = self._reward_of(record)
                except (KeyError, ValueError, TypeError):
                    self.dropped += 1
                    continue
                if context is None or action is None or reward is None:
                    self.dropped += 1
                    continue
                timestamp = (
                    self._timestamp_of(record)
                    if self._timestamp_of is not None
                    else float(index)
                )
                eligible = (
                    list(self._eligible_of(record))
                    if self._eligible_of is not None
                    else None
                )
                out.append(
                    ScavengedRecord(context, int(action), float(reward), timestamp, eligible)
                )
            span.set(scavenged=len(out), dropped=self.dropped)
        metrics = get_metrics()
        metrics.counter("harvest.scavenged").inc(len(out))
        metrics.counter("harvest.dropped").inc(self.dropped)
        return out


@dataclass
class HarvestReport:
    """Summary of one full pipeline run."""

    n_records: int
    n_scavenged: int
    n_dropped: int
    min_propensity: float
    evaluations: dict[str, EstimatorResult] = field(default_factory=dict)
    #: Records rejected (or repaired) by validation during build_dataset.
    #: Empty (falsy) when every scavenged record passed.
    quarantine: Optional[Quarantine] = None


class HarvestPipeline:
    """Steps 1–3 composed: scavenge logs, infer propensities, evaluate.

    Typical use::

        pipeline = HarvestPipeline(scavenger, propensity_model,
                                   action_space=space)
        dataset = pipeline.build_dataset(log_records)
        result = pipeline.evaluate(candidate_policy, dataset)
    """

    def __init__(
        self,
        scavenger: LogScavenger,
        propensity_model: PropensityModel,
        action_space: Optional[ActionSpace] = None,
        reward_range: Optional[RewardRange] = None,
        estimator: Optional[OffPolicyEstimator] = None,
        mode: str = "strict",
        repair_propensity_floor: float = 1e-3,
    ) -> None:
        from repro.core.estimators.ips import IPSEstimator

        self.scavenger = scavenger
        self.propensity_model = propensity_model
        self.action_space = action_space
        self.reward_range = reward_range
        self.estimator = estimator or IPSEstimator()
        self.mode = check_mode(mode)
        if not 0.0 < repair_propensity_floor <= 1.0:
            raise ValueError("repair_propensity_floor must be in (0, 1]")
        self.repair_propensity_floor = repair_propensity_floor
        #: Quarantine from the most recent build_dataset call.
        self.quarantine: Optional[Quarantine] = None

    def build_dataset(
        self, records: Iterable[dict], mode: Optional[str] = None
    ) -> Dataset:
        """Steps 1 and 2: raw log records → exploration dataset.

        Every candidate tuple — including the propensity the model
        just *inferred* — passes through the value rules of
        :mod:`repro.core.validation` before it reaches the dataset.
        ``mode`` overrides the pipeline's default: ``"strict"`` raises
        on the first violation, ``"quarantine"`` sets violators aside
        with a reason, ``"repair"`` clamps fixable propensities/rewards
        and quarantines the rest.  The quarantine lands on both the
        returned dataset and ``self.quarantine``.

        Instrumented: the run is covered by a ``harvest.build_dataset``
        span (with the scavenge as a child span) and feeds the
        ``harvest.rows`` counter with the accepted-row count.
        """
        mode = check_mode(mode) if mode is not None else self.mode
        with get_tracer().span("harvest.build_dataset", mode=mode) as span:
            dataset = self._build_dataset(records, mode)
            span.set(rows=len(dataset), rejected=self.quarantine.n_rejected
                     if self.quarantine is not None else 0)
        get_metrics().counter("harvest.rows").inc(len(dataset))
        return dataset

    def _build_dataset(self, records: Iterable[dict], mode: str) -> Dataset:
        scavenged = self.scavenger.scavenge(records)
        if not scavenged:
            raise ValueError("scavenger extracted no usable records")
        dataset = Dataset(
            action_space=self.action_space, reward_range=self.reward_range
        )
        quarantine = Quarantine()
        if self.action_space is None:
            # Hoisted out of the loop: the observed-action ceiling is a
            # property of the whole scavenge, not of any one record.
            default_eligible = list(
                range(max(r.action for r in scavenged) + 1)
            )
        for number, record in enumerate(scavenged, start=1):
            if record.eligible_actions is not None:
                eligible = list(record.eligible_actions)
            elif self.action_space is not None:
                eligible = self.action_space.actions(record.context)
            else:
                eligible = default_eligible
            propensity = self.propensity_model.propensity(
                record.context, record.action, eligible
            )
            reward = record.reward
            issues = check_values(
                record.context,
                record.action,
                reward,
                propensity,
                eligible=eligible,
                reward_range=self.reward_range,
            )
            if issues and mode == "repair":
                remaining = []
                for reason, detail in issues:
                    if reason == PROPENSITY and math.isfinite(propensity):
                        propensity = (
                            1.0
                            if propensity > 1.0
                            else self.repair_propensity_floor
                        )
                        quarantine.note_repair(reason)
                    elif reason == REWARD and self.reward_range is not None \
                            and math.isfinite(reward):
                        reward = self.reward_range.clip(reward)
                        quarantine.note_repair(reason)
                    else:
                        remaining.append((reason, detail))
                issues = remaining
            if issues:
                reason, detail = issues[0]
                if mode == "strict":
                    raise ValueError(
                        f"harvest: record {number}: {reason}: {detail}"
                    )
                quarantine.add(
                    number, reason, "; ".join(d for _, d in issues)
                )
                continue
            dataset.append(
                Interaction(
                    context=record.context,
                    action=record.action,
                    reward=reward,
                    propensity=propensity,
                    timestamp=record.timestamp,
                )
            )
        if len(dataset) == 0:
            raise ValueError(
                "validation rejected every scavenged record; quarantine: "
                + ", ".join(
                    f"{k}={v}" for k, v in quarantine.counts_by_reason().items()
                )
            )
        dataset.quarantine = quarantine
        self.quarantine = quarantine
        return dataset

    def evaluate(self, policy: Policy, dataset: Dataset) -> EstimatorResult:
        """Step 3a: off-policy evaluation of one candidate."""
        return self.estimator.estimate(policy, dataset)

    def optimize(
        self,
        policy_class: PolicyClass,
        dataset: Dataset,
        maximize: bool = True,
    ) -> tuple[Policy, float]:
        """Step 3b: offline optimization over a policy class."""
        from repro.core.learners.cb import PolicyClassOptimizer

        optimizer = PolicyClassOptimizer(self.estimator, maximize=maximize)
        return optimizer.optimize(policy_class, dataset)

    def run(
        self,
        records: Sequence[dict],
        candidates: Sequence[Policy],
    ) -> HarvestReport:
        """End-to-end: scavenge, infer, evaluate every candidate."""
        records = list(records)
        with get_tracer().span("harvest.run", candidates=len(candidates)):
            dataset = self.build_dataset(records)
            evaluations = {
                policy.name: self.evaluate(policy, dataset)
                for policy in candidates
            }
        return HarvestReport(
            n_records=len(records),
            n_scavenged=len(dataset),
            n_dropped=self.scavenger.dropped,
            min_propensity=dataset.min_propensity(),
            evaluations=evaluations,
            quarantine=self.quarantine,
        )
