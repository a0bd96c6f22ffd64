"""Shard-native harvest coordination across the persistent worker pool.

The distributed-harvest refactor: instead of one monolithic per-run
loop, a harvest is a :class:`~repro.audit.shards.ShardPlan` fanned out
by :class:`HarvestCoordinator` onto the persistent pool of
:mod:`repro.core.pool`.  The architecture leans entirely on the audit
primitives:

- **Descriptor-only bootstrap.**  A worker receives the once-pickled
  :class:`HarvestJob` (scenario name + config + policy + master seed)
  plus ``(start, stop)`` — never RNG state, never simulator objects,
  never context arrays.  It rebuilds its inputs deterministically from
  the scenario config (cached per job, so pool reuse pays the build
  once per worker), derives its decision stream at the shard's start
  ordinal (:class:`~repro.audit.streams.StreamRNG` fork equivalence),
  and harvests its rows with the same
  :func:`~repro.core.harvest.harvest_columns` engine a serial run
  uses.
- **Provisional sealing, splice anchoring.**  A worker cannot know its
  true ``prev`` (the predecessor shard may still be in flight), so it
  seals a *provisional* genesis-anchored ledger shard and ships home
  ``(actions, rewards, propensities, context digests, provisional
  head)``.  The provisional head doubles as a payload checksum: the
  coordinator re-chains the shipped digests
  (:func:`~repro.audit.shards.chain_digests`) and rejects any payload
  that does not recompute — in-transit corruption is indistinguishable
  from a failed worker and triggers the same re-derivation.  Accepted
  payloads are spliced in ordinal order
  (:func:`~repro.audit.shards.splice_payloads`) into ONE ledger whose
  entries and head are bit-identical to a serial harvest.
- **Sealing is optional.**  An unsealed job (``HarvestJob(sealed=
  False)``, a plain ``repro harvest``) runs the same plan, streams,
  pool fan-out and retries, but builds no ledger: its payloads carry
  only the sampled columns, are checked for geometry (``start``,
  ``n``, column lengths) instead of re-chained, and are concatenated
  without a splice.  Its rows equal the sealed job's rows exactly.
- **Resumable by construction.**  Worker loss (crash, SIGKILL,
  ``BrokenProcessPool``) costs exactly the unfinished shards: the pool
  is reset and only those shards are re-derived.  A shard that keeps
  failing past ``max_retries`` is harvested locally in the parent —
  bit-identical, guaranteed to terminate.

Observability: the run is covered by a ``harvest.sharded`` span with
per-shard worker spans grafted across the pool (the
:mod:`repro.core.pool` pattern), plus ``harvest.shards_completed`` /
``harvest.shards_retried`` counters and a ``harvest.shard_seconds``
histogram.  :meth:`ShardedHarvest.manifest_entry` records the shard
map (per-shard ``prev``/``head`` boundary hashes) next to the spliced
head, which is what ``repro verify-ledger`` uses to verify each shard
in isolation later.
"""

from __future__ import annotations

import importlib
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.audit.ledger import GENESIS, DecisionLedger
from repro.audit.shards import ShardPlan, ShardSpec, chain_digests, splice_payloads
from repro.audit.streams import StreamKey, StreamRegistry, StreamRNG
from repro.core import pool as worker_pool
from repro.core.columns import DatasetColumns, EligibleSpec, is_per_row_eligibility
from repro.core.harvest import DEFAULT_BATCH_SIZE, RewardFn, harvest_columns
from repro.core.pool import BrokenProcessPool
from repro.core.types import ActionSpace, RewardRange
from repro.obs.metrics import get_metrics
from repro.obs.monitors import MonitorSuite, get_monitors, use_monitors
from repro.obs.profiler import SpanProfiler, get_profiler
from repro.obs.tracing import Tracer, get_tracer, use_tracer

__all__ = [
    "SCENARIO_BUILDERS",
    "HarvestCoordinator",
    "HarvestInputs",
    "HarvestJob",
    "ShardPayloadError",
    "ShardedHarvest",
    "build_inputs",
    "synthetic_shard_inputs",
]

#: Dotted ``module:function`` builder per scenario.  Resolved lazily so
#: the core layer never imports scenario packages at module load — the
#: registry is data, the import happens inside :func:`build_inputs`.
SCENARIO_BUILDERS = {
    "machinehealth": "repro.machinehealth.dataset:exploration_shard_inputs",
    "loadbalance": "repro.loadbalance.harvest:exploration_shard_inputs",
    "cache": "repro.cache.harvest:exploration_shard_inputs",
    "synthetic": "repro.core.coordinator:synthetic_shard_inputs",
}


class ShardPayloadError(RuntimeError):
    """A returned shard payload failed its integrity re-chaining."""


@dataclass(frozen=True)
class HarvestJob:
    """The complete, picklable description of one sharded harvest.

    This is the *entire* state a worker needs: scenario name, row
    count, master seed, shard size, the logging policy, the scenario
    config dict, and whether to seal the decisions into a ledger.
    Everything else — contexts, reward law, generators, ledger shards
    — is re-derived deterministically from these on the worker side,
    which is what makes shards re-derivable after a crash without any
    state transfer.
    """

    scenario: str
    rows: int
    master_seed: int
    policy: Any
    shard_size: int = DEFAULT_BATCH_SIZE
    batch_size: int = DEFAULT_BATCH_SIZE
    config: Mapping = field(default_factory=dict)
    #: Chain every decision into a :class:`DecisionLedger` (``repro
    #: harvest --ledger``).  The sampled rows do not depend on it.
    sealed: bool = True
    #: Override the scenario's registered builder (dotted
    #: ``module:function``); tests and external scenarios hook in here.
    builder: Optional[str] = None

    def __post_init__(self) -> None:
        if self.rows < 0:
            raise ValueError(f"rows must be >= 0, got {self.rows}")
        if self.shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {self.shard_size}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")

    def stream_key(self) -> StreamKey:
        """The decision stream all shards of this job draw from."""
        return StreamKey(self.scenario, "harvest", "decisions")


@dataclass
class HarvestInputs:
    """Deterministic harvest inputs, shared by serial and sharded runs.

    A scenario builder turns a :class:`HarvestJob` into these —
    contexts, a *global-row-indexed* reward function, eligibility, and
    metadata.  Determinism contract: the same job must produce
    bit-identical inputs in every process (builders may only draw
    randomness from the job's config seed or from streams derived off
    the registry they are given), because workers rebuild them
    independently and the splice assumes every shard saw the same
    rows.
    """

    contexts: tuple
    reward_fn: RewardFn
    eligible: Optional[EligibleSpec] = None
    action_space: Optional[ActionSpace] = None
    reward_range: Optional[RewardRange] = None
    timestamps: Optional[np.ndarray] = None
    #: Facts about the build a builder reports on the ``scenario.build``
    #: span (e.g. machine health's ``distinct_contexts``).
    trace_attributes: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.contexts = tuple(self.contexts)

    @property
    def n(self) -> int:
        """Harvestable rows (may differ from ``job.rows`` — e.g. the
        cache scenario harvests one row per *eviction*, not per
        request)."""
        return len(self.contexts)

    def eligible_slice(self, start: int, stop: int) -> Optional[EligibleSpec]:
        """Eligibility restricted to rows ``[start, stop)``."""
        if self.eligible is None:
            return None
        if is_per_row_eligibility(self.eligible):
            return self.eligible[start:stop]
        return self.eligible


def build_inputs(job: HarvestJob, registry: StreamRegistry) -> HarvestInputs:
    """Resolve and run the scenario builder for ``job``.

    ``registry`` is the stream authority the builder must use for any
    randomness beyond the scenario's own config seed (e.g. the
    loadbalance latency noise) so all derivations land in the
    provenance log.  The build runs under a ``scenario.build`` span
    tagged with ``scenario``, the requested ``rows`` and the builder's
    :attr:`HarvestInputs.trace_attributes`.
    """
    path = job.builder or SCENARIO_BUILDERS.get(job.scenario)
    if path is None:
        raise ValueError(
            f"no shard-input builder registered for scenario "
            f"{job.scenario!r} (known: {sorted(SCENARIO_BUILDERS)})"
        )
    module_name, _, function_name = path.partition(":")
    if not function_name:
        raise ValueError(f"builder {path!r} is not module:function")
    builder = getattr(importlib.import_module(module_name), function_name)
    with get_tracer().span(
        "scenario.build", scenario=job.scenario, rows=job.rows
    ) as span:
        inputs = builder(job, registry)
        span.set(**inputs.trace_attributes)
    return inputs


def synthetic_shard_inputs(
    job: HarvestJob, registry: StreamRegistry
) -> HarvestInputs:
    """A dependency-free scenario for tests and benchmarks.

    Contexts carry the global row index (``i``) plus two derived
    features; rewards are a fixed arithmetic law of ``(row, action)``.
    Nothing draws randomness, so inputs are trivially process-
    independent — the coordinator machinery is exercised in isolation.
    """
    n_actions = int(job.config.get("n_actions", 4))
    if n_actions <= 0:
        raise ValueError(f"n_actions must be positive, got {n_actions}")
    rows = np.arange(job.rows, dtype=np.float64)
    contexts = tuple(
        {
            "i": float(i),
            "phase": float((i * 31) % 17) / 17.0,
            "load": float((i * 7) % 13) / 13.0,
        }
        for i in range(job.rows)
    )

    def reward_fn(indices: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return ((indices * 31 + actions * 17) % 97) / 96.0

    return HarvestInputs(
        contexts=contexts,
        reward_fn=reward_fn,
        eligible=tuple(range(n_actions)),
        reward_range=None,
        timestamps=rows,
    )


# -- worker side --------------------------------------------------------------

#: Worker-side cache of built inputs, keyed by job key.  Deliberately
#: tiny: a worker serves one harvest job at a time; keeping the last
#: two tolerates back-to-back jobs without unbounded growth.
_INPUTS_CACHE: dict = {}
_INPUTS_CACHE_SIZE = 2


def _worker_inputs(job_key: str, job: HarvestJob):
    """``(inputs, registry)`` for ``job``, built once per worker."""
    cached = _INPUTS_CACHE.get(job_key)
    if cached is None:
        while len(_INPUTS_CACHE) >= _INPUTS_CACHE_SIZE:
            _INPUTS_CACHE.pop(next(iter(_INPUTS_CACHE)))
        registry = StreamRegistry(job.master_seed)
        cached = (build_inputs(job, registry), registry)
        _INPUTS_CACHE[job_key] = cached
    return cached


def _harvest_shard_impl(
    job: HarvestJob,
    inputs: HarvestInputs,
    registry: StreamRegistry,
    spec: ShardSpec,
    genesis: str = GENESIS,
) -> dict:
    """Harvest one shard; return its payload (provisionally sealed).

    The shard's stream derives at ``spec.start`` and its ledger is
    anchored at ``genesis`` — workers use the provisional zero anchor
    (they cannot know the true predecessor head), so only the ``prev``
    linkage differs from the final spliced chain; the digests (and the
    sampled decisions) are exactly what the serial harvest produces.
    The in-process path passes the *true* predecessor head instead, so
    its sealed entries can be adopted by the splice without re-hashing
    the chain a second time.  An unsealed job builds no ledger and its
    payload carries no chain fields.
    """
    key = job.stream_key()
    rng = StreamRNG(
        registry, key, shard_size=job.shard_size, start_ordinal=spec.start
    )
    ledger = None
    if job.sealed:
        ledger = DecisionLedger(
            key,
            shard_size=job.shard_size,
            genesis=genesis,
            start_ordinal=spec.start,
            master_fingerprint=registry.master_fingerprint,
        )

    def shard_reward_fn(indices: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return inputs.reward_fn(indices + spec.start, actions)

    columns = harvest_columns(
        job.policy,
        inputs.contexts[spec.start : spec.stop],
        shard_reward_fn,
        rng,
        eligible=inputs.eligible_slice(spec.start, spec.stop),
        action_space=inputs.action_space,
        batch_size=job.batch_size,
        reward_range=inputs.reward_range,
        scenario=job.scenario,
        ledger=ledger,
    )
    payload = {
        "start": spec.start,
        "n": spec.n,
        "actions": columns.actions,
        "rewards": columns.rewards,
        "propensities": columns.propensities,
        "derivations": registry.derivations(),
        "span": None,
        "seconds": 0.0,
    }
    if ledger is not None:
        sealed = ledger.sealed()
        payload.update(
            context_shas=sealed.context_shas,
            genesis=genesis,
            head=ledger.head,
            sealed=sealed,
        )
    return payload


def _shard_worker(payload: tuple) -> dict:
    """Pool entry point: harvest one shard in a worker process.

    The job blob is unpickled once per worker (:func:`~repro.core.pool.
    job_payload`) and the scenario inputs are rebuilt once per worker
    (:func:`_worker_inputs`); each subsequent shard of the same job
    pays only the harvest itself.  Traced tasks open a fresh
    :class:`~repro.obs.tracing.Tracer` and ship the span dict home;
    monitored tasks likewise run under a fresh
    :class:`~repro.obs.monitors.MonitorSuite` (states shipped home for
    the coordinator to merge), and profiled tasks under a fresh
    :class:`~repro.obs.profiler.SpanProfiler` (flame tables shipped
    home) — nothing accumulates in worker globals between tasks.
    """
    job_key, blob, index, start, stop, traced, monitored, profiled = payload
    job: HarvestJob = worker_pool.job_payload(job_key, blob)
    inputs, registry = _worker_inputs(job_key, job)
    spec = ShardSpec(index=index, start=start, stop=stop)
    suite = MonitorSuite() if monitored else None
    profiler = SpanProfiler() if profiled else None
    clock = time.perf_counter()

    def harvest() -> dict:
        if suite is not None:
            with use_monitors(suite):
                return _harvest_shard_impl(job, inputs, registry, spec)
        return _harvest_shard_impl(job, inputs, registry, spec)

    if profiler is not None:
        profiler.start()
    try:
        if traced:
            tracer = Tracer()
            with use_tracer(tracer):
                with tracer.span(
                    "harvest.shard",
                    index=index,
                    start=start,
                    rows=stop - start,
                    worker=True,
                ):
                    result = harvest()
            result["span"] = tracer.span_tree()[0]
        else:
            result = harvest()
    finally:
        if profiler is not None:
            profiler.stop()
    if suite is not None:
        result["monitor_states"] = suite.states()
    if profiler is not None:
        result["profile"] = profiler.to_dict()
    result["seconds"] = time.perf_counter() - clock
    # Sealed rows never leave the worker: the coordinator must re-chain
    # remote payloads from the shipped digests anyway (the head doubles
    # as the transport checksum), so shipping them would be pickle
    # weight that could only tempt an unverified adoption.
    result.pop("sealed", None)
    return result


# -- coordinator --------------------------------------------------------------


@dataclass
class ShardedHarvest:
    """The result of one coordinated harvest: columns + spliced chain.

    ``ledger`` is ``None`` (and ``shard_map`` empty) for an unsealed
    job; the chain accessors below are for sealed harvests only.
    """

    columns: DatasetColumns
    ledger: Optional[DecisionLedger]
    registry: StreamRegistry
    plan: ShardPlan
    shard_map: list
    workers: int
    retries: int

    @property
    def head(self) -> str:
        """The spliced chain head (bit-identical to a serial harvest)."""
        return self.ledger.head

    @property
    def stream(self) -> str:
        """The decision stream name of the spliced ledger."""
        return self.ledger.stream

    def annotate(self, dataset) -> None:
        """Embed the spliced ledger metadata into ``dataset`` rows."""
        self.ledger.annotate(dataset)

    def entries(self):
        """The spliced ledger's sealed entries, in ordinal order."""
        return self.ledger.entries()

    def manifest_entry(self) -> dict:
        """Ledger manifest section, extended with the shard map.

        Duck-compatible with ``DecisionLedger.manifest_entry`` so
        :meth:`repro.obs.manifest.RunManifest.build` accepts a
        ``ShardedHarvest`` directly as its ``ledger``.
        """
        entry = self.ledger.manifest_entry()
        entry["workers"] = self.workers
        entry["plan"] = self.plan.to_dict()
        entry["shards"] = [dict(shard) for shard in self.shard_map]
        return entry


class HarvestCoordinator:
    """Fan a :class:`HarvestJob` over the pool; splice one verified chain
    when the job is sealed.

    ``workers=1`` runs the shards sequentially in-process (same plan,
    same provisional-seal-then-splice path, no pool); ``workers>=2``
    submits shards to the persistent pool.  Either way the output is
    bit-identical to a serial harvest of the same job — the invariant
    the integration suite pins per scenario and worker count.

    ``max_retries`` bounds how often one shard may fail (worker crash,
    payload corruption, worker exception) before the coordinator
    harvests it locally in the parent process instead.
    """

    def __init__(
        self,
        job: HarvestJob,
        workers: int = 1,
        max_retries: int = 2,
        inputs: Optional[HarvestInputs] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.job = job
        self.workers = int(workers)
        self.max_retries = int(max_retries)
        self._inputs = inputs
        #: Per-shard failed-attempt counts of the most recent run.
        self.attempts: dict[int, int] = {}

    # -- hooks ---------------------------------------------------------------

    def _receive(self, spec: ShardSpec, payload: dict) -> dict:
        """Payload ingress hook (chaos tests corrupt payloads here)."""
        return payload

    # -- pieces --------------------------------------------------------------

    def _validate_payload(self, spec: ShardSpec, payload: dict) -> None:
        """Check a returned payload's geometry and, when sealed, re-chain
        it; raise :class:`ShardPayloadError` when either fails."""
        if int(payload["start"]) != spec.start or int(payload["n"]) != spec.n:
            raise ShardPayloadError(
                f"shard {spec.index} payload covers rows "
                f"[{payload['start']}, {payload['start'] + payload['n']}), "
                f"expected [{spec.start}, {spec.stop})"
            )
        names = ("actions", "rewards", "propensities")
        if self.job.sealed:
            names += ("context_shas",)
        for name in names:
            if len(payload[name]) != spec.n:
                raise ShardPayloadError(
                    f"shard {spec.index} payload carries "
                    f"{len(payload[name])} {name} for {spec.n} rows"
                )
        if not self.job.sealed:
            return
        head = chain_digests(
            self.job.stream_key(),
            payload["context_shas"],
            payload["actions"],
            payload["propensities"],
            genesis=str(payload.get("genesis", GENESIS)),
            start_ordinal=spec.start,
        )
        if head != payload["head"]:
            raise ShardPayloadError(
                f"shard {spec.index} payload failed integrity re-chaining: "
                f"recomputed head {head[:12]}… != shipped "
                f"{str(payload['head'])[:12]}…"
            )

    def _harvest_local(
        self,
        spec: ShardSpec,
        inputs: HarvestInputs,
        registry: StreamRegistry,
        tracer,
        genesis: str = GENESIS,
    ) -> dict:
        """Harvest one shard in this process (serial path + last resort)."""
        clock = time.perf_counter()
        with tracer.span(
            "harvest.shard", index=spec.index, start=spec.start, rows=spec.n
        ):
            payload = _harvest_shard_impl(
                self.job, inputs, registry, spec, genesis=genesis
            )
        payload["seconds"] = time.perf_counter() - clock
        return payload

    def _accept(
        self, spec: ShardSpec, payload: dict, tracer, metrics, remote: bool = False
    ) -> dict:
        """Bookkeeping for an accepted shard payload."""
        if payload.get("span") is not None:
            tracer.attach(payload["span"])
        monitors = get_monitors()
        if remote:
            # Pool-path rows are generated in workers whose metrics are
            # no-ops; count them here so serial and sharded runs report
            # the same totals (local shards count inside harvest_columns).
            metrics.counter(
                "harvest.rows_generated", scenario=self.job.scenario
            ).inc(int(payload["n"]))
            # Worker-side monitor states and flame tables merge here,
            # exactly like the span dict above.
            monitors.absorb(payload.get("monitor_states"))
            get_profiler().absorb(payload.get("profile"))
        monitors.observe_shards(completed=1)
        metrics.counter(
            "harvest.shards_completed", scenario=self.job.scenario
        ).inc()
        metrics.histogram(
            "harvest.shard_seconds", scenario=self.job.scenario
        ).observe(float(payload.get("seconds", 0.0)))
        payload["retries"] = self.attempts.get(spec.index, 0)
        return payload

    # -- run -----------------------------------------------------------------

    def run(self) -> ShardedHarvest:
        """Execute the plan and return the spliced harvest."""
        job = self.job
        tracer = get_tracer()
        metrics = get_metrics()
        registry = StreamRegistry(job.master_seed)
        inputs = self._inputs or build_inputs(job, registry)
        plan = ShardPlan(inputs.n, job.shard_size)
        self.attempts = {spec.index: 0 for spec in plan}
        with tracer.span(
            "harvest.sharded",
            scenario=job.scenario,
            workers=self.workers,
            shards=len(plan),
            shard_size=job.shard_size,
        ) as span:
            if self.workers == 1 or len(plan) <= 1:
                payloads = self._run_in_process(plan, inputs, registry, tracer, metrics)
            else:
                payloads = self._run_pool(plan, inputs, registry, tracer, metrics)
            result = self._assemble(plan, inputs, registry, payloads)
            span.set(rows=inputs.n, retries=result.retries)
            if result.ledger is not None:
                span.set(head=result.head)
        return result

    def _run_in_process(
        self, plan, inputs, registry, tracer, metrics
    ) -> dict:
        # Shards run in ordinal order, so each one can be anchored at
        # the true predecessor head — its provisional chain IS the
        # final chain, and the splice adopts the sealed entries instead
        # of re-hashing every row a second time (the overhead budget
        # gated by ``benchmarks/perf``: workers=1 must hold ≥0.9x
        # serial throughput).
        payloads: dict[int, dict] = {}
        prev = GENESIS
        for spec in plan:
            payload = self._harvest_local(
                spec, inputs, registry, tracer, genesis=prev
            )
            prev = payload.get("head", GENESIS)
            payloads[spec.index] = self._accept(spec, payload, tracer, metrics)
        return payloads

    def _run_pool(self, plan, inputs, registry, tracer, metrics) -> dict:
        job = self.job
        try:
            job_key, blob = worker_pool.new_job(job)
        except Exception as error:
            warnings.warn(
                "sharded harvest falling back to in-process shards: job "
                f"is not picklable ({error})",
                RuntimeWarning,
                stacklevel=3,
            )
            return self._run_in_process(plan, inputs, registry, tracer, metrics)
        payloads: dict[int, dict] = {}
        pending = list(plan)
        while pending:
            executor = worker_pool.get_pool(self.workers)
            futures = []
            unsubmitted: list[ShardSpec] = []
            for position, spec in enumerate(pending):
                try:
                    future = executor.submit(
                        _shard_worker,
                        (
                            job_key,
                            blob,
                            spec.index,
                            spec.start,
                            spec.stop,
                            tracer.enabled,
                            get_monitors().enabled,
                            get_profiler().enabled,
                        ),
                    )
                except BrokenProcessPool:
                    # A worker died while shards were still being
                    # submitted: the rest never reached the pool.
                    unsubmitted = pending[position:]
                    break
                futures.append((spec, future))
            crashed = bool(unsubmitted)
            failed: list[ShardSpec] = []
            for spec, future in futures:
                try:
                    payload = self._receive(spec, future.result())
                    self._validate_payload(spec, payload)
                except BrokenProcessPool:
                    crashed = True
                    failed.append(spec)
                    continue
                except ShardPayloadError as error:
                    warnings.warn(
                        f"re-deriving shard {spec.index}: {error}",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    failed.append(spec)
                    continue
                except Exception as error:
                    warnings.warn(
                        f"re-deriving shard {spec.index}: worker raised "
                        f"{type(error).__name__}: {error}",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    failed.append(spec)
                    continue
                registry.absorb(payload.get("derivations", ()))
                payloads[spec.index] = self._accept(
                    spec, payload, tracer, metrics, remote=True
                )
            failed += unsubmitted
            if crashed:
                worker_pool.reset_pool()
                warnings.warn(
                    "worker pool died mid-harvest; re-deriving only the "
                    "missing shard(s) (results are unaffected)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            pending = []
            monitors = get_monitors()
            for spec in failed:
                self.attempts[spec.index] += 1
                metrics.counter(
                    "harvest.shards_retried", scenario=job.scenario
                ).inc()
                monitors.observe_shards(retried=1)
                if self.attempts[spec.index] > self.max_retries:
                    monitors.observe_shards(fallback=1)
                    payload = self._harvest_local(spec, inputs, registry, tracer)
                    payloads[spec.index] = self._accept(
                        spec, payload, tracer, metrics
                    )
                else:
                    pending.append(spec)
        return payloads

    def _assemble(self, plan, inputs, registry, payloads) -> ShardedHarvest:
        job = self.job
        ordered = [payloads[spec.index] for spec in plan]
        ledger, shard_map = None, []
        if job.sealed:
            ledger, shard_map = splice_payloads(
                job.stream_key(),
                ordered,
                shard_size=job.shard_size,
                master_fingerprint=registry.master_fingerprint,
            )
        n = inputs.n
        actions = np.empty(n, dtype=np.int64)
        rewards = np.empty(n, dtype=np.float64)
        propensities = np.empty(n, dtype=np.float64)
        for spec, payload in zip(plan, ordered):
            actions[spec.start : spec.stop] = payload["actions"]
            rewards[spec.start : spec.stop] = payload["rewards"]
            propensities[spec.start : spec.stop] = payload["propensities"]
        # Record the decision-stream derivations the shards consumed
        # (workers hold their own registries; their logs were absorbed
        # for pool runs, and local runs recorded directly).
        columns = DatasetColumns.from_arrays(
            inputs.contexts,
            actions,
            rewards,
            propensities,
            eligible=inputs.eligible,
            n_actions=None,
            action_space=inputs.action_space,
            reward_range=inputs.reward_range,
            timestamps=inputs.timestamps,
        )
        return ShardedHarvest(
            columns=columns,
            ledger=ledger,
            registry=registry,
            plan=plan,
            shard_map=shard_map,
            workers=self.workers,
            retries=sum(self.attempts.values()),
        )
