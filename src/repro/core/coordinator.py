"""One-pass harvest coordination over the HKDF shard grid.

Every ``repro harvest`` is one :class:`HarvestCoordinator` run: the
scenario inputs are built once, then one
:func:`~repro.core.harvest.harvest_columns` pass samples every row
from one :class:`~repro.audit.streams.StreamRNG` and, for a sealed job,
chains every decision into one
:class:`~repro.audit.ledger.DecisionLedger`.  The shard grid is kept
for audit, not for execution:

- **Derivation grid.**  The stream derives one generator per
  ``shard_size`` rows (:class:`~repro.audit.shards.ShardPlan` and the
  stream share that grid), so any shard of the log re-derives in
  isolation from ``(master seed, stream key, start ordinal)``.
- **Shard map.**  A sealed run seals once and reads each shard's
  boundary hashes (``prev`` and ``head``) off the sealed rows at the
  plan's boundaries.  :meth:`ShardedHarvest.manifest_entry` records them next
  to the chain head, which is what ``repro verify-ledger --manifest``
  uses to verify each shard in isolation later.
- **Sealing is optional.**  An unsealed job (``HarvestJob(sealed=
  False)``, a plain ``repro harvest``) runs the same pass without a
  ledger; its rows equal the sealed job's rows exactly.

Observability: the run is covered by a ``harvest.sharded`` span
(``scenario``, ``shards``, ``shard_size``, ``rows`` and, sealed, the
chain ``head``) around the ``scenario.build`` of its inputs, the
``harvest.batched`` pass and the ``ledger.seal`` drain.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.audit.ledger import DecisionLedger, SealedRows
from repro.audit.shards import ShardPlan
from repro.audit.streams import StreamKey, StreamRegistry, StreamRNG
from repro.core.columns import (
    DatasetColumns,
    EligibleSpec,
    is_per_row_eligibility,
    row_context_ids,
)
from repro.core.harvest import DEFAULT_BATCH_SIZE, RewardFn, harvest_columns
from repro.core.types import ActionSpace, RewardRange
from repro.obs.tracing import get_tracer

__all__ = [
    "SCENARIO_BUILDERS",
    "HarvestCoordinator",
    "HarvestInputs",
    "HarvestJob",
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


@dataclass(frozen=True)
class HarvestJob:
    """The complete description of one harvest.

    Scenario name, row count, master seed, shard size, the logging
    policy, the scenario config dict, and whether to seal the
    decisions into a ledger.  Everything else — contexts, reward law,
    generators, the chain — is derived deterministically from these,
    which is what makes any shard of the log re-derivable in isolation.
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
        """The decision stream every row of this job draws from."""
        return StreamKey(self.scenario, "harvest", "decisions")


@dataclass
class HarvestInputs:
    """Deterministic harvest inputs of one job.

    A scenario builder turns a :class:`HarvestJob` into these —
    contexts, a *global-row-indexed* reward function, eligibility, and
    metadata.  ``contexts`` holds each distinct context once and
    ``context_ids`` names every row's (one int per row), which is what
    the harvest, the ledger and the log writer key on; a builder that
    gives no ids has one context per row.  Determinism contract: the
    same job must produce bit-identical inputs on every build (builders
    may only draw randomness from the job's config seed or from streams
    derived off the registry they are given), because re-deriving a
    shard in isolation rebuilds them and must see the rows the harvest
    saw.
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
    #: Row ``t``'s context is ``contexts[context_ids[t]]`` (given as
    #: ``None``: one row per context).
    context_ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.contexts = tuple(self.contexts)
        self.context_ids = row_context_ids(self.contexts, self.context_ids)

    @property
    def n(self) -> int:
        """Harvestable rows (may differ from ``job.rows`` — e.g. the
        cache scenario harvests one row per *eviction*, not per
        request)."""
        return len(self.context_ids)

    def eligible_slice(self, start: int, stop: int) -> Optional[EligibleSpec]:
        """Eligibility restricted to rows ``[start, stop)``."""
        if self.eligible is None:
            return None
        if is_per_row_eligibility(self.eligible):
            return self.eligible[start:stop]
        return self.eligible

    def context_slice(self, start: int, stop: int) -> tuple:
        """``(contexts, context_ids)`` of rows ``[start, stop)``, as
        :func:`~repro.core.harvest.harvest_columns` takes them."""
        return self.contexts, self.context_ids[start:stop]


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
    features, so every row's context is distinct (its id is its row);
    rewards are a fixed arithmetic law of ``(row, action)``.
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


# -- coordinator --------------------------------------------------------------


@dataclass
class ShardedHarvest:
    """The result of one coordinated harvest: columns + sealed chain.

    ``sealed`` holds the rows the ledger handed over; ``ledger`` and
    ``sealed`` are ``None`` (and ``shard_map`` empty) for an unsealed
    job; the chain accessors below are for sealed harvests only.
    """

    columns: DatasetColumns
    ledger: Optional[DecisionLedger]
    registry: StreamRegistry
    plan: ShardPlan
    shard_map: list
    sealed: Optional[SealedRows] = None

    @property
    def retries(self) -> int:
        """Shards harvested more than once: always 0 for one pass."""
        return 0

    @property
    def head(self) -> str:
        """The chain head."""
        return self.ledger.head

    @property
    def stream(self) -> str:
        """The decision stream name of the ledger."""
        return self.ledger.stream

    def annotate(self, dataset) -> None:
        """Embed the ledger metadata into ``dataset`` rows."""
        self.sealed.annotate(dataset)

    def manifest_entry(self) -> dict:
        """Ledger manifest section, extended with the shard map.

        Duck-compatible with ``DecisionLedger.manifest_entry`` so
        :meth:`repro.obs.manifest.RunManifest.build` accepts a
        ``ShardedHarvest`` directly as its ``ledger``.
        """
        entry = self.ledger.manifest_entry()
        entry["plan"] = self.plan.to_dict()
        entry["shards"] = [dict(shard) for shard in self.shard_map]
        return entry


def _shard_map(plan: ShardPlan, sealed: SealedRows) -> list:
    """Each shard's ``{index, start, n, prev, head}``, read off the chain."""
    hashes = sealed.hashes
    return [
        {
            "index": spec.index,
            "start": spec.start,
            "n": spec.n,
            "prev": hashes[spec.start - 1] if spec.start else sealed.prev,
            "head": hashes[spec.stop - 1],
        }
        for spec in plan
    ]


class HarvestCoordinator:
    """Run a :class:`HarvestJob` as one pass; seal one chain when the
    job is sealed.

    ``inputs`` are prebuilt :class:`HarvestInputs` for the job (built
    from the job's scenario builder when omitted).  The output is
    bit-identical to any isolated re-derivation of its shards — the
    invariant the integration suite pins per scenario.
    """

    def __init__(
        self, job: HarvestJob, inputs: Optional[HarvestInputs] = None
    ) -> None:
        self.job = job
        self._inputs = inputs

    def run(self) -> ShardedHarvest:
        """Harvest every row and return the columns and the chain."""
        job = self.job
        registry = StreamRegistry(job.master_seed)
        inputs = self._inputs or build_inputs(job, registry)
        plan = ShardPlan(inputs.n, job.shard_size)
        key = job.stream_key()
        ledger = None
        if job.sealed:
            ledger = DecisionLedger(
                key,
                shard_size=job.shard_size,
                master_fingerprint=registry.master_fingerprint,
            )
        with get_tracer().span(
            "harvest.sharded",
            scenario=job.scenario,
            shards=len(plan),
            shard_size=job.shard_size,
        ) as span:
            columns = harvest_columns(
                job.policy,
                inputs.contexts,
                inputs.reward_fn,
                StreamRNG(registry, key, shard_size=job.shard_size),
                eligible=inputs.eligible,
                action_space=inputs.action_space,
                batch_size=job.batch_size,
                reward_range=inputs.reward_range,
                scenario=job.scenario,
                timestamps=inputs.timestamps,
                ledger=ledger,
                context_ids=inputs.context_ids,
            )
            span.set(rows=inputs.n)
            sealed, shard_map = None, []
            if ledger is not None:
                sealed = ledger.seal()
                shard_map = _shard_map(plan, sealed)
                span.set(head=ledger.head)
        return ShardedHarvest(
            columns=columns,
            ledger=ledger,
            registry=registry,
            plan=plan,
            shard_map=shard_map,
            sealed=sealed,
        )
