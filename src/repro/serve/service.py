"""The synchronous decision core of the online policy service.

:class:`DecisionService` is everything the server does *between*
sockets: it owns the scenario inputs, the audit stream, the hash
chain, the policy registry, and the shadow/canary state, and exposes
one hot method — :meth:`DecisionService.decide` — that turns "give me
``k`` decisions" into sampled ``⟨x, a, r, p⟩`` tuples at harvest-engine
speed.  Keeping it synchronous and transport-free is what makes the
whole loop testable: the asyncio batcher and TCP server
(:mod:`repro.serve.batcher`, :mod:`repro.serve.server`) are thin
layers over this object, and the chaos suite drives it directly.

Serving reuses the batch-harvest machinery wholesale: contexts come
from a scenario-built pool (:func:`repro.core.coordinator.build_inputs`)
cycled by ledger ordinal, randomness from a shard-aligned
:class:`~repro.audit.streams.StreamRNG` (stream key
``<scenario>/serve/decisions``), actions from the incumbent's
vectorized ``act_batch``, rewards from the scenario's reward law at
decision time, and every decision lands in a
:class:`~repro.audit.ledger.DecisionLedger` in O(1) per batch.  The
consequence — deliberate, and pinned by tests — is that a service log
is *indistinguishable* from a batch-harvested log: same record bytes,
same chain discipline, same ``Dataset.load_jsonl`` ingestion.

Swap atomicity: :meth:`decide` snapshots the incumbent
:class:`~repro.serve.registry.PolicyVersion` exactly once at entry, so
every decision in a slice is attributable to one version even if a
hot-swap lands mid-call; the registry swap itself is a single
attribute assignment (see ``docs/adr-0003-online-serving.md``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.audit.ledger import DecisionLedger, StreamingLedgerWriter
from repro.audit.streams import StreamKey, StreamRegistry, StreamRNG
from repro.core.columns import DecisionBatch
from repro.core.coordinator import HarvestJob, build_inputs
from repro.core.harvest import DEFAULT_BATCH_SIZE, _resolve_eligibility
from repro.core.policies import MixturePolicy, Policy
from repro.obs.metrics import get_metrics
from repro.obs.monitors import get_monitors
from repro.serve.gate import GateConfig, GateDecision, GateRunner
from repro.serve.registry import PolicyRegistry, PolicyVersion

__all__ = ["DecisionService", "DecisionSlice", "ShadowReport"]


@dataclass(frozen=True)
class DecisionSlice:
    """The decisions answering one :meth:`DecisionService.decide` call.

    Arrays are aligned: position ``i`` is ledger ordinal
    ``ordinals[i]``, served from pool row ``rows[i]`` by policy
    version ``version`` (the incumbent snapshot the whole slice was
    sampled under — the attribution the chaos suite checks against the
    ledger).
    """

    ordinals: np.ndarray
    rows: np.ndarray
    actions: np.ndarray
    propensities: np.ndarray
    rewards: np.ndarray
    version: int
    policy_name: str

    @property
    def n(self) -> int:
        """Decisions in the slice."""
        return len(self.actions)

    def view(self, start: int, stop: int) -> "DecisionSlice":
        """A zero-copy sub-slice (the batcher's per-request carve)."""
        return DecisionSlice(
            ordinals=self.ordinals[start:stop],
            rows=self.rows[start:stop],
            actions=self.actions[start:stop],
            propensities=self.propensities[start:stop],
            rewards=self.rewards[start:stop],
            version=self.version,
            policy_name=self.policy_name,
        )

    def to_dicts(self) -> list[dict]:
        """JSON-able per-decision records (the wire response form)."""
        return [
            {
                "ordinal": int(self.ordinals[i]),
                "action": int(self.actions[i]),
                "propensity": float(self.propensities[i]),
                "reward": float(self.rewards[i]),
                "policy_version": self.version,
                "policy_name": self.policy_name,
            }
            for i in range(self.n)
        ]


class ShadowReport:
    """Streaming would-have-done stats for one shadowed candidate.

    Shadow mode never perturbs the serving stream: the candidate
    samples from its *own* derived stream
    (``<scenario>/serve/shadow-<name>``) at the same pool rows the
    incumbent served, and only aggregates survive — decisions served
    to clients and the persisted log stay 100% incumbent.
    """

    def __init__(self, name: str, version: int, stream: StreamRNG) -> None:
        self.name = name
        self.version = version
        self.stream = stream
        #: The service ordinal shadowing began at (re-derivation anchor).
        self.start_ordinal = 0
        self.n = 0
        self.agreements = 0
        self.propensity_sum = 0.0

    def observe(
        self, candidate_actions: np.ndarray, candidate_props: np.ndarray,
        served_actions: np.ndarray,
    ) -> None:
        """Fold one slice of paired (candidate, incumbent) decisions."""
        self.n += len(candidate_actions)
        self.agreements += int(
            np.count_nonzero(candidate_actions == served_actions)
        )
        self.propensity_sum += float(candidate_props.sum())

    def summary(self) -> dict:
        """JSON-able snapshot for stats responses and the manifest."""
        return {
            "name": self.name,
            "version": self.version,
            "start_ordinal": self.start_ordinal,
            "n": self.n,
            "agreement_rate": (
                self.agreements / self.n if self.n else None
            ),
            "mean_propensity": (
                self.propensity_sum / self.n if self.n else None
            ),
        }


class DecisionService:
    """Scenario-backed decision core: act, log, shadow, gate, swap.

    One instance serves one scenario from one master seed.  The
    context *pool* (``pool_rows`` scenario-built contexts) is cycled
    by ledger ordinal — decision ``t`` serves pool row ``t mod n`` —
    while every decision stays re-derivable from ``(master_seed,
    stream key, ordinal)``.  A logged service (a new or empty
    ``log_path``) keeps only unflushed decisions and the chain head,
    so it runs indefinitely with bounded memory; an unlogged one keeps
    every decision in its ledger.  All mutating entry points run on
    one thread (the asyncio loop in production, the test body in
    tests); nothing here locks.
    """

    def __init__(
        self,
        scenario: str,
        policy: Policy,
        *,
        policy_name: str = "incumbent",
        pool_rows: int = DEFAULT_BATCH_SIZE,
        seed: int = 0,
        shard_size: int = DEFAULT_BATCH_SIZE,
        log_path: Optional[str] = None,
        config: Optional[dict] = None,
    ) -> None:
        if log_path and os.path.isfile(log_path) and os.path.getsize(log_path):
            raise ValueError(
                f"{log_path} is not empty: resuming a decision log is not "
                "supported yet (write to a new file)"
            )
        self.scenario = scenario
        self.seed = int(seed)
        self.shard_size = int(shard_size)
        self.job = HarvestJob(
            scenario=scenario,
            rows=int(pool_rows),
            master_seed=self.seed,
            policy=policy,
            shard_size=self.shard_size,
            config=dict(config or {}),
        )
        self.streams = StreamRegistry(self.seed)
        self.inputs = build_inputs(self.job, self.streams)
        if self.inputs.n <= 0:
            raise ValueError(
                f"scenario {scenario!r} built an empty context pool"
            )
        # Each pool row's id into the pool's distinct contexts.
        self._pool_ids = self.inputs.context_ids
        self._eligible, self._n_actions = _resolve_eligibility(
            self.inputs.contexts, self.inputs.eligible,
            self.inputs.action_space, self.inputs.context_ids,
        )
        key = StreamKey(scenario, "serve", "decisions")
        self.stream = StreamRNG(self.streams, key, shard_size=self.shard_size)
        self.ledger = DecisionLedger(
            key,
            shard_size=self.shard_size,
            master_fingerprint=self.streams.master_fingerprint,
        )
        # The pool bounds its distinct contexts, so the ledger's table
        # keeps them all: no flush digests or encodes a context twice.
        table = self.ledger.contexts
        table.cap = max(table.cap, len(self.inputs.contexts))
        self.policies = PolicyRegistry(policy, policy_name)
        self.served = 0
        self.errors = 0
        self.dropped = 0
        self._writer = (
            StreamingLedgerWriter(self.ledger, log_path) if log_path else None
        )
        #: Decided but unflushed slices, as ``(pool context ids,
        #: actions, rewards, propensities, ordinals)`` columns.
        self._pending: list[tuple] = []
        self._shadows: dict[str, ShadowReport] = {}
        self._canary: Optional[dict] = None
        self._gate: Optional[GateRunner] = None
        #: Completed gate decisions, oldest first (manifest material).
        self.gate_decisions: list[GateDecision] = []
        self._metrics = get_metrics()
        self._latency = self._metrics.histogram(
            "serve.decide_seconds", scenario=scenario
        )

    # -- the hot path ---------------------------------------------------------

    def _sample(
        self, policy: Policy, stream: StreamRNG, start: int, stop: int,
        rows: np.ndarray, ids: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``[start, stop)`` of ``stream`` with ``policy``.

        ``rows`` are the decisions' pool rows and ``ids`` their pool
        context ids.  Splits at shard boundaries exactly like the
        harvest engine (:func:`repro.core.harvest.batch_segments`
        semantics), so the served stream is bit-identical for any
        request batching.
        """
        n = stop - start
        actions = np.empty(n, dtype=np.int64)
        props = np.empty(n, dtype=np.float64)
        for seg_start, seg_stop, generator in stream.segments(start, stop):
            segment = slice(seg_start - start, seg_stop - start)
            batch = DecisionBatch(
                self.inputs.contexts,
                self._eligible.take(rows[segment]),
                n_actions=self._n_actions,
                context_ids=ids[segment],
            )
            sampled, sampled_props = policy.act_batch(batch, None, generator)
            actions[segment] = sampled
            props[segment] = sampled_props
        return actions, props

    def decide(self, k: int) -> DecisionSlice:
        """Serve the next ``k`` decisions under the current incumbent.

        The slice occupies ledger ordinals ``[served, served + k)``.
        The incumbent is snapshotted once at entry — the atomicity
        point a concurrent hot-swap pivots around.  Per-batch cost is
        the harvest engine's: one vectorized ``act_batch`` per stream
        segment, one vectorized reward lookup, O(1) ledger
        bookkeeping.
        """
        if k <= 0:
            raise ValueError(f"decide needs a positive count, got {k}")
        began = time.perf_counter()
        incumbent = self.policies.incumbent  # the atomic snapshot
        start, stop = self.served, self.served + k
        ordinals = np.arange(start, stop, dtype=np.int64)
        rows = ordinals % self.inputs.n
        ids = self._pool_ids[rows]
        actions, props = self._sample(
            incumbent.policy, self.stream, start, stop, rows, ids
        )
        rewards = np.asarray(
            self.inputs.reward_fn(rows, actions), dtype=np.float64
        )
        self.ledger.extend_batch(self.inputs.contexts, actions, props, ids)
        self.served = stop
        for shadow in self._shadows.values():
            cand_actions, cand_props = self._sample(
                self.policies.candidate(shadow.name).policy,
                shadow.stream, start, stop, rows, ids,
            )
            shadow.observe(cand_actions, cand_props, actions)
        slice_ = DecisionSlice(
            ordinals=ordinals,
            rows=rows,
            actions=actions,
            propensities=props,
            rewards=rewards,
            version=incumbent.version,
            policy_name=incumbent.name,
        )
        if self._writer is not None:
            self._pending.append((ids, actions, rewards, props, ordinals))
        elapsed = time.perf_counter() - began
        self._latency.observe(elapsed)
        monitors = get_monitors()
        if monitors.enabled:
            monitors.observe_propensities(props)
            monitors.observe_serve(
                served=k, errors=0, dropped=0,
                latency_sum=elapsed, latency_max=elapsed,
            )
        return slice_

    # -- persistence ----------------------------------------------------------

    @property
    def log_path(self) -> Optional[str]:
        """Where flushed decisions land (``None`` when not logging)."""
        return self._writer.path if self._writer is not None else None

    def flush(self) -> dict:
        """Seal and append every pending decision to the log.

        Returns ``{"written", "total", "head"}``.  After a flush the
        on-disk file is a verifiable chain prefix:
        ``verify_jsonl(path, expected_head=ledger.head)`` passes and
        ``Dataset.load_jsonl(path, verify_ledger="require")``
        round-trips the bytes.
        """
        if self._writer is None:
            raise RuntimeError("service has no log_path; nothing to flush")
        pending, self._pending = self._pending, []
        ids, actions, rewards, props, ordinals = (
            np.concatenate([entry[index] for entry in pending])
            if pending else np.empty(0, dtype=np.int64)
            for index in range(5)
        )
        self._writer.flush(
            self.inputs.contexts, ids, actions, rewards, props, ordinals
        )
        return {
            "written": len(actions),
            "total": len(self.ledger),
            "head": self.ledger.head,
        }

    def close(self) -> None:
        """Release the log handle and any in-flight gate process."""
        if self._gate is not None:
            self._gate.terminate()
            self._gate = None
        if self._writer is not None:
            self._writer.close()

    # -- candidate lifecycle --------------------------------------------------

    def register_candidate(self, name: str, policy: Policy) -> PolicyVersion:
        """Register a candidate (serves nothing until promoted)."""
        return self.policies.register(name, policy)

    def start_shadow(self, name: str) -> ShadowReport:
        """Shadow candidate ``name`` on every subsequent decision.

        The candidate draws from its own derived stream at the same
        pool rows, so shadowing is invisible to clients, to the
        incumbent's RNG stream, and to the persisted log.
        """
        version = self.policies.candidate(name)
        if name in self._shadows:
            raise ValueError(f"candidate {name!r} is already shadowed")
        # Anchored at ordinal 0 but consumed from the current ordinal
        # forward: re-deriving the shadow draws needs (master seed,
        # stream key, start ordinal), so the start lands in the report.
        stream = StreamRNG(
            self.streams,
            StreamKey(self.scenario, "serve", f"shadow-{name}"),
            shard_size=self.shard_size,
        )
        report = ShadowReport(name, version.version, stream)
        report.start_ordinal = self.served
        self._shadows[name] = report
        return report

    def stop_shadow(self, name: str) -> dict:
        """Stop shadowing ``name``; returns the final summary."""
        report = self._shadows.pop(name, None)
        if report is None:
            raise KeyError(f"candidate {name!r} is not shadowed")
        return report.summary()

    def shadow_summaries(self) -> list[dict]:
        """Current shadow snapshots (stats responses, manifest)."""
        return [report.summary() for report in self._shadows.values()]

    def start_canary(self, name: str, fraction: float) -> PolicyVersion:
        """Serve a propensity-tracked mixture slice for ``name``.

        Installs ``MixturePolicy([incumbent, candidate], [1-f, f])`` as
        the incumbent: each request routes to the candidate with
        probability ``fraction``, and — because the mixture's declared
        propensity is the true marginal — the resulting log slice is
        *correctly weighted* for every off-policy estimator.  That is
        the paper's §5 point: a canary is just more exploration data.
        """
        if self._canary is not None:
            raise RuntimeError(
                f"canary {self._canary['name']!r} is already running"
            )
        if not 0.0 < fraction < 1.0:
            raise ValueError(
                f"canary fraction must be in (0, 1), got {fraction}"
            )
        base = self.policies.incumbent
        candidate = self.policies.candidate(name)
        mixture = MixturePolicy(
            [base.policy, candidate.policy],
            [1.0 - fraction, fraction],
            name=f"canary-{name}",
        )
        installed = self.policies.install(
            f"canary-{name}", mixture, reason="canary"
        )
        self._canary = {
            "name": name,
            "fraction": float(fraction),
            "base": base,
            "version": installed.version,
            "start_ordinal": self.served,
        }
        return installed

    def stop_canary(self) -> dict:
        """End the canary; reinstate the pre-canary incumbent."""
        if self._canary is None:
            raise RuntimeError("no canary is running")
        canary, self._canary = self._canary, None
        base = canary["base"]
        self.policies.install(base.name, base.policy, reason="canary-stop")
        return {
            "name": canary["name"],
            "fraction": canary["fraction"],
            "version": canary["version"],
            "ordinals": [canary["start_ordinal"], self.served],
        }

    # -- the OPE gate ---------------------------------------------------------

    def start_gate(
        self, name: str, config: GateConfig = GateConfig()
    ) -> GateRunner:
        """Flush the log and launch the offline gate for ``name``.

        The evaluation runs in a subprocess (see
        :class:`repro.serve.gate.GateRunner`); serving continues at
        full speed while it reads the flushed log.  It reads exactly
        the bytes this flush made durable, so rows flushed while it
        runs are not folded.  Poll with :meth:`poll_gate`.
        """
        if self._gate is not None:
            raise RuntimeError(
                f"gate for {self._gate.candidate_name!r} is already running"
            )
        if self._writer is None:
            raise RuntimeError("the OPE gate needs a log_path to evaluate")
        candidate = self.policies.candidate(name)
        self.flush()
        self._gate = GateRunner(
            self._writer.path,
            name,
            candidate.policy,
            self.policies.incumbent.policy,
            config,
            prefix_bytes=self._writer.size,
        )
        return self._gate

    @property
    def gate(self) -> Optional[GateRunner]:
        """The in-flight gate evaluation, if any."""
        return self._gate

    def poll_gate(self) -> Optional[GateDecision]:
        """Check the gate; on a passing verdict, promote atomically.

        Returns ``None`` while the evaluation is still running.  A
        decision — pass, fail, or subprocess death — clears the gate
        and is appended to :attr:`gate_decisions`; on ``promote`` the
        candidate hot-swaps in (shadow state for it is dropped — it is
        the incumbent now).
        """
        if self._gate is None:
            return None
        decision = self._gate.poll()
        if decision is None:
            return None
        self._gate = None
        self.gate_decisions.append(decision)
        if decision.promote:
            name = decision.candidate
            if name in self._shadows:
                del self._shadows[name]
            self.policies.promote(name, reason="gate")
        return decision

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """JSON-able service state (the server's ``stats`` op)."""
        incumbent = self.policies.incumbent
        return {
            "scenario": self.scenario,
            "served": self.served,
            "errors": self.errors,
            "dropped": self.dropped,
            "pool_rows": self.inputs.n,
            "incumbent": incumbent.summary(),
            "candidates": sorted(self.policies.candidates()),
            "shadows": self.shadow_summaries(),
            "canary": (
                {
                    "name": self._canary["name"],
                    "fraction": self._canary["fraction"],
                }
                if self._canary is not None
                else None
            ),
            "gate": (
                {
                    "candidate": self._gate.candidate_name,
                    "pid": self._gate.pid,
                }
                if self._gate is not None
                else None
            ),
            "gates_decided": [d.to_dict() for d in self.gate_decisions],
            "ledger": {"n": len(self.ledger), "head": self.ledger.head},
            "history": list(self.policies.history),
        }

    def manifest_serving_section(self) -> dict:
        """The manifest's ``serving`` section for this service."""
        return {
            "scenario": self.scenario,
            "served": self.served,
            "pool_rows": self.inputs.n,
            "shard_size": self.shard_size,
            "log_path": self.log_path,
            "incumbent": self.policies.incumbent.summary(),
            "history": list(self.policies.history),
            "shadows": self.shadow_summaries(),
            "gates": [d.to_dict() for d in self.gate_decisions],
        }

    def __repr__(self) -> str:
        return (
            f"DecisionService(scenario={self.scenario!r}, "
            f"served={self.served}, "
            f"incumbent=v{self.policies.incumbent.version})"
        )
