"""Microbenchmarks for the off-policy evaluation engine.

Measures the columnar (vectorized) evaluation path against the per-row
scalar reference (``tests/oracles.py``) on the workload the engine was
built for: policy-class
search over a large exploration log (§4's "evaluate a whole class Π
simultaneously").  Throughputs land in ``BENCH_ope.json`` at the repo
root so the speedup is tracked across PRs.

Sizes: a 100k-interaction synthetic log with 8 actions and a 64-policy
random linear class.  The scalar path is timed on a slice (it is the
whole point of this engine that the full product is too slow for it)
and compared on *throughput* — policies × interactions per second —
which is size-independent for both paths.

``REPRO_PERF_SMOKE=1`` shrinks everything for CI smoke runs (few
seconds total, no speedup gate — CI shared runners are too noisy to
gate on; the artifact still uploads for tracking).

Run with::

    pytest benchmarks/perf/ -s
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest

from repro.core.bootstrap import bootstrap_interval_from_terms
from repro.core.learners.cb import PolicyClassOptimizer
from repro.core.estimators.ips import IPSEstimator
from repro.core.policies import (
    ConstantPolicy,
    EpsilonGreedyPolicy,
    LinearThresholdPolicy,
    PolicyClass,
    UniformRandomPolicy,
)
from repro.core.types import ActionSpace, Dataset, Interaction, RewardRange
from repro.obs.metrics import use_metrics
from repro.obs.tracing import use_tracer

from benchmarks.conftest import print_table
from tests import oracles

SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") not in ("", "0")

#: Full-size workload (the ISSUE's acceptance target) vs CI smoke.
N_LOG = 2_000 if SMOKE else 100_000
N_ACTIONS = 8
N_CLASS = 8 if SMOKE else 64
#: The scalar reference runs on a slice; throughput is extrapolated.
N_SCALAR_SLICE = 500 if SMOKE else 5_000
N_CLASS_SCALAR = 4 if SMOKE else 8
ROUNDS = 1 if SMOKE else 3
#: Replicates of the class-bootstrap row: lb-search's ``--bootstrap``.
N_BOOT_CLASS = 200
#: Shortest wall time one timed sample of a paired comparison may last:
#: one sub-millisecond call times scheduler noise, not the kernel, so
#: cheap calls repeat within a sample until it lasts this long.
MIN_SAMPLE_SECONDS = 0.05
#: Interleaved samples per arm of a paired comparison (best one wins).
PAIRED_ROUNDS = 5
#: Acceptance gate (full mode only): vectorized class search must beat
#: the scalar path by at least this factor in throughput.
MIN_SPEEDUP = 10.0
#: Harvest-side sizes: rows generated per scenario by the batched
#: engine, and the per-row (batch_size=1) reference slice it is
#: compared against on throughput.
N_HARVEST = 1_000 if SMOKE else 100_000
N_HARVEST_PER_ROW = 200 if SMOKE else 2_000
#: Cache rows are evictions, roughly 0.48 per big/small request.
N_CACHE_REQUESTS = 3_000 if SMOKE else 210_000
#: Acceptance gate (full mode only): batched harvesting must beat the
#: per-row mode by at least this factor for every scenario.
MIN_HARVEST_SPEEDUP = 10.0
#: Decisions served by the serve benchmark and the acceptance floor
#: (ISSUE 10): the in-process serving loop — batcher included — must
#: answer at least 50k decisions/sec.  Gated absolutely in ``gate.py``.
N_SERVE = 5_000 if SMOKE else 100_000
MIN_SERVE_DECISIONS_PER_SEC = 50_000.0

FEATURES = [f"f{i}" for i in range(4)]

ARTIFACT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_ope.json"
)

#: Populated by the benchmark tests (in file order), consumed by the
#: artifact/gate test at the end of the module.
RESULTS: dict = {}


def make_log(n: int, seed: int = 42) -> Dataset:
    rng = np.random.default_rng(seed)
    dataset = Dataset(
        action_space=ActionSpace(N_ACTIONS),
        reward_range=RewardRange(0.0, 1.0, maximize=True),
    )
    features = rng.uniform(size=(n, len(FEATURES)))
    actions = rng.integers(0, N_ACTIONS, size=n)
    rewards = np.clip(
        0.3 + 0.05 * actions + 0.4 * features[:, 0] * (actions % 2)
        + rng.normal(0, 0.05, size=n),
        0.0,
        1.0,
    )
    interactions = [
        Interaction(
            context=dict(zip(FEATURES, map(float, features[t]))),
            action=int(actions[t]),
            reward=float(rewards[t]),
            propensity=1.0 / N_ACTIONS,
            timestamp=float(t),
        )
        for t in range(n)
    ]
    dataset.extend(interactions)
    return dataset


@pytest.fixture(scope="module")
def workload():
    log = make_log(N_LOG)
    scalar_slice = log[:N_SCALAR_SLICE]
    policy_class = PolicyClass.random_linear(
        N_CLASS, N_ACTIONS, FEATURES, np.random.default_rng(7)
    )
    scalar_class = PolicyClass(
        policy_class.policies[:N_CLASS_SCALAR], name="scalar-slice-class"
    )
    single_policy = EpsilonGreedyPolicy(policy_class[0], epsilon=0.1)
    return log, scalar_slice, policy_class, scalar_class, single_policy


def _timed(benchmark, fn) -> float:
    """Run ``fn`` under pytest-benchmark, returning the best wall time.

    Timing is taken with our own clock inside the benchmarked callable
    so the result is available regardless of benchmark-plugin options
    (``--benchmark-disable`` still runs the function once).
    """
    durations: list[float] = []

    def run():
        start = time.perf_counter()
        fn()
        durations.append(time.perf_counter() - start)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=0)
    return min(durations)


def _paired_seconds(first, second) -> tuple[float, float]:
    """Best per-call seconds of two callables, warm and interleaved.

    Both arms run once untimed (memo warm-up), then each sample calls
    its arm enough times to last :data:`MIN_SAMPLE_SECONDS`, and the
    arms alternate for :data:`PAIRED_ROUNDS` rounds so drift hits both
    equally.  Returns the min-of-rounds per-call time of each arm.
    """
    arms = (first, second)
    calls = []
    for fn in arms:
        fn()
        start = time.perf_counter()
        fn()
        once = max(time.perf_counter() - start, 1e-9)
        calls.append(max(1, math.ceil(MIN_SAMPLE_SECONDS / once)))
    best = [math.inf, math.inf]
    for _ in range(PAIRED_ROUNDS):
        for arm, (fn, n) in enumerate(zip(arms, calls)):
            start = time.perf_counter()
            for _ in range(n):
                fn()
            best[arm] = min(best[arm], (time.perf_counter() - start) / n)
    return best[0], best[1]


class TestSinglePolicyOPE:
    """IPS over the whole log for one candidate policy."""

    def test_bench_ips_vectorized(self, workload, benchmark):
        log, _, _, _, policy = workload
        log.columns()  # one-time featurization outside the timed region
        estimator = IPSEstimator()
        seconds = _timed(benchmark, lambda: estimator.estimate(policy, log))
        RESULTS["single_vectorized"] = {
            "n": len(log),
            "seconds": seconds,
            "interactions_per_sec": len(log) / seconds,
        }

    def test_bench_ips_scalar(self, workload, benchmark):
        _, scalar_slice, _, _, policy = workload
        estimator = IPSEstimator()
        seconds = _timed(
            benchmark,
            lambda: oracles.estimate(estimator, policy, scalar_slice),
        )
        RESULTS["single_scalar"] = {
            "n": len(scalar_slice),
            "seconds": seconds,
            "interactions_per_sec": len(scalar_slice) / seconds,
        }


class TestPolicyClassSearch:
    """IPS-score every member of a policy class on one shared log."""

    def test_bench_class_search_vectorized(self, workload, benchmark):
        log, _, policy_class, _, _ = workload
        optimizer = PolicyClassOptimizer(IPSEstimator())
        seconds = _timed(
            benchmark, lambda: optimizer.score_all(policy_class, log)
        )
        work = len(policy_class) * len(log)
        RESULTS["class_vectorized"] = {
            "n": len(log),
            "n_policies": len(policy_class),
            "seconds": seconds,
            "policy_interactions_per_sec": work / seconds,
        }

    def test_bench_class_search_scalar(self, workload, benchmark):
        _, scalar_slice, _, scalar_class, _ = workload
        estimator = IPSEstimator()
        seconds = _timed(
            benchmark,
            lambda: [
                oracles.estimate(estimator, policy, scalar_slice)
                for policy in scalar_class
            ],
        )
        work = len(scalar_class) * len(scalar_slice)
        RESULTS["class_scalar"] = {
            "n": len(scalar_slice),
            "n_policies": len(scalar_class),
            "seconds": seconds,
            "policy_interactions_per_sec": work / seconds,
        }


def lb_search_class() -> list:
    """The pipeline benchmark's lb-search class: uniform, both
    constants, and four ε-greedy mixes of each constant."""
    return [UniformRandomPolicy(), ConstantPolicy(0), ConstantPolicy(1)] + [
        EpsilonGreedyPolicy(ConstantPolicy(action), epsilon)
        for action in (0, 1)
        for epsilon in (0.05, 0.1, 0.2, 0.4)
    ]


class TestClassBootstrap:
    """One shared replicate draw for a policy class vs one per policy.

    ``evaluate --bootstrap`` stacks its policies' IPS terms into one
    ``(P, n)`` call, which draws the replicate indices and counts each
    replicate's draws once for every row.  The per-policy arm makes P
    one-vector calls, each drawing and counting the same indices again.  lb-search's 11 policies at
    its 200 replicates, serial, timed interleaved
    (:func:`_paired_seconds`); both arms must give equal intervals.
    """

    def test_bench_class_bootstrap(self, workload):
        log = workload[0]
        ips = IPSEstimator()
        terms = np.stack(
            [ips.weighted_rewards(policy, log) for policy in lb_search_class()]
        )

        def shared():
            return bootstrap_interval_from_terms(
                terms, n_boot=N_BOOT_CLASS, seed=7
            )

        def per_policy():
            return [
                bootstrap_interval_from_terms(row, n_boot=N_BOOT_CLASS, seed=7)
                for row in terms
            ]

        assert shared() == per_policy(), (
            "the shared draw must give each policy its own interval"
        )
        per_policy_seconds, shared_seconds = _paired_seconds(
            per_policy, shared
        )
        RESULTS["class_bootstrap"] = {
            "n": len(log),
            "n_policies": len(terms),
            "n_boot": N_BOOT_CLASS,
            "per_policy_seconds": per_policy_seconds,
            "shared_seconds": shared_seconds,
            "speedup": per_policy_seconds / shared_seconds,
        }


class TestInstrumentationOverhead:
    """Span tracing + metrics on vs off, same kernel, same log.

    The observability layer promises near-zero cost: with no
    instruments installed the hooks hit shared no-op singletons, and
    with a real tracer/registry the per-estimate work is one span and
    a few counter bumps.  The tracked ratio (instrumented / plain
    throughput) gates that promise: full mode asserts < 5% overhead,
    and the smoke artifact feeds ``gate.py`` so a hook that starts
    allocating per row shows up as a regression.  One tracer and one
    registry, built outside the timed region, serve every instrumented
    call; the arms are timed warm and interleaved, repeating
    sub-millisecond calls within each sample (:func:`_paired_seconds`).
    """

    def test_bench_instrumentation_overhead(self, workload):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracing import Tracer

        log, _, _, _, policy = workload
        estimator = IPSEstimator()
        tracer, registry = Tracer(), MetricsRegistry()

        def instrumented():
            with use_tracer(tracer), use_metrics(registry):
                estimator.estimate(policy, log)

        plain_seconds, instrumented_seconds = _paired_seconds(
            lambda: estimator.estimate(policy, log), instrumented
        )
        relative = plain_seconds / instrumented_seconds
        RESULTS["instrumentation"] = {
            "n": len(log),
            "plain_seconds": plain_seconds,
            "instrumented_seconds": instrumented_seconds,
            "relative_throughput": relative,
        }
        if not SMOKE:
            assert relative >= 0.95, (
                f"instrumentation overhead {(1 - relative):.1%} exceeds "
                "the 5% acceptance bound"
            )


class TestMonitorOverhead:
    """Streaming health monitors on vs off over the batched harvest.

    The watchtower promises ≤10% cost on the harvest hot path: with a
    :class:`~repro.obs.monitors.MonitorSuite` installed, every batch's
    propensities additionally feed the windowed-ESS / floor / tail
    folds (vectorized, O(batch)).  Rounds are *interleaved* (plain,
    monitored, plain, …) so thermal and cache drift hits both arms
    equally, and min-of-rounds is compared.  Monitors read the stream
    but never touch the RNG, so the sampled actions and propensities
    are asserted bit-identical with the suite on or off.

    Like the ledger benchmark, this ratio is held to an **absolute
    floor** (0.9 in ``gate.py``), so the smoke row count stays large
    enough (20k events) that the amortized per-batch fold cost is
    measured rather than fixed setup jitter, and extra rounds tighten
    the min.
    """

    def test_bench_monitor_overhead(self):
        from repro.machinehealth.dataset import (
            build_full_feedback_dataset,
            simulate_exploration_columns,
        )
        from repro.obs.monitors import MonitorSuite, use_monitors

        full = build_full_feedback_dataset(
            n_events=max(N_HARVEST, 20_000), seed=33
        )

        def plain():
            return simulate_exploration_columns(
                full.full, np.random.default_rng(0)
            )

        def monitored():
            with use_metrics(), use_monitors(MonitorSuite()):
                return simulate_exploration_columns(
                    full.full, np.random.default_rng(0)
                )

        # Warmup both arms; monitors must not perturb the stream.
        base, watched = plain(), monitored()
        np.testing.assert_array_equal(base.actions, watched.actions)
        np.testing.assert_array_equal(
            base.propensities, watched.propensities
        )
        plain_durations: list[float] = []
        monitored_durations: list[float] = []
        for _ in range(max(ROUNDS, 5)):
            start = time.perf_counter()
            plain()
            plain_durations.append(time.perf_counter() - start)
            start = time.perf_counter()
            monitored()
            monitored_durations.append(time.perf_counter() - start)
        plain_seconds = min(plain_durations)
        monitored_seconds = min(monitored_durations)
        relative = plain_seconds / monitored_seconds
        RESULTS["obs_monitor"] = {
            "n": max(N_HARVEST, 20_000),
            "plain_seconds": plain_seconds,
            "monitored_seconds": monitored_seconds,
            "relative_throughput": relative,
        }
        if not SMOKE:
            assert relative >= 0.9, (
                f"monitor overhead {(1 - relative):.1%} exceeds the 10% "
                "acceptance bound"
            )


class TestHarvestThroughput:
    """Batched ``act_batch`` harvesting vs per-row, per scenario.

    "Per-row" is ``batch_size=1`` through the same engine — the same
    RNG stream, documented as such — timed on a slice and compared on
    rows/second (size-independent for both modes).  Scenario data
    preparation (fleet generation, cache simulation, reward-matrix
    reconstruction) is identical in both modes and excluded from the
    timed region; what is measured is the harvest engine itself: one
    ``act_batch`` + one reward gather per batch.  Each scenario uses a
    stochastic logging policy, so the inverse-CDF sampler is on the
    timed path.
    """

    def _record(self, key, policy_name, n_batch, batch_seconds,
                n_per_row, per_row_seconds):
        batch_rps = n_batch / batch_seconds
        per_row_rps = n_per_row / per_row_seconds
        RESULTS[f"harvest_{key}"] = {
            "policy": policy_name,
            "n_batch": n_batch,
            "batch_seconds": batch_seconds,
            "batch_rows_per_sec": batch_rps,
            "n_per_row": n_per_row,
            "per_row_seconds": per_row_seconds,
            "per_row_rows_per_sec": per_row_rps,
            "speedup": batch_rps / per_row_rps,
        }

    def _per_row_seconds(self, harvest, rounds=ROUNDS) -> float:
        durations = []
        for _ in range(rounds):
            start = time.perf_counter()
            harvest()
            durations.append(time.perf_counter() - start)
        return min(durations)

    def test_bench_harvest_machinehealth(self, benchmark):
        from repro.machinehealth.dataset import (
            build_full_feedback_dataset,
            simulate_exploration_columns,
        )

        full = build_full_feedback_dataset(n_events=N_HARVEST, seed=21)
        batch_seconds = _timed(
            benchmark,
            lambda: simulate_exploration_columns(
                full.full, np.random.default_rng(0)
            ),
        )
        small = build_full_feedback_dataset(n_events=N_HARVEST_PER_ROW, seed=21)
        per_row_seconds = self._per_row_seconds(
            lambda: simulate_exploration_columns(
                small.full, np.random.default_rng(0), batch_size=1
            )
        )
        self._record(
            "machinehealth", "uniform-random", N_HARVEST, batch_seconds,
            N_HARVEST_PER_ROW, per_row_seconds,
        )

    def test_bench_harvest_loadbalance(self, benchmark):
        from repro.audit.streams import StreamRegistry
        from repro.core.coordinator import HarvestJob
        from repro.core.harvest import harvest_columns
        from repro.loadbalance.harvest import exploration_shard_inputs
        from repro.loadbalance.policies import weighted_random_policy

        policy = weighted_random_policy([0.7, 0.3])

        def inputs_for(rows):
            job = HarvestJob(
                scenario="loadbalance", rows=rows, master_seed=21,
                policy=policy, config={"seed": 21},
            )
            return exploration_shard_inputs(job, StreamRegistry(21))

        def harvest(inputs, size=8_192):
            return harvest_columns(
                policy, inputs.contexts, inputs.reward_fn,
                np.random.default_rng(0),
                action_space=inputs.action_space, batch_size=size,
                scenario="loadbalance", context_ids=inputs.context_ids,
            )

        inputs = inputs_for(N_HARVEST)
        batch_seconds = _timed(benchmark, lambda: harvest(inputs))
        small = inputs_for(N_HARVEST_PER_ROW)
        per_row_seconds = self._per_row_seconds(lambda: harvest(small, 1))
        self._record(
            "loadbalance", policy.name, N_HARVEST, batch_seconds,
            N_HARVEST_PER_ROW, per_row_seconds,
        )

    def test_bench_harvest_cache(self, benchmark):
        from repro.cache.eviction import random_eviction_policy
        from repro.cache.harvest import (
            _context_from_candidates,
            candidate_reward_matrix,
        )
        from repro.cache.keyspace_log import parse_keyspace_line
        from repro.cache.sim import CacheSim
        from repro.cache.workload import BigSmallWorkload
        from repro.core.harvest import harvest_columns
        from repro.simsys.random_source import RandomSource

        workload = BigSmallWorkload(
            n_big=20, n_small=200,
            randomness=RandomSource(21, _name="bench-wl"),
        )
        sim = CacheSim(150, random_eviction_policy(), seed=21)
        result = sim.run(
            workload.requests(N_CACHE_REQUESTS), keep_log=True
        )
        events = [
            parsed
            for parsed in map(parse_keyspace_line, result.log_lines)
            if parsed is not None
        ]
        evictions, rewards = candidate_reward_matrix(events, 5)
        contexts = [
            _context_from_candidates(event.candidates[:5])
            for event in evictions
        ]
        eligible = [
            tuple(range(min(len(event.candidates), 5))) or (0,)
            for event in evictions
        ]

        def reveal(indices, actions):
            return rewards[indices, actions]

        policy = random_eviction_policy()
        harvest = lambda size, n: harvest_columns(  # noqa: E731
            policy, contexts[:n], reveal, np.random.default_rng(0),
            eligible=eligible[:n], batch_size=size, scenario="cache",
        )
        n_batch = len(evictions)
        n_per_row = min(N_HARVEST_PER_ROW, n_batch)
        batch_seconds = _timed(benchmark, lambda: harvest(8_192, n_batch))
        per_row_seconds = self._per_row_seconds(
            lambda: harvest(1, n_per_row)
        )
        self._record(
            "cache", policy.name, n_batch, batch_seconds,
            n_per_row, per_row_seconds,
        )


class TestLedgerOverhead:
    """Audit-ledger cost on the batched harvest hot path.

    The decision ledger promises O(1) per batch while sampling —
    ``extend_batch`` stores array references and the SHA-256 chain
    seals lazily at serialization time — so a ledgered harvest
    (HKDF-derived ``StreamRNG`` + ledger attached) must hold at least
    90% of plain-generator throughput.  ``relative_throughput`` is
    gated with an **absolute floor** of 0.9 in ``gate.py`` (full mode
    asserts it here too); the deferred seal is timed separately and
    reported per row (informational — paid once, at rest).

    Because the floor is absolute, this measurement needs more care
    than the baseline-relative ratios: the arms are timed warm and
    interleaved, in samples of at least 50 ms
    (:func:`_paired_seconds`), so clock-frequency drift hits both sides
    equally and no sample is one call's scheduler noise, and the smoke
    row count stays large enough (20k rows) that the per-shard
    derivation cost is measured, not setup jitter.
    """

    def test_bench_ledger_overhead(self):
        from repro.audit.ledger import DecisionLedger
        from repro.audit.streams import StreamKey, StreamRegistry
        from repro.core.harvest import harvest_columns
        from repro.core.policies import UniformRandomPolicy

        n = max(N_HARVEST, 20_000)
        contexts = [
            {"x": float(v)}
            for v in np.random.default_rng(5).normal(size=n)
        ]
        eligible = tuple(range(N_ACTIONS))
        reward = lambda indices, actions: np.zeros(len(indices))  # noqa: E731
        policy = UniformRandomPolicy()

        def plain():
            harvest_columns(
                policy, contexts, reward, np.random.default_rng(0),
                eligible=eligible, batch_size=8_192,
            )

        last: list[DecisionLedger] = []

        def ledgered():
            # StreamRNG is forward-only and the chain grows, so each
            # round gets a fresh derivation + ledger (setup is O(1)).
            registry = StreamRegistry(0)
            stream = registry.stream(
                "bench", "harvest", "decisions", shard_size=8_192
            )
            ledger = DecisionLedger(
                StreamKey("bench", "harvest", "decisions"),
                shard_size=8_192,
            )
            harvest_columns(
                policy, contexts, reward, stream,
                eligible=eligible, batch_size=8_192, ledger=ledger,
            )
            last[:] = [ledger]

        plain_seconds, ledgered_seconds = _paired_seconds(plain, ledgered)

        start = time.perf_counter()
        head = last[0].head
        seal_seconds = time.perf_counter() - start
        assert len(head) == 64

        relative = plain_seconds / ledgered_seconds
        RESULTS["ledger"] = {
            "n": n,
            "plain_seconds": plain_seconds,
            "ledgered_seconds": ledgered_seconds,
            "relative_throughput": relative,
            "seal_seconds": seal_seconds,
            "seal_us_per_row": seal_seconds / n * 1e6,
        }
        if not SMOKE:
            assert relative >= 0.9, (
                f"ledgered harvest at {relative:.2f}x plain throughput "
                "breaches the 10% overhead budget"
            )


class TestServeThroughput:
    """Online decision service: the decide core and the batcher loop.

    Two interleaved measurements: the synchronous ``decide`` hot path
    (contexts from the pool, HKDF stream draws, vectorized
    ``act_batch``, reward law, O(1) ledger append) and the full
    in-process serving loop — asyncio batcher coalescing 8 concurrent
    clients asking 64 decisions each, the shape the TCP server drives.
    The batched number is the ISSUE 10 acceptance target: at least
    50k decisions/sec single-process, held as an **absolute floor** on
    ``serve.decisions_per_sec`` in ``gate.py`` (full mode asserts it
    here too).  ``cpu_count`` is recorded next to the row — serving is
    single-loop, but scheduler noise on starved runners still matters
    when reading the history.

    Like the other absolute-floor rows, direct and batched rounds are
    interleaved so clock-frequency drift hits both sides, and
    min-of-rounds discards scheduler noise.
    """

    def test_bench_serve_decisions(self, benchmark):
        import asyncio

        from repro.core.policies import UniformRandomPolicy
        from repro.serve import DecisionService, RequestBatcher

        n = N_SERVE
        rounds = max(ROUNDS, 5)
        ask = 64
        clients = 8

        def make_service():
            return DecisionService(
                "synthetic",
                UniformRandomPolicy(),
                pool_rows=8_192,
                seed=9,
                shard_size=8_192,
                config={"n_actions": N_ACTIONS},
            )

        def direct():
            # StreamRNG is forward-only, so each round serves a fresh
            # service from ordinal 0 (setup is O(pool), excluded from
            # neither side — both paths pay it identically).
            service = make_service()
            while service.served < n:
                service.decide(min(8_192, n - service.served))

        def batched():
            async def drive():
                service = make_service()
                batcher = RequestBatcher(service, max_batch=8_192)
                await batcher.start()
                remaining = {"n": n}

                async def client():
                    while remaining["n"] > 0:
                        take = min(ask, remaining["n"])
                        remaining["n"] -= take
                        await batcher.ask(take)

                await asyncio.gather(*[client() for _ in range(clients)])
                await batcher.stop()
                assert service.served == n

            asyncio.run(drive())

        direct()  # warm caches on both paths before any timed round
        benchmark.pedantic(batched, rounds=1, iterations=1, warmup_rounds=0)

        direct_durations: list[float] = []
        batched_durations: list[float] = []
        for _ in range(rounds):
            start = time.perf_counter()
            direct()
            direct_durations.append(time.perf_counter() - start)
            start = time.perf_counter()
            batched()
            batched_durations.append(time.perf_counter() - start)
        direct_seconds = min(direct_durations)
        batched_seconds = min(batched_durations)

        decisions_per_sec = n / batched_seconds
        RESULTS["serve"] = {
            "n": n,
            "ask": ask,
            "clients": clients,
            "cpu_count": os.cpu_count(),
            "direct_seconds": direct_seconds,
            "direct_decisions_per_sec": n / direct_seconds,
            "batched_seconds": batched_seconds,
            "decisions_per_sec": decisions_per_sec,
        }
        if not SMOKE:
            assert decisions_per_sec >= MIN_SERVE_DECISIONS_PER_SEC, (
                f"serving loop at {decisions_per_sec:,.0f} decisions/sec "
                f"is below the {MIN_SERVE_DECISIONS_PER_SEC:,.0f}/sec "
                "acceptance floor"
            )


class TestThroughputArtifact:
    """Derive speedups, write ``BENCH_ope.json``, enforce the gate."""

    def test_record_and_gate(self):
        assert set(RESULTS) >= {
            "single_vectorized",
            "single_scalar",
            "class_vectorized",
            "class_scalar",
            "class_bootstrap",
            "instrumentation",
            "obs_monitor",
            "harvest_machinehealth",
            "harvest_loadbalance",
            "harvest_cache",
            "ledger",
            "serve",
        }, "benchmark tests must run before the artifact test (file order)"
        single_speedup = (
            RESULTS["single_vectorized"]["interactions_per_sec"]
            / RESULTS["single_scalar"]["interactions_per_sec"]
        )
        class_speedup = (
            RESULTS["class_vectorized"]["policy_interactions_per_sec"]
            / RESULTS["class_scalar"]["policy_interactions_per_sec"]
        )
        artifact = {
            "workload": {
                "smoke": SMOKE,
                "n_log": N_LOG,
                "n_actions": N_ACTIONS,
                "n_policies": N_CLASS,
                "n_scalar_slice": N_SCALAR_SLICE,
                "n_policies_scalar": N_CLASS_SCALAR,
                "cpu_count": os.cpu_count(),
            },
            "single_policy_ips": {
                "vectorized": RESULTS["single_vectorized"],
                "scalar": RESULTS["single_scalar"],
                "speedup": single_speedup,
            },
            "class_search": {
                "vectorized": RESULTS["class_vectorized"],
                "scalar": RESULTS["class_scalar"],
                "speedup": class_speedup,
            },
            "class_bootstrap": RESULTS["class_bootstrap"],
            "instrumentation": RESULTS["instrumentation"],
            "obs": {"monitor_overhead": RESULTS["obs_monitor"]},
            "harvest": {
                "machinehealth": RESULTS["harvest_machinehealth"],
                "loadbalance": RESULTS["harvest_loadbalance"],
                "cache": RESULTS["harvest_cache"],
            },
            "ledger": RESULTS["ledger"],
            "serve": RESULTS["serve"],
        }
        with open(ARTIFACT_PATH, "w", encoding="utf-8") as f:
            json.dump(artifact, f, indent=2)
            f.write("\n")

        print_table(
            "OPE engine throughput (vectorized vs scalar)",
            ["kernel", "scalar /s", "vectorized /s", "speedup"],
            [
                [
                    "single-policy IPS (interactions/s)",
                    f"{RESULTS['single_scalar']['interactions_per_sec']:.0f}",
                    f"{RESULTS['single_vectorized']['interactions_per_sec']:.0f}",
                    f"{single_speedup:.1f}x",
                ],
                [
                    "class search (policy-interactions/s)",
                    f"{RESULTS['class_scalar']['policy_interactions_per_sec']:.0f}",
                    f"{RESULTS['class_vectorized']['policy_interactions_per_sec']:.0f}",
                    f"{class_speedup:.1f}x",
                ],
                [
                    (
                        "class bootstrap, "
                        f"{RESULTS['class_bootstrap']['n_policies']} "
                        "policies (per-policy vs shared draw)"
                    ),
                    f"{RESULTS['class_bootstrap']['per_policy_seconds']:.4f}s",
                    f"{RESULTS['class_bootstrap']['shared_seconds']:.4f}s",
                    f"{RESULTS['class_bootstrap']['speedup']:.2f}x",
                ],
                [
                    "instrumented IPS (vs plain)",
                    f"{RESULTS['instrumentation']['plain_seconds']:.4f}s",
                    f"{RESULTS['instrumentation']['instrumented_seconds']:.4f}s",
                    f"{RESULTS['instrumentation']['relative_throughput']:.2f}x",
                ],
                [
                    "monitored harvest (vs plain)",
                    f"{RESULTS['obs_monitor']['plain_seconds']:.3f}s",
                    f"{RESULTS['obs_monitor']['monitored_seconds']:.3f}s",
                    f"{RESULTS['obs_monitor']['relative_throughput']:.2f}x",
                ],
            ]
            + [
                [
                    f"harvest {scenario} (rows/s)",
                    f"{RESULTS[f'harvest_{scenario}']['per_row_rows_per_sec']:.0f}",
                    f"{RESULTS[f'harvest_{scenario}']['batch_rows_per_sec']:.0f}",
                    f"{RESULTS[f'harvest_{scenario}']['speedup']:.1f}x",
                ]
                for scenario in ("machinehealth", "loadbalance", "cache")
            ]
            + [
                [
                    "ledgered harvest (vs plain)",
                    f"{RESULTS['ledger']['plain_seconds']:.3f}s",
                    f"{RESULTS['ledger']['ledgered_seconds']:.3f}s",
                    f"{RESULTS['ledger']['relative_throughput']:.2f}x",
                ],
                [
                    "serve decide core (decisions/s)",
                    "-",
                    f"{RESULTS['serve']['direct_decisions_per_sec']:.0f}",
                    "-",
                ],
                [
                    (
                        f"serve batcher x{RESULTS['serve']['clients']}"
                        f" clients ({RESULTS['serve']['cpu_count']} cpu, "
                        "decisions/s)"
                    ),
                    "-",
                    f"{RESULTS['serve']['decisions_per_sec']:.0f}",
                    "-",
                ],
            ],
        )
        if not SMOKE:
            assert class_speedup >= MIN_SPEEDUP, (
                f"class-search speedup {class_speedup:.1f}x below the "
                f"{MIN_SPEEDUP:.0f}x acceptance target"
            )
            for scenario in ("machinehealth", "loadbalance", "cache"):
                speedup = RESULTS[f"harvest_{scenario}"]["speedup"]
                assert speedup >= MIN_HARVEST_SPEEDUP, (
                    f"harvest {scenario} batch speedup {speedup:.1f}x "
                    f"below the {MIN_HARVEST_SPEEDUP:.0f}x acceptance target"
                )
