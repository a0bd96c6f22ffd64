"""The harvest coordinator: plans, payload validation, retries, splicing."""

import dataclasses

import numpy as np
import pytest

from repro.audit.ledger import DecisionLedger
from repro.audit.streams import StreamRegistry, StreamRNG
from repro.core import pool as worker_pool
from repro.core.coordinator import (
    HarvestCoordinator,
    HarvestInputs,
    HarvestJob,
    ShardPayloadError,
    build_inputs,
    synthetic_shard_inputs,
)
from repro.core.harvest import harvest_columns
from repro.core.policies import UniformRandomPolicy
from repro.core.types import ActionSpace
from repro.obs.tracing import use_tracer


@pytest.fixture(autouse=True)
def fresh_pool():
    """Isolate each test from pools poisoned by earlier tests."""
    worker_pool.reset_pool()
    yield
    worker_pool.reset_pool()


def synthetic_job(rows=200, shard_size=32, **overrides):
    defaults = dict(
        scenario="synthetic",
        rows=rows,
        master_seed=41,
        policy=UniformRandomPolicy(),
        shard_size=shard_size,
        batch_size=17,
    )
    defaults.update(overrides)
    return HarvestJob(**defaults)


def serial_reference(job):
    """The monolithic harvest the coordinator must reproduce exactly."""
    registry = StreamRegistry(job.master_seed)
    inputs = build_inputs(job, registry)
    key = job.stream_key()
    rng = StreamRNG(registry, key, shard_size=job.shard_size)
    ledger = DecisionLedger(
        key,
        shard_size=job.shard_size,
        master_fingerprint=registry.master_fingerprint,
    )
    columns = harvest_columns(
        job.policy,
        inputs.contexts,
        inputs.reward_fn,
        rng,
        eligible=inputs.eligible,
        action_space=inputs.action_space,
        batch_size=job.batch_size,
        reward_range=inputs.reward_range,
        scenario=job.scenario,
        timestamps=inputs.timestamps,
        ledger=ledger,
    )
    return columns, ledger


def assert_matches_serial(result, reference_columns, reference_ledger):
    assert result.columns.n == reference_columns.n
    np.testing.assert_array_equal(result.columns.actions, reference_columns.actions)
    np.testing.assert_array_equal(result.columns.rewards, reference_columns.rewards)
    np.testing.assert_array_equal(
        result.columns.propensities, reference_columns.propensities
    )
    assert result.head == reference_ledger.head
    assert result.ledger.entries() == reference_ledger.entries()


class TestJob:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            synthetic_job(rows=-1)
        with pytest.raises(ValueError):
            synthetic_job(shard_size=0)

    def test_stream_key_names_the_scenario(self):
        assert synthetic_job().stream_key().name == "synthetic/harvest/decisions"

    def test_unknown_scenario_rejected(self):
        job = synthetic_job(scenario="nope")
        with pytest.raises(ValueError, match="no shard-input builder"):
            build_inputs(job, StreamRegistry(0))


class TestInputs:
    def test_synthetic_inputs_are_deterministic(self):
        job = synthetic_job(rows=50)
        one = synthetic_shard_inputs(job, StreamRegistry(0))
        two = synthetic_shard_inputs(job, StreamRegistry(0))
        assert one.contexts == two.contexts
        assert one.n == 50

    def test_eligible_slice_per_row_vs_shared(self):
        shared = HarvestInputs(
            contexts=({"x": 1.0},) * 4,
            reward_fn=lambda i, a: i,
            eligible=(0, 1),
        )
        assert shared.eligible_slice(1, 3) == (0, 1)
        per_row = HarvestInputs(
            contexts=({"x": 1.0},) * 4,
            reward_fn=lambda i, a: i,
            eligible=((0,), (0, 1), (1,), (0, 1, 2)),
        )
        assert per_row.eligible_slice(1, 3) == ((0, 1), (1,))


class TestScenarioBuildSpan:
    @staticmethod
    def build_spans(tree):
        found = []
        for node in tree:
            if node["name"] == "scenario.build":
                found.append(node)
            found.extend(TestScenarioBuildSpan.build_spans(node.get("children", ())))
        return found

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_span_per_run(self, workers):
        with use_tracer() as tracer:
            HarvestCoordinator(synthetic_job(), workers=workers).run()
        (span,) = self.build_spans(tracer.span_tree())
        assert span["attributes"] == {"scenario": "synthetic", "rows": 200}

    def test_machinehealth_reports_distinct_contexts(self):
        job = synthetic_job(
            scenario="machinehealth", rows=50, config={"n_machines": 5}
        )
        with use_tracer() as tracer:
            inputs = build_inputs(job, StreamRegistry(job.master_seed))
        (span,) = self.build_spans(tracer.span_tree())
        distinct = {tuple(c.items()) for c in inputs.contexts}
        assert span["attributes"] == {
            "scenario": "machinehealth",
            "rows": 50,
            "distinct_contexts": len(distinct),
        }


class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_serial(self, workers):
        job = synthetic_job()
        reference_columns, reference_ledger = serial_reference(job)
        result = HarvestCoordinator(job, workers=workers).run()
        assert_matches_serial(result, reference_columns, reference_ledger)
        assert result.retries == 0
        assert len(result.plan) == 7  # 200 rows / 32

    def test_single_shard_short_circuits_the_pool(self):
        job = synthetic_job(rows=20, shard_size=64)
        reference_columns, reference_ledger = serial_reference(job)
        result = HarvestCoordinator(job, workers=4).run()
        assert_matches_serial(result, reference_columns, reference_ledger)
        assert len(result.plan) == 1

    def test_derivations_cover_every_shard(self):
        job = synthetic_job()
        result = HarvestCoordinator(job, workers=2).run()
        keys = sorted(d["key"] for d in result.registry.derivations())
        assert keys == sorted(
            f"synthetic/harvest/decisions#{s.start}" for s in result.plan
        )

    def test_empty_harvest(self):
        job = synthetic_job(rows=0)
        result = HarvestCoordinator(job, workers=1).run()
        assert result.columns.n == 0
        assert result.head == result.ledger.genesis


class TestPayloadValidation:
    def payload_for(self, job, spec_index=0):
        coordinator = HarvestCoordinator(job, workers=1)
        result = coordinator.run()
        return coordinator, result

    def test_corrupt_action_detected(self):
        job = synthetic_job(rows=40, shard_size=40)
        registry = StreamRegistry(job.master_seed)
        inputs = build_inputs(job, registry)
        from repro.core.coordinator import _harvest_shard_impl
        from repro.audit.shards import ShardPlan

        spec = ShardPlan(inputs.n, job.shard_size)[0]
        payload = _harvest_shard_impl(job, inputs, registry, spec)
        coordinator = HarvestCoordinator(job, workers=1)
        coordinator._validate_payload(spec, payload)  # clean passes
        tampered = dict(payload)
        tampered["actions"] = np.array(payload["actions"], copy=True)
        tampered["actions"][3] = (tampered["actions"][3] + 1) % 4
        with pytest.raises(ShardPayloadError, match="integrity"):
            coordinator._validate_payload(spec, tampered)

    def test_wrong_coverage_detected(self):
        job = synthetic_job(rows=40, shard_size=40)
        registry = StreamRegistry(job.master_seed)
        inputs = build_inputs(job, registry)
        from repro.core.coordinator import _harvest_shard_impl
        from repro.audit.shards import ShardPlan, ShardSpec

        spec = ShardPlan(inputs.n, job.shard_size)[0]
        payload = _harvest_shard_impl(job, inputs, registry, spec)
        coordinator = HarvestCoordinator(job, workers=1)
        other = ShardSpec(index=1, start=8, stop=48)
        with pytest.raises(ShardPayloadError, match="covers rows"):
            coordinator._validate_payload(other, payload)


class CorruptingCoordinator(HarvestCoordinator):
    """Corrupts the first delivery of one shard's payload."""

    def __init__(self, *args, corrupt_index=1, **kwargs):
        super().__init__(*args, **kwargs)
        self.corrupt_index = corrupt_index
        self.corrupted = 0

    def _receive(self, spec, payload):
        if spec.index == self.corrupt_index and self.corrupted == 0:
            self.corrupted += 1
            payload = dict(payload)
            payload["actions"] = np.array(payload["actions"], copy=True)
            payload["actions"][0] = (payload["actions"][0] + 1) % 4
        return payload


class TestRetries:
    def test_corrupted_payload_is_rederived_shard_precisely(self):
        job = synthetic_job()
        reference_columns, reference_ledger = serial_reference(job)
        coordinator = CorruptingCoordinator(job, workers=2, corrupt_index=1)
        with pytest.warns(RuntimeWarning, match="re-deriving shard 1"):
            result = coordinator.run()
        assert coordinator.corrupted == 1
        assert coordinator.attempts[1] == 1
        assert all(
            count == 0 for index, count in coordinator.attempts.items() if index != 1
        )
        assert result.retries == 1
        assert_matches_serial(result, reference_columns, reference_ledger)
        # The shard map records which shard needed the retry.
        assert [m["retries"] for m in result.shard_map] == [0, 1, 0, 0, 0, 0, 0]

    def test_persistent_corruption_falls_back_to_local_harvest(self):
        job = synthetic_job(rows=96, shard_size=32)
        reference_columns, reference_ledger = serial_reference(job)

        class AlwaysCorrupt(CorruptingCoordinator):
            def _receive(self, spec, payload):
                if spec.index == self.corrupt_index:
                    self.corrupted += 1
                    payload = dict(payload)
                    payload["actions"] = np.array(payload["actions"], copy=True)
                    payload["actions"][0] = (payload["actions"][0] + 1) % 4
                return payload

        coordinator = AlwaysCorrupt(
            job, workers=2, max_retries=1, corrupt_index=2
        )
        with pytest.warns(RuntimeWarning, match="re-deriving shard 2"):
            result = coordinator.run()
        # initial + one retry both corrupted, then the local fallback.
        assert coordinator.attempts[2] == 2
        assert_matches_serial(result, reference_columns, reference_ledger)


class BreaksOnSecondSubmit:
    """An executor whose pool "dies" while shards are being submitted.

    The first submission runs in-process and returns a finished
    future; the second raises ``BrokenProcessPool`` from ``submit``
    itself, as a real pool does once one of its workers has died.
    Every later submission (the retry round) runs in-process again.
    """

    def __init__(self):
        self.submits = 0

    def submit(self, fn, *args):
        from concurrent.futures import Future

        self.submits += 1
        if self.submits == 2:
            raise worker_pool.BrokenProcessPool("worker died mid-submit")
        future = Future()
        future.set_result(fn(*args))
        return future


class TestBrokenDuringSubmit:
    def test_unsubmitted_shards_are_rederived(self, monkeypatch):
        job = synthetic_job()
        reference = HarvestCoordinator(job, workers=1).run()
        executor = BreaksOnSecondSubmit()
        monkeypatch.setattr(worker_pool, "get_pool", lambda workers: executor)
        coordinator = HarvestCoordinator(job, workers=2)
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            result = coordinator.run()
        # Shard 0 went through; shards 1..6 never reached the pool and
        # each cost exactly one retry.
        assert executor.submits == 2 + 6
        assert coordinator.attempts == {0: 0, **dict.fromkeys(range(1, 7), 1)}
        np.testing.assert_array_equal(
            result.columns.actions, reference.columns.actions
        )
        np.testing.assert_array_equal(
            result.columns.rewards, reference.columns.rewards
        )
        np.testing.assert_array_equal(
            result.columns.propensities, reference.columns.propensities
        )
        assert result.head == reference.head


class TruncatingCoordinator(HarvestCoordinator):
    """Drops the last row of one column in shard 1's first delivery."""

    def __init__(self, *args, column, **kwargs):
        super().__init__(*args, **kwargs)
        self.column = column
        self.truncated = 0

    def _receive(self, spec, payload):
        if spec.index == 1 and self.truncated == 0:
            self.truncated += 1
            payload = dict(payload)
            payload[self.column] = payload[self.column][:-1]
        return payload


class TestUnsealed:
    def test_same_rows_and_streams_without_a_chain(self):
        job = synthetic_job()
        sealed = HarvestCoordinator(job, workers=2).run()
        unsealed = HarvestCoordinator(
            dataclasses.replace(job, sealed=False), workers=2
        ).run()
        assert unsealed.ledger is None
        assert unsealed.shard_map == []
        for name in ("actions", "rewards", "propensities", "timestamps"):
            np.testing.assert_array_equal(
                getattr(unsealed.columns, name), getattr(sealed.columns, name)
            )
        assert unsealed.registry.derivations() == sealed.registry.derivations()

    def test_payload_carries_no_chain_fields(self):
        from repro.audit.shards import ShardPlan
        from repro.core.coordinator import _harvest_shard_impl

        job = synthetic_job(rows=40, shard_size=40, sealed=False)
        registry = StreamRegistry(job.master_seed)
        inputs = build_inputs(job, registry)
        spec = ShardPlan(inputs.n, job.shard_size)[0]
        payload = _harvest_shard_impl(job, inputs, registry, spec)
        assert not {"context_shas", "genesis", "head", "sealed"} & set(payload)
        HarvestCoordinator(job)._validate_payload(spec, payload)

    @pytest.mark.parametrize("column", ["actions", "rewards", "propensities"])
    def test_truncated_payload_is_rederived(self, column):
        job = synthetic_job(sealed=False)
        reference = HarvestCoordinator(job, workers=1).run()
        coordinator = TruncatingCoordinator(job, workers=2, column=column)
        with pytest.warns(
            RuntimeWarning, match=f"re-deriving shard 1: .* 31 {column} for 32"
        ):
            result = coordinator.run()
        assert coordinator.truncated == 1
        assert coordinator.attempts == {i: int(i == 1) for i in range(7)}
        assert result.retries == 1
        assert result.ledger is None
        for name in ("actions", "rewards", "propensities"):
            np.testing.assert_array_equal(
                getattr(result.columns, name), getattr(reference.columns, name)
            )


class TestUnpicklableJob:
    def test_falls_back_in_process(self):
        class LocalPolicy(UniformRandomPolicy):
            pass

        policy = LocalPolicy()
        policy.hostage = lambda: None  # lambdas don't pickle
        job = synthetic_job(policy=policy)
        reference_columns, reference_ledger = serial_reference(job)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            result = HarvestCoordinator(job, workers=2).run()
        assert_matches_serial(result, reference_columns, reference_ledger)


class TestManifestEntry:
    def test_records_plan_and_shard_map(self):
        job = synthetic_job()
        result = HarvestCoordinator(job, workers=2).run()
        entry = result.manifest_entry()
        assert entry["head"] == result.head
        assert entry["n"] == 200
        assert entry["workers"] == 2
        assert entry["plan"]["n_shards"] == 7
        assert len(entry["shards"]) == 7
        assert entry["shards"][0]["prev"] == result.ledger.genesis
        assert entry["shards"][-1]["head"] == result.head

    def test_ledger_delegation(self):
        job = synthetic_job(rows=40, shard_size=40)
        result = HarvestCoordinator(job).run()
        assert result.stream == "synthetic/harvest/decisions"
        assert len(result.entries()) == 40


class TestCoordinatorValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            HarvestCoordinator(synthetic_job(), workers=0)
        with pytest.raises(ValueError):
            HarvestCoordinator(synthetic_job(), max_retries=-1)

    def test_prebuilt_inputs_are_used(self):
        job = synthetic_job(rows=30, shard_size=8)
        inputs = synthetic_shard_inputs(job, StreamRegistry(0))
        reference_columns, reference_ledger = serial_reference(job)
        result = HarvestCoordinator(job, workers=1, inputs=inputs).run()
        assert_matches_serial(result, reference_columns, reference_ledger)
