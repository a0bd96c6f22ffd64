"""The harvest coordinator: jobs, inputs, the one pass, the shard map."""

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.audit.ledger import DecisionLedger
from repro.audit.streams import StreamRegistry, StreamRNG
from repro.core.coordinator import (
    HarvestCoordinator,
    HarvestInputs,
    HarvestJob,
    build_inputs,
    synthetic_shard_inputs,
)
from repro.core.harvest import harvest_columns
from repro.core.policies import UniformRandomPolicy
from repro.obs.tracing import use_tracer


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
        context_ids=inputs.context_ids,
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
    assert result.sealed.entries() == reference_ledger.seal().entries()


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

    @pytest.mark.parametrize("runs", [1, 2])
    def test_one_span_per_run(self, runs):
        with use_tracer() as tracer:
            for _ in range(runs):
                HarvestCoordinator(synthetic_job()).run()
        spans = self.build_spans(tracer.span_tree())
        assert len(spans) == runs
        for span in spans:
            assert span["attributes"] == {"scenario": "synthetic", "rows": 200}

    def test_machinehealth_reports_distinct_contexts(self):
        job = synthetic_job(
            scenario="machinehealth", rows=50, config={"n_machines": 5}
        )
        with use_tracer() as tracer:
            inputs = build_inputs(job, StreamRegistry(job.master_seed))
        (span,) = self.build_spans(tracer.span_tree())
        rows = [inputs.contexts[i] for i in inputs.context_ids.tolist()]
        distinct = {tuple(c.items()) for c in rows}
        assert len(inputs.contexts) == len(distinct)
        assert span["attributes"] == {
            "scenario": "machinehealth",
            "rows": 50,
            "distinct_contexts": len(distinct),
        }


class TestEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_bit_identical_to_serial(self, batch_size):
        # The serial reference runs at the job's default batch size: the
        # coordinated harvest must not depend on its batch grid.
        reference_columns, reference_ledger = serial_reference(synthetic_job())
        result = HarvestCoordinator(synthetic_job(batch_size=batch_size)).run()
        assert_matches_serial(result, reference_columns, reference_ledger)
        assert result.retries == 0
        assert len(result.plan) == 7  # 200 rows / 32

    @pytest.mark.parametrize(
        "rows, shard_size, n_shards", [(200, 32, 7), (20, 64, 1)]
    )
    def test_plan_geometry_is_bit_identical_to_serial(
        self, rows, shard_size, n_shards
    ):
        job = synthetic_job(rows=rows, shard_size=shard_size)
        reference_columns, reference_ledger = serial_reference(job)
        result = HarvestCoordinator(job).run()
        assert_matches_serial(result, reference_columns, reference_ledger)
        assert result.retries == 0
        assert len(result.plan) == n_shards

    def test_derivations_cover_every_shard(self):
        job = synthetic_job()
        result = HarvestCoordinator(job).run()
        keys = sorted(d["key"] for d in result.registry.derivations())
        assert keys == sorted(
            f"synthetic/harvest/decisions#{s.start}" for s in result.plan
        )

    def test_empty_harvest(self):
        job = synthetic_job(rows=0)
        result = HarvestCoordinator(job).run()
        assert result.columns.n == 0
        assert result.head == result.ledger.genesis
        assert result.shard_map == []

    def test_starts_no_process(self):
        class LocalPolicy(UniformRandomPolicy):
            pass

        policy = LocalPolicy()
        policy.hostage = lambda: None  # lambdas don't pickle
        job = synthetic_job(policy=policy)
        reference_columns, reference_ledger = serial_reference(job)
        before = {child.pid for child in multiprocessing.active_children()}
        result = HarvestCoordinator(job).run()
        after = {child.pid for child in multiprocessing.active_children()}
        assert after <= before
        assert_matches_serial(result, reference_columns, reference_ledger)


class TestUnsealed:
    def test_same_rows_and_streams_without_a_chain(self):
        job = synthetic_job()
        sealed = HarvestCoordinator(job).run()
        unsealed = HarvestCoordinator(
            dataclasses.replace(job, sealed=False)
        ).run()
        assert unsealed.ledger is None
        assert unsealed.shard_map == []
        for name in ("actions", "rewards", "propensities", "timestamps"):
            np.testing.assert_array_equal(
                getattr(unsealed.columns, name), getattr(sealed.columns, name)
            )
        assert unsealed.registry.derivations() == sealed.registry.derivations()


class TestManifestEntry:
    def test_records_plan_and_shard_map(self):
        job = synthetic_job()
        result = HarvestCoordinator(job).run()
        entry = result.manifest_entry()
        assert entry["head"] == result.head
        assert entry["n"] == 200
        assert "workers" not in entry
        assert entry["plan"]["n_shards"] == 7
        assert len(entry["shards"]) == 7
        assert entry["shards"][0]["prev"] == result.ledger.genesis
        assert entry["shards"][-1]["head"] == result.head
        assert set(entry["shards"][0]) == {"index", "start", "n", "prev", "head"}

    def test_ledger_delegation(self):
        job = synthetic_job(rows=40, shard_size=40)
        result = HarvestCoordinator(job).run()
        assert result.stream == "synthetic/harvest/decisions"
        assert len(result.sealed) == 40
        assert result.ledger.pending == 0  # the result holds the rows


class TestCoordinatorValidation:
    def test_prebuilt_inputs_are_used(self):
        job = synthetic_job(rows=30, shard_size=8)
        inputs = synthetic_shard_inputs(job, StreamRegistry(0))
        reference_columns, reference_ledger = serial_reference(job)
        result = HarvestCoordinator(job, inputs=inputs).run()
        assert_matches_serial(result, reference_columns, reference_ledger)
