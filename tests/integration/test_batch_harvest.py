"""Batch harvesting end to end: the determinism contract in the flesh.

The ISSUE-level acceptance test: for each of the three scenarios
(machine health, load balancing, cache eviction), harvesting with a
large batch size and harvesting one row at a time (``batch_size=1``,
the "per-row" mode of the batched engine) produce **bit-identical**
logs under the same seeded generator.  Plus: the generic engine's
instrumentation, its ``Dataset`` wrapper, and the columnar output's
round trip into the evaluators.
"""

import numpy as np
import pytest

from repro.audit.streams import StreamRegistry
from repro.cache import random_eviction_policy
from repro.core.columns import DatasetColumns
from repro.core.coordinator import HarvestJob, build_inputs
from repro.core.estimators.ips import IPSEstimator
from repro.core.harvest import harvest_columns, harvest_dataset
from repro.core.policies import EpsilonGreedyPolicy, ConstantPolicy, UniformRandomPolicy
from repro.core.types import ActionSpace
from repro.loadbalance import fig5_servers, synthetic_decision_snapshots
from repro.loadbalance.policies import weighted_random_policy
from repro.machinehealth.dataset import (
    build_full_feedback_dataset,
    simulate_exploration,
    simulate_exploration_columns,
)
from repro.obs.metrics import use_metrics
from repro.obs.report import flatten_spans
from repro.obs.tracing import use_tracer


def assert_identical(a: DatasetColumns, b: DatasetColumns) -> None:
    assert a.n == b.n
    assert (a.actions == b.actions).all()
    assert (a.propensities == b.propensities).all()
    assert (a.rewards == b.rewards).all()
    assert (a.timestamps == b.timestamps).all()


def scenario_inputs(scenario, rows, config):
    """The scenario's shard-coordinator inputs for ``rows``."""
    job = HarvestJob(
        scenario=scenario, rows=rows, master_seed=0,
        policy=UniformRandomPolicy(), config=config,
    )
    return build_inputs(job, StreamRegistry(job.master_seed))


def harvest_inputs(inputs, policy, rng, **kwargs):
    """Harvest every row of ``inputs`` under ``policy`` with ``rng``."""
    return harvest_columns(
        policy, inputs.contexts, inputs.reward_fn, rng,
        eligible=inputs.eligible,
        action_space=inputs.action_space,
        reward_range=inputs.reward_range,
        timestamps=inputs.timestamps,
        context_ids=inputs.context_ids,
        **kwargs,
    )


def simple_contexts(n, seed=0):
    rng = np.random.default_rng(seed)
    return [{"x": float(v)} for v in rng.normal(size=n)]


class TestGenericEngine:
    def test_batch_sizes_bit_identical(self):
        contexts = simple_contexts(500)

        def reward(indices, actions):
            return (indices % 7 + actions).astype(float)

        policy = UniformRandomPolicy()
        logs = [
            harvest_columns(
                policy,
                contexts,
                reward,
                np.random.default_rng(3),
                eligible=(0, 1, 2),
                batch_size=size,
            )
            for size in (1, 64, 500, 10_000)
        ]
        for other in logs[1:]:
            assert_identical(logs[0], other)

    def test_rewards_see_global_indices(self):
        """reward_fn receives absolute row indices, not batch offsets."""
        contexts = simple_contexts(100)
        columns = harvest_columns(
            ConstantPolicy(0),
            contexts,
            lambda indices, actions: indices.astype(float),
            np.random.default_rng(0),
            eligible=(0, 1),
            batch_size=17,
        )
        assert (columns.rewards == np.arange(100)).all()

    def test_eligibility_from_action_space(self):
        space = ActionSpace(
            3, eligibility=lambda c: [0, 1] if c["x"] > 0 else [2]
        )
        contexts = simple_contexts(200, seed=1)
        columns = harvest_columns(
            UniformRandomPolicy(),
            contexts,
            lambda indices, actions: np.zeros(len(indices)),
            np.random.default_rng(1),
            action_space=space,
            batch_size=64,
        )
        for i, context in enumerate(contexts):
            assert int(columns.actions[i]) in space.actions(context)

    def test_requires_eligibility_or_space(self):
        with pytest.raises(ValueError, match="eligible actions or an action"):
            harvest_columns(
                UniformRandomPolicy(),
                simple_contexts(5),
                lambda i, a: np.zeros(len(i)),
                np.random.default_rng(0),
            )

    def test_instrumentation_counts_rows_and_batches(self):
        contexts = simple_contexts(300)
        with use_tracer() as tracer, use_metrics() as metrics:
            harvest_columns(
                UniformRandomPolicy(),
                contexts,
                lambda i, a: np.zeros(len(i)),
                np.random.default_rng(0),
                eligible=(0, 1),
                batch_size=100,
                scenario="generic",
            )
        assert metrics.value("harvest.rows_generated", scenario="generic") == 300
        histogram = metrics.histogram("harvest.batch_seconds", scenario="generic")
        assert histogram.count == 3
        names = [span["name"] for _, span in flatten_spans(tracer.span_tree())]
        assert names.count("harvest.batched") == 1
        assert names.count("harvest.batch") == 3

    def test_harvest_dataset_matches_columns(self):
        contexts = simple_contexts(120)
        policy = EpsilonGreedyPolicy(ConstantPolicy(1), 0.25)
        kwargs = dict(eligible=(0, 1, 2), batch_size=50)
        dataset = harvest_dataset(
            policy, contexts,
            lambda i, a: a.astype(float),
            np.random.default_rng(2), **kwargs,
        )
        columns = harvest_columns(
            policy, contexts,
            lambda i, a: a.astype(float),
            np.random.default_rng(2), **kwargs,
        )
        assert [i.action for i in dataset] == columns.actions.tolist()
        assert [i.propensity for i in dataset] == columns.propensities.tolist()

    def test_batch_size_zero_rejected(self):
        with pytest.raises(ValueError, match="batch_size must be positive"):
            harvest_dataset(
                UniformRandomPolicy(),
                simple_contexts(8),
                lambda i, a: np.zeros(len(i)),
                np.random.default_rng(4),
                eligible=(0, 1, 2),
                batch_size=0,
            )


class TestMachineHealthBatching:
    @pytest.fixture(scope="class")
    def full(self):
        return build_full_feedback_dataset(n_events=400, seed=7)

    def test_batch_sizes_bit_identical(self, full):
        logs = [
            simulate_exploration_columns(
                full.full, np.random.default_rng(11), batch_size=size
            )
            for size in (1, 97, 4096)
        ]
        for other in logs[1:]:
            assert_identical(logs[0], other)

    def test_rewards_come_from_full_feedback(self, full):
        columns = simulate_exploration_columns(
            full.full, np.random.default_rng(11)
        )
        for row in (0, 57, 399):
            interaction = full.full[row]
            assert columns.rewards[row] == pytest.approx(
                interaction.full_rewards[int(columns.actions[row])]
            )

    def test_dataset_wrapper_matches_columns(self, full):
        dataset = simulate_exploration(full.full, np.random.default_rng(11))
        columns = simulate_exploration_columns(
            full.full, np.random.default_rng(11)
        )
        assert [i.action for i in dataset] == columns.actions.tolist()
        assert [i.reward for i in dataset] == columns.rewards.tolist()

    def test_evaluates_like_per_row_harvest(self, full):
        """The columnar log plugs straight into the estimators."""
        columns = simulate_exploration_columns(
            full.full, np.random.default_rng(11)
        )
        result = IPSEstimator().estimate(
            UniformRandomPolicy(), columns.to_dataset()
        )
        assert result.n == 400
        assert np.isfinite(result.value)


class TestLoadBalanceBatching:
    def inputs(self, latency_noise=0.01):
        return scenario_inputs(
            "loadbalance", 600, {"seed": 3, "latency_noise": latency_noise}
        )

    def test_batch_sizes_bit_identical(self):
        inputs = self.inputs()
        policy = weighted_random_policy([0.7, 0.3])
        logs = [
            harvest_inputs(
                inputs, policy, np.random.default_rng(5), batch_size=size
            )
            for size in (1, 113, 8192)
        ]
        for other in logs[1:]:
            assert_identical(logs[0], other)

    def test_latencies_follow_fig5_law(self):
        """Noise off → observed latency is exactly the linear law."""
        from repro.loadbalance.harvest import batch_latency_law

        columns = harvest_inputs(
            self.inputs(latency_noise=0.0),
            UniformRandomPolicy(),
            np.random.default_rng(5),
        )
        law = batch_latency_law(
            synthetic_decision_snapshots(600, n_servers=2, seed=3),
            fig5_servers(),
        )
        expected = law[np.arange(columns.n), columns.actions]
        assert np.allclose(columns.rewards, np.maximum(expected, 0.001))

    def test_noise_stream_independent_of_batch_size(self):
        inputs = self.inputs(latency_noise=0.05)
        small = harvest_inputs(
            inputs, UniformRandomPolicy(), np.random.default_rng(5),
            batch_size=7,
        )
        large = harvest_inputs(
            inputs, UniformRandomPolicy(), np.random.default_rng(5),
            batch_size=600,
        )
        assert_identical(small, large)


class TestCacheBatching:
    @pytest.fixture(scope="class")
    def inputs(self):
        return scenario_inputs("cache", 4000, {"seed": 0})

    def test_batch_sizes_bit_identical(self, inputs):
        logs = [
            harvest_inputs(
                inputs,
                random_eviction_policy(),
                np.random.default_rng(9),
                batch_size=size,
            )
            for size in (1, 41, 8192)
        ]
        assert logs[0].n > 50  # the workload actually evicts
        for other in logs[1:]:
            assert_identical(logs[0], other)

    def test_actions_respect_sampled_slots(self, inputs):
        columns = harvest_inputs(
            inputs, random_eviction_policy(), np.random.default_rng(9)
        )
        assert (columns.actions < 5).all()
        assert (columns.actions >= 0).all()
        # Eligibility was per-row: each chosen slot was in its row's set.
        chosen_ok = columns.eligible_mask[
            np.arange(columns.n), columns.actions
        ]
        assert chosen_ok.all()

    def test_rewards_capped_and_positive(self, inputs):
        from repro.cache.harvest import DEFAULT_REWARD_CAP

        columns = harvest_inputs(
            inputs, random_eviction_policy(), np.random.default_rng(9)
        )
        assert (columns.rewards >= 0).all()
        assert (columns.rewards <= DEFAULT_REWARD_CAP).all()
