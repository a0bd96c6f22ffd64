"""Fork equivalence: any shard of a ledgered log rebuilds in isolation.

The audit layer's headline guarantee (ISSUE tentpole): given only the
master seed, the stream key, and a shard's start ordinal, an auditor
can re-derive the *middle* shard of a harvested log — its actions, its
propensities, and its ledger records — bit-identically, without
replaying the prefix.  Proven here for the generic engine and all
three scenarios.
"""

import numpy as np

from repro.audit.ledger import GENESIS, DecisionLedger
from repro.audit.streams import StreamKey, StreamRegistry
from repro.cache import random_eviction_policy
from repro.core.coordinator import HarvestJob, build_inputs
from repro.core.harvest import harvest_columns
from repro.core.policies import UniformRandomPolicy
from repro.loadbalance.policies import weighted_random_policy
from repro.machinehealth.dataset import (
    build_full_feedback_dataset,
    simulate_exploration_columns,
)

S = 64  # shard size; logs span 3 shards, the middle one is re-derived
MASTER_SEED = 2017


def streams_for(scenario, shard_size=S, start_ordinal=0):
    """(StreamRNG, StreamKey) for a scenario's decision stream."""
    registry = StreamRegistry(MASTER_SEED)
    stream = registry.stream(
        scenario, "harvest", "decisions",
        shard_size=shard_size, start_ordinal=start_ordinal,
    )
    return stream, StreamKey(scenario, "harvest", "decisions")


def shard_ledger_from(full_entries, key, start, shard_size=S):
    """A ledger anchored exactly where the full log's shard begins."""
    genesis = full_entries[start - 1].hash if start else GENESIS
    return DecisionLedger(
        key, shard_size=shard_size, genesis=genesis, start_ordinal=start
    )


def scenario_inputs(scenario, rows, policy, config, shard_size=S):
    """``(inputs, registry)`` of the scenario's shard-input builder."""
    job = HarvestJob(
        scenario=scenario, rows=rows, master_seed=MASTER_SEED,
        policy=policy, shard_size=shard_size, config=config,
    )
    registry = StreamRegistry(MASTER_SEED)
    return build_inputs(job, registry), registry


def harvest_inputs(inputs, policy, stream, start, stop, **kwargs):
    """Harvest rows ``[start, stop)`` of ``inputs`` by global index."""
    contexts, context_ids = inputs.context_slice(start, stop)
    return harvest_columns(
        policy, contexts,
        lambda indices, actions: inputs.reward_fn(indices + start, actions),
        stream,
        eligible=inputs.eligible_slice(start, stop),
        action_space=inputs.action_space,
        context_ids=context_ids,
        **kwargs,
    )


def assert_shard_matches(full, shard, start, stop):
    assert shard.n == stop - start
    assert (shard.actions == full.actions[start:stop]).all()
    assert (shard.propensities == full.propensities[start:stop]).all()
    assert (shard.rewards == full.rewards[start:stop]).all()


def assert_ledger_shard_matches(full_entries, shard_ledger, start, stop):
    assert shard_ledger.seal().entries() == full_entries[start:stop]
    assert shard_ledger.head == full_entries[stop - 1].hash


class TestGenericEngine:
    def contexts(self, n):
        rng = np.random.default_rng(1)
        return [{"x": float(v)} for v in rng.normal(size=n)]

    def reward(self, indices, actions):
        return (indices % 5 + actions).astype(float)

    def test_middle_shard_rebuilds_in_isolation(self):
        contexts = self.contexts(3 * S)
        policy = UniformRandomPolicy()
        stream, key = streams_for("generic")
        full_ledger = DecisionLedger(key, shard_size=S)
        full = harvest_columns(
            policy, contexts, self.reward, stream,
            eligible=(0, 1, 2), batch_size=50, ledger=full_ledger,
        )
        shard_stream, _ = streams_for("generic", start_ordinal=S)
        full_entries = full_ledger.seal().entries()
        shard_ledger = shard_ledger_from(full_entries, key, S)
        # The auditor sees only the shard's input rows — but the reward
        # function must still address them by their global indices.
        shard = harvest_columns(
            policy, contexts[S: 2 * S],
            lambda indices, actions: self.reward(indices + S, actions),
            shard_stream,
            eligible=(0, 1, 2), batch_size=50, ledger=shard_ledger,
        )
        assert_shard_matches(full, shard, S, 2 * S)
        assert_ledger_shard_matches(full_entries, shard_ledger, S, 2 * S)

    def test_rebuild_is_batch_size_independent(self):
        contexts = self.contexts(3 * S)
        stream, key = streams_for("generic")
        full = harvest_columns(
            UniformRandomPolicy(), contexts, self.reward, stream,
            eligible=(0, 1, 2), batch_size=7,
        )
        shard_stream, _ = streams_for("generic", start_ordinal=S)
        shard = harvest_columns(
            UniformRandomPolicy(), contexts[S: 2 * S],
            lambda indices, actions: self.reward(indices + S, actions),
            shard_stream,
            eligible=(0, 1, 2), batch_size=3 * S,
        )
        assert_shard_matches(full, shard, S, 2 * S)

    def test_wrong_master_seed_diverges(self):
        contexts = self.contexts(2 * S)
        stream, _ = streams_for("generic")
        full = harvest_columns(
            UniformRandomPolicy(), contexts, self.reward, stream,
            eligible=(0, 1, 2), batch_size=64,
        )
        other = StreamRegistry(MASTER_SEED + 1).stream(
            "generic", "harvest", "decisions",
            shard_size=S, start_ordinal=S,
        )
        shard = harvest_columns(
            UniformRandomPolicy(), contexts[S: 2 * S],
            lambda indices, actions: self.reward(indices + S, actions),
            other,
            eligible=(0, 1, 2), batch_size=64,
        )
        assert not (shard.actions == full.actions[S: 2 * S]).all()


class TestMachineHealthForkEquivalence:
    def test_middle_shard(self):
        full_data = build_full_feedback_dataset(n_events=3 * S, seed=7)
        stream, key = streams_for("machinehealth")
        full_ledger = DecisionLedger(key, shard_size=S)
        full = simulate_exploration_columns(
            full_data.full, stream, batch_size=41, ledger=full_ledger
        )
        shard_stream, _ = streams_for("machinehealth", start_ordinal=S)
        full_entries = full_ledger.seal().entries()
        shard_ledger = shard_ledger_from(full_entries, key, S)
        shard = simulate_exploration_columns(
            full_data.full[S: 2 * S], shard_stream,
            batch_size=41, ledger=shard_ledger,
        )
        assert_shard_matches(full, shard, S, 2 * S)
        assert_ledger_shard_matches(full_entries, shard_ledger, S, 2 * S)


class TestLoadBalanceForkEquivalence:
    policy = weighted_random_policy([0.7, 0.3])

    def test_middle_shard(self):
        # Latency noise off: the ledgered decision fields are the claim.
        inputs, _ = scenario_inputs(
            "loadbalance", 3 * S, self.policy,
            {"seed": 3, "latency_noise": 0.0},
        )
        stream, key = streams_for("loadbalance")
        full_ledger = DecisionLedger(key, shard_size=S)
        full = harvest_inputs(
            inputs, self.policy, stream, 0, 3 * S,
            batch_size=50, ledger=full_ledger,
        )
        shard_stream, _ = streams_for("loadbalance", start_ordinal=S)
        full_entries = full_ledger.seal().entries()
        shard_ledger = shard_ledger_from(full_entries, key, S)
        shard = harvest_inputs(
            inputs, self.policy, shard_stream, S, 2 * S,
            batch_size=50, ledger=shard_ledger,
        )
        assert_shard_matches(full, shard, S, 2 * S)
        assert_ledger_shard_matches(full_entries, shard_ledger, S, 2 * S)

    def test_middle_shard_with_latency_noise(self):
        # Latency noise rides a ShardedNormal stream addressed by global
        # row, so the *rewards* of a middle shard — not just its
        # ledgered decision fields — re-derive in isolation from
        # (master seed, key, start ordinal).
        config = {"seed": 3, "latency_noise": 0.01}
        full_inputs, _ = scenario_inputs(
            "loadbalance", 3 * S, self.policy, config
        )
        stream, key = streams_for("loadbalance")
        full_ledger = DecisionLedger(key, shard_size=S)
        full = harvest_inputs(
            full_inputs, self.policy, stream, 0, 3 * S,
            batch_size=50, ledger=full_ledger,
        )
        shard_inputs, shard_registry = scenario_inputs(
            "loadbalance", 3 * S, self.policy, config
        )
        shard_stream, _ = streams_for("loadbalance", start_ordinal=S)
        full_entries = full_ledger.seal().entries()
        shard_ledger = shard_ledger_from(full_entries, key, S)
        shard = harvest_inputs(
            shard_inputs, self.policy, shard_stream, S, 2 * S,
            batch_size=50, ledger=shard_ledger,
        )
        assert_shard_matches(full, shard, S, 2 * S)
        assert_ledger_shard_matches(full_entries, shard_ledger, S, 2 * S)
        # The isolated shard derived exactly its own noise shard.
        noise_keys = [
            d["key"] for d in shard_registry.derivations()
            if "latency-noise" in d["key"]
        ]
        assert noise_keys == [f"loadbalance/harvest/latency-noise#{S}"]

    def test_noise_scheme_batch_grid_independent(self):
        # Same stream parameters, wildly different batch grids — the
        # noise is addressed by row, never by draw order.
        policy = weighted_random_policy([0.6, 0.4])
        outputs = []
        for batch_size in (7, 2 * S):
            inputs, _ = scenario_inputs(
                "loadbalance", 2 * S, policy,
                {"seed": 3, "latency_noise": 0.01},
            )
            stream, _ = streams_for("loadbalance")
            outputs.append(
                harvest_inputs(
                    inputs, policy, stream, 0, 2 * S, batch_size=batch_size
                )
            )
        assert (outputs[0].rewards == outputs[1].rewards).all()
        assert (outputs[0].actions == outputs[1].actions).all()


class TestCacheForkEquivalence:
    SHARD = 32  # eviction counts are workload-dependent; smaller shards

    def test_middle_shard(self):
        S_c = self.SHARD
        policy = random_eviction_policy()
        # The look-ahead rewards are data, not randomness — the verifier
        # has the full keyspace log, so the shard's inputs are a slice.
        inputs, _ = scenario_inputs(
            "cache", 8000, policy, {"seed": 0}, shard_size=S_c
        )
        assert inputs.n >= 3 * S_c  # the workload evicts enough to shard
        stream, key = streams_for("cache", shard_size=S_c)
        full_ledger = DecisionLedger(key, shard_size=S_c)
        full = harvest_inputs(
            inputs, policy, stream, 0, inputs.n,
            batch_size=64, ledger=full_ledger,
        )
        shard_stream, _ = streams_for(
            "cache", shard_size=S_c, start_ordinal=S_c
        )
        full_entries = full_ledger.seal().entries()
        shard_ledger = shard_ledger_from(
            full_entries, key, S_c, shard_size=S_c
        )
        shard = harvest_inputs(
            inputs, policy, shard_stream, S_c, 2 * S_c,
            batch_size=64, ledger=shard_ledger,
        )
        assert_shard_matches(full, shard, S_c, 2 * S_c)
        assert_ledger_shard_matches(full_entries, shard_ledger, S_c, 2 * S_c)
