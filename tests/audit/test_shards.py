"""Shard planning, digest chaining, splicing, sharded verification."""

import numpy as np
import pytest

from repro.audit.ledger import GENESIS, DecisionLedger, context_digest
from repro.audit.shards import (
    ShardPlan,
    ShardSpec,
    SpliceError,
    splice_payloads,
    verify_sharded_records,
)

STREAM = "demo/harvest/decisions"
S = 16  # shard size for these tests


def serial_ledger(n, stream=STREAM):
    """A serially-sealed reference chain plus its raw decision columns."""
    contexts = [{"x": float(i), "y": i * 0.25} for i in range(n)]
    actions = [i % 3 for i in range(n)]
    propensities = [0.05 + 0.09 * (i % 10) for i in range(n)]
    ledger = DecisionLedger(stream, shard_size=S)
    for context, action, propensity in zip(contexts, actions, propensities):
        ledger.extend_batch([context], [action], [propensity])
    return ledger, contexts, actions, propensities


def shard_payloads(plan, contexts, actions, propensities):
    """Each shard's decisions with its contexts digested."""
    return [
        {
            "start": spec.start,
            "actions": actions[spec.start : spec.stop],
            "propensities": propensities[spec.start : spec.stop],
            "context_shas": [
                context_digest(c) for c in contexts[spec.start : spec.stop]
            ],
        }
        for spec in plan
    ]


def chained_head(shas, actions, propensities, start_ordinal=0):
    """The head a ledger reaches chaining pre-digested decisions."""
    ledger = DecisionLedger(STREAM, start_ordinal=start_ordinal)
    ledger.extend_digests(shas, actions, propensities)
    return ledger.head


def records_of(ledger, contexts):
    entries = ledger.seal().entries()
    return [
        (
            i + 1,
            {
                "context": contexts[i],
                "action": entry.action,
                "reward": 1.0,
                "propensity": entry.propensity,
                "metadata": {"ledger": entry.to_metadata()},
            },
        )
        for i, entry in enumerate(entries)
    ]


class TestShardPlan:
    def test_partitions_exactly(self):
        plan = ShardPlan(40, S)
        assert len(plan) == 3
        assert [(s.start, s.stop) for s in plan] == [(0, 16), (16, 32), (32, 40)]
        assert sum(s.n for s in plan) == 40

    def test_aligned_rows(self):
        plan = ShardPlan(2 * S, S)
        assert [(s.start, s.stop) for s in plan] == [(0, S), (S, 2 * S)]

    def test_empty_plan(self):
        assert len(ShardPlan(0, S)) == 0

    def test_single_shard_when_rows_fit(self):
        plan = ShardPlan(5, S)
        assert len(plan) == 1
        assert plan[0] == ShardSpec(index=0, start=0, stop=5)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ShardPlan(-1, S)
        with pytest.raises(ValueError):
            ShardPlan(10, 0)

    def test_to_dict(self):
        assert ShardPlan(40, S).to_dict() == {
            "n_rows": 40,
            "shard_size": S,
            "n_shards": 3,
        }


class TestChainDigests:
    def test_matches_ledger_head(self):
        ledger, contexts, actions, propensities = serial_ledger(10)
        head = chained_head(
            [context_digest(c) for c in contexts], actions, propensities
        )
        assert head == ledger.head

    def test_any_field_changes_head(self):
        _, contexts, actions, propensities = serial_ledger(6)
        shas = [context_digest(c) for c in contexts]
        reference = chained_head(shas, actions, propensities)
        tampered_action = list(actions)
        tampered_action[3] = (tampered_action[3] + 1) % 3
        assert chained_head(shas, tampered_action, propensities) != reference
        tampered_propensity = list(propensities)
        tampered_propensity[0] += 1e-9
        assert chained_head(shas, actions, tampered_propensity) != reference
        assert (
            chained_head(shas, actions, propensities, start_ordinal=1)
            != reference
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            chained_head(["a" * 32], [0, 1], [0.5, 0.5])


class TestSplicePayloads:
    def test_splice_is_bit_identical_to_serial(self):
        ledger, contexts, actions, propensities = serial_ledger(40)
        plan = ShardPlan(40, S)
        payloads = shard_payloads(plan, contexts, actions, propensities)
        spliced, shard_map = splice_payloads(STREAM, payloads, shard_size=S)
        assert spliced.head == ledger.head
        entries = ledger.seal().entries()
        assert spliced.seal().entries() == entries
        assert [m["n"] for m in shard_map] == [16, 16, 8]
        # The shard map records the true boundary hashes of the chain.
        assert shard_map[0]["prev"] == GENESIS
        assert shard_map[1]["prev"] == entries[S - 1].hash
        assert shard_map[-1]["head"] == ledger.head

    def test_non_contiguous_payloads_rejected(self):
        _, contexts, actions, propensities = serial_ledger(40)
        plan = ShardPlan(40, S)
        payloads = shard_payloads(plan, contexts, actions, propensities)
        with pytest.raises(SpliceError, match="contiguous"):
            splice_payloads(STREAM, [payloads[0], payloads[2]])


class TestVerifySharded:
    def sharded_log(self, n=40):
        ledger, contexts, actions, propensities = serial_ledger(n)
        plan = ShardPlan(n, S)
        payloads = shard_payloads(plan, contexts, actions, propensities)
        spliced, shard_map = splice_payloads(STREAM, payloads, shard_size=S)
        return records_of(spliced, contexts), shard_map, spliced.head

    def test_clean_log_verifies(self):
        records, shard_map, head = self.sharded_log()
        result = verify_sharded_records(
            records, shard_map, expected_head=head, expected_n=40
        )
        assert result.ok
        assert result.overall.ok
        assert all(e["verification"].ok for e in result.shards)
        assert result.splice_issues == []
        assert "OK" in result.summary_text()

    def test_tamper_pins_to_one_shard(self):
        records, shard_map, head = self.sharded_log()
        line, record = records[20]  # inside shard 1 (rows 16..32)
        record = dict(record, action=(record["action"] + 1) % 3)
        records[20] = (line, record)
        result = verify_sharded_records(
            records, shard_map, expected_head=head, expected_n=40
        )
        assert not result.ok
        per_shard = [e["verification"].ok for e in result.shards]
        assert per_shard == [True, False, True]
        report = result.report()
        assert report["ok"] is False
        assert report["shards"][1]["ok"] is False

    def test_missing_record_is_count_mismatch_in_its_shard(self):
        records, shard_map, head = self.sharded_log()
        del records[35]  # inside shard 2 (rows 32..40)
        result = verify_sharded_records(
            records, shard_map, expected_head=head, expected_n=40
        )
        assert not result.ok
        assert result.shards[0]["verification"].ok
        assert result.shards[1]["verification"].ok
        assert result.shards[2]["verification"].count_mismatch

    def test_broken_shard_map_geometry_reported(self):
        records, shard_map, head = self.sharded_log()
        shard_map[1] = dict(shard_map[1], prev="f" * 64)
        result = verify_sharded_records(
            records, shard_map, expected_head=head, expected_n=40
        )
        assert not result.ok
        assert any("does not match" in issue for issue in result.splice_issues)

    def test_foreign_ordinal_reported(self):
        records, shard_map, head = self.sharded_log()
        line, record = records[0]
        meta = dict(record["metadata"]["ledger"], ordinal=999)
        records[0] = (line, dict(record, metadata={"ledger": meta}))
        result = verify_sharded_records(
            records, shard_map, expected_head=head, expected_n=40
        )
        assert not result.ok
        assert any("outside every manifest shard" in i for i in result.splice_issues)


    def test_overlapping_map_routes_like_a_scan(self):
        # A malformed map whose shards overlap: each record goes to the
        # first shard (in start order) that holds its ordinal.
        from tests import oracles

        records, shard_map, head = self.sharded_log()
        shard_map[1] = dict(shard_map[1], start=8, n=24)
        shard_map[2] = dict(shard_map[2], start=30, n=2)
        ours = verify_sharded_records(
            records, shard_map, expected_head=head, expected_n=40
        )
        reference = oracles.verify_sharded_records(
            records, shard_map, expected_head=head, expected_n=40
        )
        assert ours.report() == reference.report()
        # Rows 30 and 31 sit in shards 1 and 2 both; shard 1 takes them.
        assert [e["verification"].n for e in ours.shards] == [16, 16, 0]
        outside = [i for i in ours.splice_issues if "outside every" in i]
        assert len(outside) == 8  # ordinals 32..39


class TestShardedNormal:
    def test_access_order_and_grid_independent(self):
        from repro.audit.streams import ShardedNormal, StreamKey, StreamRegistry

        key = StreamKey("demo", "harvest", "noise")
        one = ShardedNormal(StreamRegistry(5), key, shard_size=8, scale=0.3)
        two = ShardedNormal(StreamRegistry(5), key, shard_size=8, scale=0.3)
        rows = np.arange(30)
        forward = one.values(rows)
        scattered = np.empty_like(forward)
        order = np.random.default_rng(0).permutation(30)
        scattered[order] = two.values(order)
        np.testing.assert_array_equal(forward, scattered)

    def test_shard_isolation(self):
        from repro.audit.streams import ShardedNormal, StreamKey, StreamRegistry

        key = StreamKey("demo", "harvest", "noise")
        full = ShardedNormal(StreamRegistry(5), key, shard_size=8, scale=0.3)
        registry = StreamRegistry(5)
        shard_only = ShardedNormal(registry, key, shard_size=8, scale=0.3)
        rows = np.arange(8, 16)  # exactly shard 1
        np.testing.assert_array_equal(
            full.values(np.arange(24))[8:16], shard_only.values(rows)
        )
        # Only shard 1's derivation was recorded.
        keys = [d["key"] for d in registry.derivations()]
        assert keys == ["demo/harvest/noise#8"]
