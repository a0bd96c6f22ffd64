"""The decision ledger: chaining, verification, localization, repair."""

import copy
import json

import numpy as np
import pytest

from repro.audit.ledger import (
    GENESIS,
    LEDGER_SCHEMA_VERSION,
    ChainFollower,
    DecisionLedger,
    StreamingLedgerWriter,
    context_digest,
    entry_hash,
    rechain,
    verify_jsonl,
    verify_records,
)
from repro.core.types import Interaction


def build_ledger(n=10, stream="s/c/st"):
    """A ledger of ``n`` one-row batches, its contexts, and the entries
    its seal handed over."""
    ledger = DecisionLedger(stream)
    contexts = [{"a": float(i), "b": i * 0.5} for i in range(n)]
    for i, context in enumerate(contexts):
        ledger.extend_batch([context], [i % 3], [0.1 + 0.08 * (i % 10)])
    return ledger, contexts, ledger.seal().entries()


def records_of(entries, contexts):
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


class TestContextDigest:
    def test_order_invariant(self):
        assert context_digest({"a": 1.0, "b": 2.0}) == context_digest(
            {"b": 2.0, "a": 1.0}
        )

    def test_value_sensitive(self):
        assert context_digest({"a": 1.0}) != context_digest({"a": 1.0 + 1e-12})

    def test_key_boundary_unambiguous(self):
        assert context_digest({"ab": 1.0, "c": 2.0}) != context_digest(
            {"a": 1.0, "bc": 2.0}
        )

    def test_json_round_trip_stable(self):
        context = {"x": 0.1 + 0.2, "y": -3.75e-9}
        loaded = json.loads(json.dumps(context))
        assert context_digest(loaded) == context_digest(context)


class TestEntryHash:
    def test_commits_to_every_field(self):
        base = ("p" * 64, "s/c/st", 3, "c" * 32, 1, 0.25)
        reference = entry_hash(*base)
        variants = [
            ("q" * 64, "s/c/st", 3, "c" * 32, 1, 0.25),
            ("p" * 64, "s/c/s2", 3, "c" * 32, 1, 0.25),
            ("p" * 64, "s/c/st", 4, "c" * 32, 1, 0.25),
            ("p" * 64, "s/c/st", 3, "d" * 32, 1, 0.25),
            ("p" * 64, "s/c/st", 3, "c" * 32, 2, 0.25),
            ("p" * 64, "s/c/st", 3, "c" * 32, 1, 0.26),
        ]
        assert all(entry_hash(*v) != reference for v in variants)

    def test_propensity_bit_exact(self):
        # float.hex() distinguishes values repr might round identically.
        a = entry_hash(GENESIS, "s", 0, "c" * 32, 0, 0.1)
        b = entry_hash(GENESIS, "s", 0, "c" * 32, 0, 0.1 + 1e-18)
        assert a == b  # 0.1 + 1e-18 == 0.1 in float64 — same bits
        c = entry_hash(GENESIS, "s", 0, "c" * 32, 0, np.nextafter(0.1, 1.0))
        assert c != a


class TestDecisionLedger:
    def test_chain_links(self):
        ledger, _, entries = build_ledger(5)
        assert entries[0].prev == GENESIS
        for prev_entry, entry in zip(entries, entries[1:]):
            assert entry.prev == prev_entry.hash
        assert ledger.head == entries[-1].hash

    def test_one_row_and_multi_row_batches_agree(self):
        contexts = [{"x": float(i)} for i in range(20)]
        actions = np.arange(20) % 4
        propensities = np.linspace(0.05, 0.95, 20)
        one = DecisionLedger("s/c/st")
        for i in range(20):
            one.extend_batch([contexts[i]], actions[i:i + 1],
                             propensities[i:i + 1])
        two = DecisionLedger("s/c/st")
        two.extend_batch(contexts[:7], actions[:7], propensities[:7])
        two.extend_batch(contexts[7:], actions[7:], propensities[7:])
        assert one.head == two.head
        assert one.seal().entries() == two.seal().entries()

    def test_extend_batch_is_lazy(self):
        ledger = DecisionLedger("s/c/st")
        ledger.extend_batch(
            [{"x": 1.0}], np.array([0]), np.array([0.5])
        )
        assert ledger._queue and not ledger._hashes  # not sealed yet
        assert len(ledger) == 1  # but counted
        assert ledger.head != GENESIS  # sealing on demand
        assert not ledger._queue and len(ledger._hashes) == 1

    def test_seal_hands_over_each_row_once(self):
        contexts = [{"x": float(i)} for i in range(9)]
        actions = np.arange(9) % 3
        propensities = np.full(9, 0.5)
        whole = DecisionLedger("s/c/st")
        whole.extend_batch(contexts, actions, propensities)
        reference = whole.seal().entries()
        ledger = DecisionLedger("s/c/st")
        ledger.extend_batch(contexts[:4], actions[:4], propensities[:4])
        ledger.head  # a head read seals, and hands nothing over
        ledger.extend_batch(contexts[4:], actions[4:], propensities[4:])
        assert ledger.pending == 9
        first = ledger.seal()
        assert first.entries() == reference
        assert ledger.pending == 0 and len(ledger) == 9
        assert not ledger._hashes and not ledger._queue  # no row kept
        assert len(ledger.seal()) == 0
        ledger.extend_batch([{"x": 9.0}], [1], [0.25])
        second = ledger.seal()
        assert (second.start, second.prev) == (9, reference[-1].hash)
        assert second.entry(0).hash == ledger.head

    def test_extend_batch_length_mismatch(self):
        ledger = DecisionLedger("s/c/st")
        with pytest.raises(ValueError):
            ledger.extend_batch([{"x": 1.0}], np.array([0, 1]), np.array([0.5]))

    def test_genesis_override_extends_chain(self):
        first, _, _ = build_ledger(4)
        second = DecisionLedger("s/c/st", genesis=first.head)
        second.extend_batch([{"z": 0.0}], [0], [0.5])
        assert second.seal().entries()[0].prev == first.head

    def test_annotate(self):
        contexts = [{"a": float(i), "b": i * 0.5} for i in range(3)]
        interactions = [
            Interaction(context=contexts[i], action=i % 3, reward=1.0,
                        propensity=0.1 + 0.08 * (i % 10))
            for i in range(3)
        ]
        reference, _, entries = build_ledger(3)
        ledger = DecisionLedger("s/c/st")
        ledger.extend_batch(
            contexts, [i.action for i in interactions],
            [i.propensity for i in interactions],
        )
        ledger.annotate(interactions)
        assert ledger.pending == 0 and ledger.head == reference.head
        for interaction, entry in zip(interactions, entries):
            meta = interaction.metadata["ledger"]
            assert meta["hash"] == entry.hash
            assert meta["v"] == LEDGER_SCHEMA_VERSION

    def test_annotate_length_mismatch(self):
        ledger = DecisionLedger("s/c/st")
        ledger.extend_batch([{"a": 0.0}] * 3, [0, 1, 2], [0.5] * 3)
        with pytest.raises(ValueError):
            ledger.annotate([])
        assert ledger.pending == 3  # nothing was sealed away

    def test_manifest_entry(self):
        ledger, _, _ = build_ledger(5)
        entry = ledger.manifest_entry()
        assert entry["n"] == 5
        assert entry["head"] == ledger.head
        assert entry["stream"] == "s/c/st"

    def test_metadata_round_trips_jsonl(self):
        _, contexts, entries = build_ledger(2)
        entry = entries[0]
        interaction = Interaction(
            context=contexts[0], action=entry.action, reward=1.0,
            propensity=entry.propensity,
        )
        interaction.metadata["ledger"] = entry.to_metadata()
        reloaded = Interaction.from_dict(
            json.loads(json.dumps(interaction.to_dict()))
        )
        assert reloaded.metadata["ledger"] == entry.to_metadata()


class TestStreamingLedgerWriter:
    def test_mismatched_flush_raises_and_loses_no_row(self, tmp_path):
        contexts = [{"x": float(i)} for i in range(6)]
        ids = np.arange(6)
        actions, props, rewards = ids % 3, np.full(6, 0.5), np.ones(6)
        ledger = DecisionLedger("s/c/st")
        path = tmp_path / "log.jsonl"
        with StreamingLedgerWriter(ledger, str(path)) as writer:
            ledger.extend_batch(contexts, actions[:4], props[:4], ids[:4])
            writer.flush(contexts, ids[:4], actions[:4], rewards[:4],
                         props[:4], ids[:4])
            ledger.extend_batch(contexts, actions[4:], props[4:], ids[4:])
            ledger.head  # chained by a head read, still unwritten
            with pytest.raises(ValueError, match="1 rows for 2"):
                writer.flush(contexts, ids[4:5], actions[4:5],
                             rewards[4:5], props[4:5], ids[4:5])
            assert ledger.pending == 2
            fresh = writer.flush(contexts, ids[4:], actions[4:],
                                 rewards[4:], props[4:], ids[4:])
        assert (fresh.start, len(fresh)) == (4, 2)
        assert ledger.pending == 0 and len(ledger) == 6
        assert verify_jsonl(
            str(path), expected_head=ledger.head, expected_n=6
        ).ok


class TestVerification:
    def test_clean_chain_ok(self):
        ledger, contexts, entries = build_ledger(10)
        result = verify_records(
            records_of(entries, contexts), expected_head=ledger.head
        )
        assert result.ok
        assert result.n_ledgered == 10
        assert len(result.segments) == 1
        assert result.first_bad is None

    def test_empty_or_unledgered_is_not_ok(self):
        result = verify_records([])
        assert not result.ok
        result = verify_records([(1, {"context": {}, "action": 0,
                                      "propensity": 0.5, "reward": 1.0})])
        assert not result.ok
        assert result.n == 1 and result.n_ledgered == 0

    @pytest.mark.parametrize("field,value", [
        ("action", 99),
        ("propensity", 0.123456),
    ])
    def test_tampered_field_localized(self, field, value):
        ledger, contexts, entries = build_ledger(10)
        records = records_of(entries, contexts)
        records[4][1][field] = value
        result = verify_records(records, expected_head=ledger.head)
        assert not result.ok
        assert result.first_bad == 5
        assert len(result.issues) == 1
        # The intact suffix re-verifies as its own segment.
        assert result.segments[-1]["stop_line"] == 10

    def test_tampered_context_detected(self):
        ledger, contexts, entries = build_ledger(6)
        records = records_of(entries, contexts)
        records[2][1]["context"] = {"a": 999.0, "b": 1.0}
        result = verify_records(records)
        assert result.first_bad == 3
        assert any("context" in issue.detail for issue in result.issues)

    def test_tampered_metadata_detected(self):
        ledger, contexts, entries = build_ledger(6)
        records = records_of(entries, contexts)
        meta = dict(records[3][1]["metadata"]["ledger"])
        meta["ordinal"] = 77
        records[3][1]["metadata"] = {"ledger": meta}
        result = verify_records(records)
        assert result.first_bad == 4

    def test_dropped_record_is_gap(self):
        ledger, contexts, entries = build_ledger(10)
        records = records_of(entries, contexts)
        del records[4]
        result = verify_records(records)
        assert not result.ok
        assert not result.issues  # every surviving record is authentic
        assert len(result.gaps) == 1
        assert result.gaps[0].line == 6

    def test_reordered_records_detected(self):
        ledger, contexts, entries = build_ledger(10)
        records = records_of(entries, contexts)
        records[3], records[4] = records[4], records[3]
        result = verify_records(records)
        assert not result.ok

    def test_front_truncation_detected(self):
        # Deleting the leading records leaves the head intact, so only
        # the genesis anchor can catch it: the first surviving record's
        # prev no longer matches genesis and must open a gap.
        ledger, contexts, entries = build_ledger(10)
        records = records_of(entries, contexts)[3:]
        result = verify_records(records, expected_head=ledger.head)
        assert not result.ok
        assert not result.truncated  # the head still matches...
        assert not result.issues  # ...and every survivor is authentic
        assert len(result.gaps) == 1
        assert result.gaps[0].line == 4
        assert "genesis" in result.gaps[0].detail

    def test_shard_verifies_in_isolation_with_genesis_anchor(self):
        # The same suffix is legitimate when explicitly anchored at the
        # shard's recorded prev — that is the fork-equivalence hook.
        ledger, contexts, entries = build_ledger(10)
        records = records_of(entries, contexts)[3:]
        result = verify_records(
            records, expected_head=ledger.head, genesis=entries[2].hash
        )
        assert result.ok
        assert result.n_ledgered == 7

    def test_missing_context_detected(self):
        ledger, contexts, entries = build_ledger(6)
        records = records_of(entries, contexts)
        del records[2][1]["context"]
        result = verify_records(records)
        assert not result.ok
        assert result.first_bad == 3
        assert any("context" in issue.detail for issue in result.issues)

    def test_non_mapping_context_detected(self):
        ledger, contexts, entries = build_ledger(6)
        records = records_of(entries, contexts)
        records[2][1]["context"] = "not-a-mapping"
        result = verify_records(records)
        assert not result.ok
        assert result.first_bad == 3

    def test_expected_n_pins_record_count(self):
        ledger, contexts, entries = build_ledger(10)
        records = records_of(entries, contexts)
        ok = verify_records(
            records, expected_head=ledger.head, expected_n=10
        )
        assert ok.ok and not ok.count_mismatch
        bad = verify_records(
            records, expected_head=ledger.head, expected_n=12
        )
        assert not bad.ok
        assert bad.count_mismatch
        assert bad.report()["count_mismatch"] is True
        assert "COUNT MISMATCH" in bad.summary_text()

    def test_truncation_via_expected_head(self):
        ledger, contexts, entries = build_ledger(10)
        records = records_of(entries, contexts)[:7]
        result = verify_records(records, expected_head=ledger.head)
        assert not result.ok
        assert result.truncated
        assert not result.issues and not result.gaps

    def test_verify_jsonl(self, tmp_path):
        ledger, contexts, entries = build_ledger(8)
        path = tmp_path / "log.jsonl"
        with open(path, "w") as handle:
            for _, record in records_of(entries, contexts):
                handle.write(json.dumps(record) + "\n")
        assert verify_jsonl(str(path), expected_head=ledger.head).ok
        # Garbage line counts as a binding failure at its line number.
        with open(path, "a") as handle:
            handle.write("{not json\n")
        result = verify_jsonl(str(path), expected_head=ledger.head)
        assert not result.ok
        assert result.first_bad == 9

    def test_report_serializable(self):
        ledger, contexts, entries = build_ledger(4)
        result = verify_records(records_of(entries, contexts))
        json.dumps(result.report())
        assert "OK" in result.summary_text()


class TestChainFollower:
    def test_check_is_pure(self):
        ledger, contexts, entries = build_ledger(3)
        follower = ChainFollower()
        record = records_of(entries, contexts)[0][1]
        assert follower.check(record) == []
        assert follower.check(record) == []
        assert follower.head == GENESIS

    def test_strict_links_flags_gaps(self):
        ledger, contexts, entries = build_ledger(4)
        records = [record for _, record in records_of(entries, contexts)]
        follower = ChainFollower(strict_links=True)
        assert follower.check(records[0]) == []
        follower.observe(records[0])
        issues = follower.check(records[2])  # skipped record 1
        assert issues and issues[0][0] == "ledger"

    def test_lenient_links_tolerate_gaps(self):
        ledger, contexts, entries = build_ledger(4)
        records = [record for _, record in records_of(entries, contexts)]
        follower = ChainFollower(strict_links=False)
        follower.observe(records[0])
        assert follower.check(records[2]) == []
        assert follower.observe(records[2]) is True  # gap tallied
        assert follower.n_gaps == 1

    def test_first_record_must_anchor_at_genesis(self):
        ledger, contexts, entries = build_ledger(3)
        records = [record for _, record in records_of(entries, contexts)]
        follower = ChainFollower()
        assert follower.observe(records[1]) is True  # front-truncated
        assert follower.n_gaps == 1

    def test_missing_metadata_mid_chain_flagged(self):
        ledger, contexts, entries = build_ledger(2)
        records = [record for _, record in records_of(entries, contexts)]
        follower = ChainFollower()
        follower.observe(records[0])
        bare = {"context": {}, "action": 0, "propensity": 0.5, "reward": 1.0}
        issues = follower.check(bare)
        assert issues and "no ledger metadata" in issues[0][1]

    def test_unledgered_stream_passes(self):
        follower = ChainFollower()
        bare = {"context": {}, "action": 0, "propensity": 0.5, "reward": 1.0}
        assert follower.check(bare) == []
        assert follower.observe(bare) is False
        assert not follower.engaged


class TestRechain:
    def test_rechain_after_drop_verifies_clean(self):
        ledger, contexts, entries = build_ledger(6)
        interactions = [
            Interaction(context=contexts[i], action=entry.action, reward=1.0,
                        propensity=entry.propensity,
                        metadata={"ledger": entry.to_metadata()})
            for i, entry in enumerate(entries)
        ]
        survivors = interactions[:2] + interactions[3:]  # drop one
        fresh = rechain(survivors)
        assert fresh.stream == "s/c/st"
        records = [
            (i + 1, json.loads(json.dumps(interaction.to_dict())))
            for i, interaction in enumerate(survivors)
        ]
        result = verify_records(records, expected_head=fresh.head)
        assert result.ok
        assert len(result.segments) == 1

    def test_rechain_requires_a_stream(self):
        interaction = Interaction(
            context={"x": 1.0}, action=0, reward=1.0, propensity=0.5
        )
        with pytest.raises(ValueError):
            rechain([interaction])
        fresh = rechain([interaction], stream="a/b/c")
        assert fresh.stream == "a/b/c"


class TestLoadJsonlIntegration:
    def make_log(self, tmp_path, n=12):
        from repro.core.types import Dataset

        ledger, contexts, entries = build_ledger(n)
        interactions = [
            Interaction(context=contexts[i], action=entry.action, reward=1.0,
                        propensity=entry.propensity, timestamp=float(i),
                        metadata={"ledger": entry.to_metadata()})
            for i, entry in enumerate(entries)
        ]
        dataset = Dataset(interactions)
        path = tmp_path / "log.jsonl"
        dataset.save_jsonl(str(path))
        return path, ledger

    def test_strict_load_clean(self, tmp_path):
        from repro.core.types import Dataset

        path, _ = self.make_log(tmp_path)
        dataset = Dataset.load_jsonl(str(path), mode="strict")
        assert len(dataset) == 12
        assert not dataset.quarantine

    def test_strict_load_rejects_tamper(self, tmp_path):
        from repro.core.types import Dataset

        path, _ = self.make_log(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[5])
        record["action"] = (record["action"] + 1) % 3
        lines[5] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="ledger"):
            Dataset.load_jsonl(str(path), mode="strict")

    def test_quarantine_load_localizes_tamper(self, tmp_path):
        from repro.core.types import Dataset

        path, _ = self.make_log(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[5])
        record["propensity"] = min(1.0, record["propensity"] + 0.1)
        lines[5] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        dataset = Dataset.load_jsonl(str(path), mode="quarantine")
        assert len(dataset) == 11
        assert dataset.quarantine.counts_by_reason() == {"ledger": 1}

    def test_repair_does_not_resurrect_tampered_records(self, tmp_path):
        # A tampered propensity is also a value violation repair mode
        # would clamp — but the chain check sees the original record.
        from repro.core.types import Dataset

        path, _ = self.make_log(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[5])
        record["propensity"] = 0.0
        lines[5] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        dataset = Dataset.load_jsonl(str(path), mode="repair")
        assert len(dataset) == 11
        assert dataset.quarantine.counts_by_reason() == {"ledger": 1}
        assert dataset.quarantine.n_repaired == 0

    def test_verify_ledger_off_skips_chain(self, tmp_path):
        from repro.core.types import Dataset

        path, _ = self.make_log(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[5])
        record["action"] = (record["action"] + 1) % 3
        lines[5] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        dataset = Dataset.load_jsonl(
            str(path), mode="quarantine", verify_ledger="off"
        )
        assert len(dataset) == 12

    def test_verify_ledger_require_on_plain_log(self, tmp_path):
        from repro.core.types import Dataset

        path = tmp_path / "plain.jsonl"
        interaction = Interaction(
            context={"x": 1.0}, action=0, reward=1.0, propensity=0.5
        )
        Dataset([interaction]).save_jsonl(str(path))
        Dataset.load_jsonl(str(path))  # auto: fine
        with pytest.raises(ValueError, match="require"):
            Dataset.load_jsonl(str(path), verify_ledger="require")

    def test_bad_verify_ledger_value(self, tmp_path):
        from repro.core.types import Dataset

        path, _ = self.make_log(tmp_path)
        with pytest.raises(ValueError, match="verify_ledger"):
            Dataset.load_jsonl(str(path), verify_ledger="sometimes")
