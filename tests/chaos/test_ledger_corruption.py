"""Chaos over a ledgered log: chain verification localizes every defect.

The chain promise under fire: run :class:`LogCorruptor` over a
hash-chained exploration log and show that verification (a) detects
that the log is broken, (b) points at the *first* corrupted line, and
(c) still authenticates the intact spans — so after quarantine + rechain
the surviving suffix verifies clean.
"""

import json

import numpy as np
import pytest

from repro.audit.ledger import DecisionLedger, rechain, verify_records
from repro.chaos.corruption import LogCorruptor
from repro.core.types import Dataset, Interaction


def ledgered_log(tmp_path, n=200, name="clean.jsonl"):
    """Write a ledgered exploration log; return (path, ledger)."""
    rng = np.random.default_rng(11)
    ledger = DecisionLedger("chaos/harvest/decisions")
    interactions = []
    for i in range(n):
        context = {"load": float(i % 17) / 17.0, "burst": float(i % 5)}
        action = int(rng.integers(3))
        propensity = 1.0 / 3.0
        ledger.extend_batch([context], [action], [propensity])
        interactions.append(
            Interaction(context=context, action=action, reward=0.5,
                        propensity=propensity, timestamp=float(i))
        )
    ledger.annotate(interactions)
    path = tmp_path / name
    Dataset(interactions).save_jsonl(str(path))
    return path, ledger


def records_from(path):
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for i, line in enumerate(handle, start=1):
            try:
                records.append((i, json.loads(line)))
            except json.JSONDecodeError:
                records.append((i, {"metadata": {"ledger": {}}}))
    return records


class TestDetection:
    def test_clean_log_verifies(self, tmp_path):
        path, ledger = ledgered_log(tmp_path)
        result = verify_records(records_from(path), expected_head=ledger.head)
        assert result.ok

    @pytest.mark.parametrize(
        "kind", ["truncate", "drop_field", "zero_propensity",
                 "garble_propensity", "duplicate"]
    )
    def test_every_corruption_kind_detected(self, tmp_path, kind):
        path, ledger = ledgered_log(tmp_path)
        corrupted = tmp_path / f"{kind}.jsonl"
        corruptor = LogCorruptor(rate=0.05, kinds=(kind,), seed=3)
        counts = corruptor.corrupt_file(str(path), str(corrupted))
        assert counts[kind] > 0
        result = verify_records(
            records_from(corrupted), expected_head=ledger.head
        )
        assert not result.ok

    def test_first_bad_line_localized(self, tmp_path):
        path, ledger = ledgered_log(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[120])
        record["action"] = (record["action"] + 1) % 3
        lines[120] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        result = verify_records(records_from(path), expected_head=ledger.head)
        assert result.first_bad == 121
        assert len(result.issues) == 1

    def test_intact_spans_still_authenticated(self, tmp_path):
        # Corrupt one line; the prefix and suffix verify as segments.
        path, ledger = ledgered_log(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[99])
        record["propensity"] = 0.9
        lines[99] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        result = verify_records(records_from(path), expected_head=ledger.head)
        spans = [(s["start_line"], s["stop_line"]) for s in result.segments]
        assert (1, 99) in spans
        assert (101, 200) in spans


class TestRepairPath:
    def corrupt(self, tmp_path, seed=5, rate=0.04):
        path, ledger = ledgered_log(tmp_path)
        corrupted = tmp_path / "corrupted.jsonl"
        corruptor = LogCorruptor(rate=rate, seed=seed)
        corruptor.corrupt_file(str(path), str(corrupted))
        assert corruptor.n_corrupted > 0
        return corrupted, ledger

    def test_quarantine_isolates_broken_records(self, tmp_path):
        corrupted, _ = self.corrupt(tmp_path)
        dataset = Dataset.load_jsonl(str(corrupted), mode="quarantine")
        assert 0 < len(dataset) < 205  # duplicates can add lines
        assert dataset.quarantine.n_rejected > 0
        # Chain damage is attributed to the ledger, not misdiagnosed as
        # value errors, for records whose bytes no longer match the chain.
        assert "ledger" in dataset.quarantine.counts_by_reason()

    def test_rechain_survivors_verify_clean(self, tmp_path):
        corrupted, _ = self.corrupt(tmp_path)
        dataset = Dataset.load_jsonl(str(corrupted), mode="quarantine")
        fresh = rechain(list(dataset))
        records = [
            (i + 1, json.loads(json.dumps(interaction.to_dict())))
            for i, interaction in enumerate(list(dataset))
        ]
        result = verify_records(records, expected_head=fresh.head)
        assert result.ok
        assert len(result.segments) == 1

    def test_repaired_log_round_trips(self, tmp_path):
        # Quarantine + rechain + save: the written artifact is a fully
        # verified log a downstream consumer can trust end to end.
        corrupted, _ = self.corrupt(tmp_path, seed=9)
        dataset = Dataset.load_jsonl(str(corrupted), mode="quarantine")
        rechain(list(dataset))
        repaired = tmp_path / "repaired.jsonl"
        dataset.save_jsonl(str(repaired))
        reloaded = Dataset.load_jsonl(str(repaired), mode="strict")
        assert len(reloaded) == len(dataset)

    def test_truncated_tail_detected_via_expected_head(self, tmp_path):
        path, ledger = ledgered_log(tmp_path)
        lines = path.read_text().splitlines()[:150]
        path.write_text("\n".join(lines) + "\n")
        result = verify_records(records_from(path), expected_head=ledger.head)
        assert not result.ok
        assert result.truncated
        assert not result.issues  # every surviving record is authentic
