"""Verify a harvested log's decision ledger — the audit walkthrough.

The audit layer (:mod:`repro.audit`) makes an exploration log
*tamper-evident* and *re-derivable*:

1. harvest with an HKDF-derived stream and a hash-chained ledger;
2. verify the chain end to end against the recorded head;
3. tamper with one record and watch verification localize it;
4. quarantine the damage, rechain the survivors, verify clean;
5. re-derive the middle shard bit-identically in isolation — the
   fork-equivalence check an external auditor runs.

Run:  python examples/verify_ledger.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from repro.audit import (
    DecisionLedger,
    StreamKey,
    StreamRegistry,
    rechain,
    verify_jsonl,
)
from repro.core.harvest import harvest_columns
from repro.core.policies import UniformRandomPolicy
from repro.core.types import Dataset

MASTER_SEED = 2017
SHARD = 100
ROWS = 3 * SHARD


def reward(indices, actions):
    return ((indices % 7) + actions).astype(float)


def harvest(contexts, stream, ledger, batch_size=64):
    return harvest_columns(
        UniformRandomPolicy(), contexts, reward, stream,
        eligible=(0, 1, 2), batch_size=batch_size, ledger=ledger,
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-ledger-"))
    log_path = workdir / "exploration.jsonl"
    contexts = [{"load": (i % 13) / 13.0} for i in range(ROWS)]

    # -- 1. audit-grade harvest -------------------------------------------
    registry = StreamRegistry(MASTER_SEED)
    key = StreamKey("example", "harvest", "decisions")
    stream = registry.stream(
        "example", "harvest", "decisions", shard_size=SHARD
    )
    ledger = DecisionLedger(
        key, shard_size=SHARD,
        master_fingerprint=registry.master_fingerprint,
    )
    columns = harvest(contexts, stream, ledger)
    dataset = columns.to_dataset()
    sealed = ledger.seal()  # the ledger hands its rows over, keeps its head
    sealed.annotate(dataset)
    dataset.save_jsonl(str(log_path))
    head = ledger.head
    print(f"harvested {columns.n} rows -> {log_path}")
    print(f"ledger head: {head}")

    # -- 2. clean verification --------------------------------------------
    result = verify_jsonl(str(log_path), expected_head=head)
    print(f"clean log verifies: {'OK' if result.ok else 'BROKEN'}")

    # -- 3. tamper with one action ----------------------------------------
    lines = log_path.read_text().splitlines()
    record = json.loads(lines[149])
    record["action"] = (record["action"] + 1) % 3
    lines[149] = json.dumps(record)
    log_path.write_text("\n".join(lines) + "\n")
    result = verify_jsonl(str(log_path), expected_head=head)
    print(
        f"after flipping one action: {'OK' if result.ok else 'BROKEN'}, "
        f"first bad line {result.first_bad}, "
        f"{len(result.segments)} intact segment(s)"
    )

    # -- 4. quarantine + rechain ------------------------------------------
    repaired = Dataset.load_jsonl(str(log_path), mode="quarantine")
    survivors = list(repaired)
    fresh = rechain(survivors)
    repaired_path = workdir / "repaired.jsonl"
    repaired.save_jsonl(str(repaired_path))
    result = verify_jsonl(str(repaired_path), expected_head=fresh.head)
    print(
        f"rechained {len(survivors)} survivors "
        f"(quarantined {repaired.quarantine.n_rejected}): "
        f"{'OK' if result.ok else 'BROKEN'}"
    )

    # -- 5. fork equivalence: rebuild the middle shard in isolation -------
    full_entries = sealed.entries()
    shard_stream = StreamRegistry(MASTER_SEED).stream(
        "example", "harvest", "decisions",
        shard_size=SHARD, start_ordinal=SHARD,
    )
    shard_ledger = DecisionLedger(
        key, shard_size=SHARD,
        genesis=full_entries[SHARD - 1].hash, start_ordinal=SHARD,
    )
    shard = harvest_columns(
        UniformRandomPolicy(), contexts[SHARD: 2 * SHARD],
        lambda indices, actions: reward(indices + SHARD, actions),
        shard_stream,
        eligible=(0, 1, 2), batch_size=64, ledger=shard_ledger,
    )
    identical = (
        np.array_equal(shard.actions, columns.actions[SHARD: 2 * SHARD])
        and shard_ledger.seal().entries() == full_entries[SHARD: 2 * SHARD]
    )
    print(
        "middle shard re-derived in isolation: "
        f"{'bit-identical' if identical else 'DIVERGED'}"
    )
    print("done.")


if __name__ == "__main__":
    main()
