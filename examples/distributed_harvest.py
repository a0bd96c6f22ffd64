"""Sharded harvest — one pass, one verified chain, shards auditable alone.

The sharded harvest path (ADR-0002): a :class:`HarvestCoordinator`
samples every row in one pass over one HKDF stream and seals one hash
chain; the shard grid (rows ``[k·S, (k+1)·S)``) is the audit record:

1. harvest a ledgered job;
2. inspect the shard map (per-shard boundary hashes);
3. save the log and verify it per shard against the manifest entry;
4. re-derive one shard in isolation from (master seed, key, ordinal)
   and its recorded ``prev``.

Run:  python examples/distributed_harvest.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.audit.ledger import DecisionLedger
from repro.audit.shards import verify_sharded_jsonl
from repro.audit.streams import StreamRegistry, StreamRNG
from repro.core.coordinator import (
    HarvestCoordinator,
    HarvestJob,
    build_inputs,
)
from repro.core.harvest import harvest_columns
from repro.core.policies import UniformRandomPolicy

MASTER_SEED = 2017
ROWS = 600
SHARD = 128


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-sharded-"))
    job = HarvestJob(
        scenario="loadbalance",
        rows=ROWS,
        master_seed=MASTER_SEED,
        policy=UniformRandomPolicy(),
        shard_size=SHARD,
        batch_size=64,
        config={"seed": 11, "latency_noise": 0.01},
    )

    # -- 1. one pass, one chain -------------------------------------------
    result = HarvestCoordinator(job).run()
    print(
        f"harvested {result.columns.n} rows in "
        f"{len(result.plan)} shard(s) of {SHARD}"
    )
    print(f"chain head: {result.head[:16]}…")

    # -- 2. the shard map: boundary hashes are the audit record -----------
    for shard in result.shard_map:
        print(
            f"  shard {shard['index']} rows "
            f"[{shard['start']}, {shard['start'] + shard['n']}) "
            f"prev {shard['prev'][:8]}… head {shard['head'][:8]}…"
        )

    # -- 3. save, then verify each shard against the manifest entry -------
    dataset = result.columns.to_dataset()
    result.annotate(dataset)
    log_path = workdir / "sharded.jsonl"
    dataset.save_jsonl(str(log_path))
    entry = result.manifest_entry()
    verification = verify_sharded_jsonl(
        str(log_path),
        entry["shards"],
        expected_head=entry["head"],
        expected_n=entry["n"],
    )
    print(
        "per-shard verification: "
        f"{'OK' if verification.ok else 'FAILED'} — "
        f"{len(entry['shards'])} shard(s)"
    )

    # -- 4. fork equivalence: one shard re-derives in isolation -----------
    spec, shard = result.plan[1], result.shard_map[1]
    registry = StreamRegistry(MASTER_SEED)
    inputs = build_inputs(job, registry)
    stream = StreamRNG(
        registry, job.stream_key(),
        shard_size=SHARD, start_ordinal=spec.start,
    )
    ledger = DecisionLedger(
        job.stream_key(), genesis=shard["prev"], start_ordinal=spec.start
    )
    contexts, context_ids = inputs.context_slice(spec.start, spec.stop)
    shard_columns = harvest_columns(
        job.policy,
        contexts,
        lambda indices, actions: inputs.reward_fn(
            indices + spec.start, actions
        ),
        stream,
        eligible=inputs.eligible_slice(spec.start, spec.stop),
        action_space=inputs.action_space,
        batch_size=64,
        scenario=job.scenario,
        ledger=ledger,
        context_ids=context_ids,
    )
    rederived = (
        np.array_equal(
            shard_columns.actions,
            result.columns.actions[spec.start: spec.stop],
        )
        and np.array_equal(
            shard_columns.rewards,
            result.columns.rewards[spec.start: spec.stop],
        )
        and ledger.head == shard["head"]
    )
    print(
        f"shard {spec.index} re-derived in isolation: "
        f"{'bit-identical' if rederived else 'DIVERGED'}"
    )
    print("done.")


if __name__ == "__main__":
    main()
