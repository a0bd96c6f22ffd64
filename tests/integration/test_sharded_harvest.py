"""One-pass harvest ≡ its shards re-derived in isolation, per scenario.

Every harvest is one pass over one ledger, on the HKDF shard grid.
The grid is the audit record: for every scenario, each shard of the
one-pass log must re-derive in isolation — stream at the shard's start
ordinal, ledger anchored at the shard map's recorded ``prev`` — to the
same rows and to the recorded ``head``, and splicing the isolated
shards' digests must rebuild the one-pass ledger entry for entry.
"""

import numpy as np
import pytest

from repro.audit.ledger import GENESIS
from repro.audit.shards import splice_payloads, verify_sharded_jsonl
from repro.audit.streams import StreamRegistry
from repro.core.coordinator import HarvestCoordinator, HarvestJob, build_inputs
from repro.core.policies import UniformRandomPolicy
from tests import oracles

JOBS = {
    "machinehealth": dict(
        rows=300, shard_size=64, config={"seed": 3, "n_machines": 120}
    ),
    "loadbalance": dict(
        rows=300, shard_size=64, config={"seed": 4, "latency_noise": 0.01}
    ),
    "cache": dict(rows=2500, shard_size=64, config={"seed": 5}),
}


def job_for(scenario):
    spec = JOBS[scenario]
    return HarvestJob(
        scenario=scenario,
        rows=spec["rows"],
        master_seed=2017,
        policy=UniformRandomPolicy(),
        shard_size=spec["shard_size"],
        batch_size=50,
        config=spec["config"],
    )


@pytest.fixture(scope="module", params=sorted(JOBS))
def scenario_harvest(request):
    """(job, one-pass result, isolated shards) — computed once per scenario.

    The shards rebuild the scenario inputs themselves, so they share
    nothing with the one pass but the job.
    """
    job = job_for(request.param)
    result = HarvestCoordinator(job).run()
    inputs = build_inputs(job, StreamRegistry(job.master_seed))
    shards = [
        oracles.harvest_shard(job, inputs, spec, prev=entry["prev"])
        for spec, entry in zip(result.plan, result.shard_map)
    ]
    return job, result, shards


class TestShardedEqualsSerial:
    def test_rows_and_head_bit_identical(self, scenario_harvest):
        job, result, shards = scenario_harvest
        assert len(result.plan) > 1
        assert result.plan.shard_size == job.shard_size
        for spec, entry, (columns, ledger) in zip(
            result.plan, result.shard_map, shards
        ):
            rows = slice(spec.start, spec.stop)
            np.testing.assert_array_equal(
                columns.actions, result.columns.actions[rows]
            )
            np.testing.assert_array_equal(
                columns.rewards, result.columns.rewards[rows]
            )
            np.testing.assert_array_equal(
                columns.propensities, result.columns.propensities[rows]
            )
            assert ledger.head == entry["head"]
        assert shards[-1][1].head == result.head

    def test_shard_map_matches_serial_boundary_hashes(self, scenario_harvest):
        _, result, _ = scenario_harvest
        entries = result.sealed.entries()
        assert result.shard_map[0]["prev"] == GENESIS
        for spec, shard in zip(result.plan, result.shard_map):
            assert shard == {
                "index": spec.index,
                "start": spec.start,
                "n": spec.n,
                "prev": entries[spec.start - 1].hash if spec.start else GENESIS,
                "head": entries[spec.stop - 1].hash,
            }

    def test_splice_of_isolated_shards_equals_one_pass(self, scenario_harvest):
        job, result, shards = scenario_harvest
        payloads = []
        for spec, (columns, ledger) in zip(result.plan, shards):
            sealed = ledger.seal()
            payloads.append(
                {
                    "start": spec.start,
                    "context_shas": sealed.context_shas,
                    "actions": columns.actions,
                    "propensities": columns.propensities,
                }
            )
        spliced, shard_map = splice_payloads(
            job.stream_key(),
            payloads,
            shard_size=job.shard_size,
            master_fingerprint=result.registry.master_fingerprint,
        )
        assert spliced.seal().entries() == result.sealed.entries()
        assert spliced.manifest_entry() == result.ledger.manifest_entry()
        assert shard_map == result.shard_map

    def test_dataset_round_trip_verifies(self, scenario_harvest, tmp_path):
        _, result, _ = scenario_harvest
        dataset = result.columns.to_dataset()
        result.annotate(dataset)
        path = tmp_path / "sharded.jsonl"
        dataset.save_jsonl(str(path))
        entry = result.manifest_entry()
        verification = verify_sharded_jsonl(
            str(path),
            entry["shards"],
            expected_head=entry["head"],
            expected_n=entry["n"],
        )
        assert verification.ok
