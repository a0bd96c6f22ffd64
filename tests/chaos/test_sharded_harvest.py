"""Sharded-harvest chaos: killed workers and corrupted shard payloads.

The coordinator's resilience contract: a SIGKILLed worker or an
in-transit payload corruption costs only the re-derivation of the
affected shards — the final spliced chain is bit-identical to an
unperturbed run (same rows, same head), and shards that already
completed are never recomputed.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.core import pool as worker_pool
from repro.core.coordinator import HarvestCoordinator, HarvestJob
from repro.core.policies import UniformRandomPolicy


@pytest.fixture(autouse=True)
def fresh_pool():
    worker_pool.reset_pool()
    yield
    worker_pool.reset_pool()


class KillOncePolicy(UniformRandomPolicy):
    """SIGKILLs the first worker process that samples through it.

    The flag file makes the kill one-shot across processes: retried
    shards (and the in-process fallback) complete normally.  Sampling
    probabilities are untouched, so an unperturbed
    :class:`UniformRandomPolicy` run is the bit-identical reference.
    """

    def __init__(self, flag_path: str) -> None:
        super().__init__()
        self.flag_path = flag_path

    def probabilities_batch(self, batch):
        if (
            multiprocessing.parent_process() is not None
            and not os.path.exists(self.flag_path)
        ):
            with open(self.flag_path, "w") as handle:
                handle.write("killed")
            os.kill(os.getpid(), signal.SIGKILL)
        return super().probabilities_batch(batch)


def job_for(policy, rows=200, shard_size=32):
    return HarvestJob(
        scenario="synthetic",
        rows=rows,
        master_seed=23,
        policy=policy,
        shard_size=shard_size,
        batch_size=32,
    )


@pytest.fixture()
def reference():
    result = HarvestCoordinator(job_for(UniformRandomPolicy()), workers=1).run()
    assert result.retries == 0
    return result


def assert_same_harvest(result, reference):
    np.testing.assert_array_equal(result.columns.actions, reference.columns.actions)
    np.testing.assert_array_equal(result.columns.rewards, reference.columns.rewards)
    np.testing.assert_array_equal(
        result.columns.propensities, reference.columns.propensities
    )
    assert result.head == reference.head
    assert result.ledger.entries() == reference.ledger.entries()


class TestKilledWorker:
    def test_sigkill_rederives_only_missing_shards(self, tmp_path, reference):
        policy = KillOncePolicy(str(tmp_path / "killed.flag"))
        coordinator = HarvestCoordinator(job_for(policy), workers=2)
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            result = coordinator.run()
        assert os.path.exists(policy.flag_path)  # the kill really fired
        assert result.retries >= 1
        # Only shards that had not completed when the pool died were
        # re-derived; a completed shard is never recomputed.
        retried = {i for i, n in coordinator.attempts.items() if n}
        assert retried  # the killed worker's shard is in here
        assert all(n <= 1 for n in coordinator.attempts.values())
        assert_same_harvest(result, reference)

    def test_verifies_after_crash(self, tmp_path, reference):
        from repro.audit.shards import verify_sharded_jsonl

        policy = KillOncePolicy(str(tmp_path / "killed.flag"))
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            result = HarvestCoordinator(job_for(policy), workers=2).run()
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
        assert entry["head"] == reference.head


class CorruptOnDelivery(HarvestCoordinator):
    """Flips one action in one shard's first delivered payload."""

    def __init__(self, *args, corrupt_index, **kwargs):
        super().__init__(*args, **kwargs)
        self.corrupt_index = corrupt_index
        self.deliveries = 0

    def _receive(self, spec, payload):
        if spec.index == self.corrupt_index and self.deliveries == 0:
            self.deliveries += 1
            payload = dict(payload)
            payload["actions"] = np.array(payload["actions"], copy=True)
            payload["actions"][-1] = (payload["actions"][-1] + 1) % 4
        return payload


class TestCorruptedPayload:
    def test_corruption_is_detected_and_shard_precise(self, reference):
        coordinator = CorruptOnDelivery(
            job_for(UniformRandomPolicy()), workers=2, corrupt_index=3
        )
        with pytest.warns(RuntimeWarning, match="re-deriving shard 3"):
            result = coordinator.run()
        assert coordinator.attempts[3] == 1
        assert all(
            n == 0 for i, n in coordinator.attempts.items() if i != 3
        )
        assert_same_harvest(result, reference)


class TestKillAndCorrupt:
    def test_combined_chaos_still_bit_identical(self, tmp_path, reference):
        policy = KillOncePolicy(str(tmp_path / "killed.flag"))
        coordinator = CorruptOnDelivery(
            job_for(policy), workers=2, corrupt_index=1
        )
        with pytest.warns(RuntimeWarning):
            result = coordinator.run()
        assert result.retries >= 1
        assert_same_harvest(result, reference)
