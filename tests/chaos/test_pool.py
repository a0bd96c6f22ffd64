"""Worker-pool chaos: killed workers must not change results or leak.

A SIGKILLed worker poisons the whole ``ProcessPoolExecutor``
(``BrokenProcessPool``).  The contract of :mod:`repro.core.pool` is
that every parallel caller catches it, resets the pool, recomputes
serially with *bit-identical* results, and releases every shared
segment it created along the way — a crash costs wall time, never
correctness and never ``/dev/shm``.
"""

import os
import signal

import multiprocessing
import numpy as np
import pytest

from repro.core import pool as worker_pool
from repro.core import shm
from repro.core.bootstrap import bootstrap_interval_from_terms
from repro.core.engine import evaluate_jsonl_chunked, use_engine
from repro.core.estimators.ips import IPSEstimator
from repro.core.policies import ConstantPolicy
from repro.core.types import ActionSpace, Dataset, Interaction, RewardRange

pytestmark = pytest.mark.skipif(
    not shm.available(), reason="shared memory unavailable"
)


class KillerPolicy(ConstantPolicy):
    """Kills the process on first batch — but only inside a worker.

    The parent-side serial fallback therefore completes normally and
    produces the reference result.
    """

    def probabilities_batch(self, batch):
        if multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().probabilities_batch(batch)


def make_dataset(n=150, seed=4):
    rng = np.random.default_rng(seed)
    rows = [
        Interaction({"x": float(i), "y": float(rng.uniform())},
                    int(rng.integers(0, 3)), float(rng.uniform()), 1 / 3,
                    timestamp=float(i))
        for i in range(n)
    ]
    return Dataset(rows, action_space=ActionSpace(3),
                   reward_range=RewardRange(0.0, 1.0))


@pytest.fixture(autouse=True)
def fresh_pool():
    """Isolate each test from pools poisoned by earlier kills."""
    worker_pool.reset_pool()
    yield
    worker_pool.reset_pool()


class TestKilledWorker:
    def test_shared_backend_falls_back_bit_identical(self):
        dataset = make_dataset()
        policy = KillerPolicy(1)
        with use_engine(chunk_size=25):
            ref = IPSEstimator().estimate(ConstantPolicy(1), dataset)
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            with use_engine(chunk_size=25, workers=2):
                survived = IPSEstimator().estimate(policy, dataset)
        assert survived.value == ref.value
        assert survived.std_error == ref.std_error
        dataset.columns().release_shared_block()
        assert shm.owned_segments() == ()

    def test_jsonl_driver_falls_back_bit_identical(self, tmp_path):
        dataset = make_dataset(n=120, seed=6)
        path = tmp_path / "log.jsonl"
        dataset.save_jsonl(str(path))
        serial = evaluate_jsonl_chunked(
            str(path), [ConstantPolicy(1)], [IPSEstimator()],
            chunk_size=20, workers=1,
        )
        with pytest.warns(RuntimeWarning, match="pool died"):
            survived = evaluate_jsonl_chunked(
                str(path), [KillerPolicy(1)], [IPSEstimator()],
                chunk_size=20, workers=2,
            )
        assert survived.results[0][0].value == serial.results[0][0].value
        assert (
            survived.results[0][0].std_error
            == serial.results[0][0].std_error
        )
        # Every one-shot chunk segment was released despite the crash.
        assert shm.owned_segments() == ()

    def test_pool_is_usable_after_reset(self):
        dataset = make_dataset(n=80, seed=7)
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            with use_engine(chunk_size=16, workers=2):
                IPSEstimator().estimate(KillerPolicy(0), dataset)
        # The reset pool serves the next parallel call as if nothing
        # happened — same results as serial, no lingering breakage.
        with use_engine(chunk_size=16):
            ref = IPSEstimator().estimate(ConstantPolicy(0), dataset)
        with use_engine(chunk_size=16, workers=2):
            again = IPSEstimator().estimate(ConstantPolicy(0), dataset)
        assert again.value == ref.value
        dataset.columns().release_shared_block()

    def test_bootstrap_shards_survive_broken_pool(self):
        # Poison the pool with a killed engine worker, then run a
        # parallel bootstrap: it must reset and still match serial.
        dataset = make_dataset(n=90, seed=8)
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            with use_engine(chunk_size=16, workers=2):
                IPSEstimator().estimate(KillerPolicy(0), dataset)
        dataset.columns().release_shared_block()
        terms = np.random.default_rng(1).random(1200)
        serial = bootstrap_interval_from_terms(
            terms, seed=9, n_boot=512, workers=1
        )
        parallel = bootstrap_interval_from_terms(
            terms, seed=9, n_boot=512, workers=2
        )
        assert (parallel.low, parallel.high) == (serial.low, serial.high)
        assert shm.owned_segments() == ()


class TestPoolMechanics:
    def test_pool_grows_by_recreation(self):
        worker_pool.get_pool(1)
        assert worker_pool.pool_size() == 1
        worker_pool.get_pool(3)
        assert worker_pool.pool_size() == 3
        # Asking for fewer reuses the larger pool.
        worker_pool.get_pool(2)
        assert worker_pool.pool_size() == 3

    def test_reset_without_pool_is_safe(self):
        worker_pool.reset_pool()
        worker_pool.reset_pool()
        assert worker_pool.pool_size() == 0

    def test_job_keys_are_unique(self):
        key_a, _ = worker_pool.new_job(("a",))
        key_b, _ = worker_pool.new_job(("b",))
        assert key_a != key_b
        assert key_a.startswith(f"{os.getpid()}:")
