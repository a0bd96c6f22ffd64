"""Worker-pool chaos: killed workers must not change results.

A SIGKILLed worker poisons the whole ``ProcessPoolExecutor``
(``BrokenProcessPool``).  The contract of :mod:`repro.core.pool` is
that every parallel caller catches it, resets the pool, and recomputes
serially with *bit-identical* results — a crash costs wall time, never
correctness — and that the next parallel call runs in a fresh pool.
"""

import multiprocessing
import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.core import pool as worker_pool
from repro.core.bootstrap import bootstrap_interval_from_terms
from repro.obs.metrics import use_metrics


def _kill_own_worker():
    """Pool task: SIGKILL the worker process that runs it."""
    os.kill(os.getpid(), signal.SIGKILL)


def poison_pool(workers=2):
    """Leave the shared pool broken by a worker that died mid-task."""
    future = worker_pool.get_pool(workers).submit(_kill_own_worker)
    with pytest.raises(worker_pool.BrokenProcessPool):
        future.result(timeout=60)


@pytest.fixture(autouse=True)
def fresh_pool():
    """Isolate each test from pools poisoned by earlier kills."""
    worker_pool.reset_pool()
    yield
    worker_pool.reset_pool()


@pytest.fixture()
def terms():
    return np.random.default_rng(1).random(1200)


def interval(terms, workers):
    return bootstrap_interval_from_terms(
        terms, seed=9, n_boot=512, workers=workers
    )


class TestKilledWorker:
    def test_bootstrap_shards_survive_broken_pool(self, terms):
        # 512 replicates are two shards, so workers=2 submits to the
        # poisoned pool; it must reset and still match serial.
        serial = interval(terms, workers=1)
        poison_pool()
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            survived = interval(terms, workers=2)
        assert (survived.low, survived.high) == (serial.low, serial.high)
        assert worker_pool.pool_size() == 0  # the broken pool is gone

    def test_pool_is_usable_after_reset(self, terms):
        serial = interval(terms, workers=1)
        poison_pool()
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            interval(terms, workers=2)
        # The next parallel call runs in a recreated pool as if nothing
        # happened — same interval as serial, no warning, no reset.
        with warnings.catch_warnings(), use_metrics() as metrics:
            warnings.simplefilter("error")
            again = interval(terms, workers=2)
        assert (again.low, again.high) == (serial.low, serial.high)
        assert metrics.total("pool.created") == 1
        assert metrics.total("pool.resets") == 0
        assert worker_pool.pool_size() == 2


def started_workers(start):
    """Run ``start()`` and return the child processes it started."""
    before = set(multiprocessing.active_children())
    start()
    return set(multiprocessing.active_children()) - before


class TestDiscardedWorkers:
    """Discarding a pool joins its workers before the call returns."""

    def test_reset_joins_a_healthy_pools_workers(self, terms):
        workers = started_workers(lambda: interval(terms, workers=2))
        assert workers
        worker_pool.reset_pool()
        assert not [p for p in workers if p.is_alive()]

    def test_growing_joins_the_smaller_pools_workers(self):
        workers = started_workers(
            lambda: worker_pool.get_pool(1).submit(os.getpid).result(60)
        )
        assert workers
        worker_pool.get_pool(2)
        assert not [p for p in workers if p.is_alive()]

    def test_reset_after_a_kill_returns_promptly(self):
        # Snapshot the workers while they are healthy: a killed one is
        # reaped at once, and the manager may already be ending the rest.
        workers = started_workers(
            lambda: worker_pool.get_pool(2).submit(os.getpid).result(60)
        )
        assert workers
        poison_pool(workers=2)
        began = time.perf_counter()
        worker_pool.reset_pool()
        # The broken pool's manager already ended its workers, so the
        # join has nothing to wait for.
        assert time.perf_counter() - began < 5.0
        assert not [p for p in workers if p.is_alive()]


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
