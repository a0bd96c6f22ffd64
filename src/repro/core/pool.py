"""Persistent worker pool shared by harvest shards and bootstrap shards.

The parallel paths used to build a fresh ``ProcessPoolExecutor`` per
call, paying fork/teardown for every harvest and every bootstrap
interval — and a fresh pool means fresh workers that re-unpickle every
job.  This module keeps **one** lazily created executor for the whole
process:

- :func:`get_pool` returns the singleton, growing it (by recreating)
  when a caller asks for more workers than it was built with.
- Workers cache job context (the once-pickled harvest job blob) by job
  key via :func:`job_payload`, so a job's context crosses the pickle
  machinery once per worker no matter how many shards it spans.
- :func:`reset_pool` discards a broken executor (a killed worker
  poisons the whole pool — ``BrokenProcessPool``); callers then fall
  back to bit-identical serial recomputation.
- An ``atexit`` hook shuts the pool down so worker processes never
  outlive the parent.

Per-task observability survives pool reuse because workers open a
*fresh* :class:`~repro.obs.tracing.Tracer` per traced task and ship
the span dict home with the result — nothing accumulates in worker
globals between tasks.  The watchtower layer rides the same contract:
monitored tasks run under a fresh
:class:`~repro.obs.monitors.MonitorSuite` and ship their mergeable
states home, profiled tasks under a fresh
:class:`~repro.obs.profiler.SpanProfiler` and ship their flame
tables; the parent absorbs both exactly where it grafts spans.  Pool
churn is itself telemetry: ``pool.created`` / ``pool.resets``
counters feed the dashboard, and coordinator-level retries feed the
``retry_storm`` monitor.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from repro.obs.metrics import get_metrics

__all__ = [
    "BrokenProcessPool",
    "get_pool",
    "job_payload",
    "new_job",
    "pool_size",
    "reset_pool",
    "shutdown_pool",
]

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_job_counter = itertools.count(1)

#: Worker-side cache of unpickled job blobs, keyed by job key.  Small:
#: a worker only ever serves a handful of concurrent jobs.
_JOB_CACHE: dict = {}
_JOB_CACHE_SIZE = 4


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent executor, sized for at least ``workers`` workers.

    Created lazily on first use; asking for more workers than the
    current pool has recreates it larger (asking for fewer reuses the
    existing, bigger pool).
    """
    global _pool, _pool_workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if _pool is not None and _pool_workers < workers:
        _shutdown(wait=False)
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
        get_metrics().counter("pool.created").inc()
    return _pool


def pool_size() -> int:
    """Worker count of the live pool (0 when no pool exists)."""
    return _pool_workers if _pool is not None else 0


def _shutdown(wait: bool) -> None:
    global _pool, _pool_workers
    pool, _pool, _pool_workers = _pool, None, 0
    if pool is not None:
        try:
            pool.shutdown(wait=wait, cancel_futures=True)
        except Exception:  # pragma: no cover - already-broken executors
            pass


def reset_pool() -> None:
    """Discard the pool (after ``BrokenProcessPool``); next use recreates.

    Safe to call when no pool exists.
    """
    _shutdown(wait=False)
    get_metrics().counter("pool.resets").inc()


def shutdown_pool() -> None:
    """Shut the pool down cleanly (process exit, or tests)."""
    _shutdown(wait=True)


atexit.register(shutdown_pool)


def new_job(context) -> tuple:
    """Serialize a job's shared context exactly once.

    Returns ``(job_key, blob)``.  The blob rides inside every task
    payload of the job, but workers unpickle it only on first sight
    (see :func:`job_payload`) — the per-task cost after that is the
    bytes transfer, not reconstruction.  Raising here (an unpicklable
    policy) doubles as the picklability probe: callers catch and fall
    back to serial execution.
    """
    key = f"{os.getpid()}:{next(_job_counter)}"
    return key, pickle.dumps(context)


def job_payload(job_key: str, blob: bytes):
    """Worker-side: the job context, unpickled once per worker.

    Cache keyed by ``job_key`` (process id + counter, so keys never
    collide across parent restarts); a tiny LRU keeps concurrent jobs
    from thrashing each other.
    """
    cached = _JOB_CACHE.get(job_key)
    if cached is None:
        while len(_JOB_CACHE) >= _JOB_CACHE_SIZE:
            _JOB_CACHE.pop(next(iter(_JOB_CACHE)))
        cached = pickle.loads(blob)
        _JOB_CACHE[job_key] = cached
    return cached
