"""Bootstrap confidence intervals for off-policy estimates.

IPS terms are heavy-tailed — mostly zeros plus occasional spikes of
``r/p`` — so normal-approximation intervals can be optimistic at small
N, while Hoeffding/Bernstein are valid but conservative.  The
percentile bootstrap sits in between and is the interval practitioners
actually quote: resample the per-interaction terms with replacement,
recompute the mean, and take empirical quantiles.

The resampling operates on *term vectors*, not the dataset, and one
index draw serves a whole policy class: :func:`bootstrap_interval_from_terms`
takes a ``(P, n)`` matrix with one row per policy and gathers every
row from the same replicate indices, so scoring P policies costs one
draw plus P gathers.  Each row's interval is exactly the one its
vector would get alone.

One kernel (:func:`_block_sums`) does every resample.  It draws the
``(count, n)`` index matrix in consecutive row blocks of at most
:data:`BLOCK_BYTES` and gathers every row from each block before
drawing the next.  Consecutive draws from one ``Generator`` continue
its stream, so the blocks are exactly the rows of the single big
draw, and each replicate is the same contiguous pairwise sum — the
intervals are bit-identical to drawing the whole matrix, while a
call's memory stays about two blocks whatever the log's size.

Replicates are generated in fixed **shards** of
:data:`BOOTSTRAP_SHARD`: shard ``s`` draws its indices from
``np.random.default_rng((seed, s))``, independent of every other
shard.  That makes the replicate set a pure function of ``(seed,
n_boot, n)`` — the same shards can be computed serially or fanned
across a worker pool and concatenated in shard order, and the
resulting percentile interval is *bit-for-bit identical* either way
(asserted by ``tests/core/test_bootstrap.py``).  Parallel runs go
through the persistent pool (:mod:`repro.core.pool`); each shard task
ships the term matrix once and returns every row's replicates.
Passing an explicit ``rng`` instead of a ``seed`` keeps the
historical single stream (one shard of ``n_boot`` replicates), which
cannot be parallelized deterministically.
"""

from __future__ import annotations

import time
import warnings
from typing import Optional, Union

import numpy as np

from repro.core.estimators.bounds import ConfidenceInterval
from repro.core.estimators.ips import IPSEstimator, SNIPSEstimator
from repro.core.policies import Policy
from repro.core.types import Dataset
from repro.obs.metrics import get_metrics
from repro.obs.tracing import get_tracer

#: Replicates per shard.  Small enough that n_boot=1000 splits across a
#: few workers, large enough that each shard is one real matrix op.
BOOTSTRAP_SHARD = 256

#: Bytes one block of replicates may hold: its int64 indices plus the
#: float64 values one row gathers through them (16 bytes per resampled
#: term).  A constant, not a knob: 8 MB measured as fast as any other
#: size at 20k and 200k rows, and it bounds a call's transient memory
#: whatever the log's size, the replicate count or the number of rows
#: (a block holds at least one replicate, so above 512Ki terms a block
#: is one replicate of ``16 * n`` bytes).
BLOCK_BYTES = 8 * 2**20


def _shard_sizes(n_boot: int) -> list[int]:
    """Split ``n_boot`` replicates into BOOTSTRAP_SHARD-sized shards."""
    full, rest = divmod(n_boot, BOOTSTRAP_SHARD)
    return [BOOTSTRAP_SHARD] * full + ([rest] if rest else [])


def _block_sums(
    columns: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sums of ``count`` resamples of every row of ``columns``.

    Returns a ``(len(columns), count)`` array whose column ``b`` sums
    each row over the indices of replicate ``b`` — row ``b`` of one
    ``(count, n)`` draw from ``rng``.  The draw is made in consecutive
    blocks of at most :data:`BLOCK_BYTES`, and every row gathers from a
    block before the next is drawn (see the module docstring for why
    that is bit-identical to the single draw).
    """
    n = columns.shape[1]
    sums = np.empty((len(columns), count))
    step = max(1, BLOCK_BYTES // (16 * n))
    for start in range(0, count, step):
        stop = min(start + step, count)
        indices = rng.integers(0, n, size=(stop - start, n))
        for row, values in enumerate(columns):
            sums[row, start:stop] = np.take(values, indices).sum(axis=1)
    return sums


def _seeded_shard(payload) -> np.ndarray:
    """One seeded shard's sums (top-level: picklable for workers)."""
    columns, count, seed, shard = payload
    return _block_sums(columns, count, np.random.default_rng((seed, shard)))


def _traced_shard(item):
    """One seeded shard in a pool worker, timed, traced/profiled on request.

    Returns ``(sums, seconds, span_dict, profile_dict)`` — the latter
    two ``None`` unless tracing/profiling was requested (profiles
    graft home like span trees do).
    """
    payload, traced, profiled = item
    _columns, count, _seed, shard = payload
    profiler = None
    if profiled:
        from repro.obs.profiler import SpanProfiler

        profiler = SpanProfiler()
        profiler.start()
    start = time.perf_counter()
    try:
        if traced:
            from repro.obs.tracing import Tracer, use_tracer

            tracer = Tracer()
            with use_tracer(tracer):
                with tracer.span(
                    "bootstrap.shard",
                    shard=shard,
                    replicates=count,
                    worker=True,
                ):
                    sums = _seeded_shard(payload)
            span_dict = tracer.span_tree()[0]
        else:
            sums = _seeded_shard(payload)
            span_dict = None
    finally:
        if profiler is not None:
            profiler.stop()
    profile_dict = profiler.to_dict() if profiler is not None else None
    return sums, time.perf_counter() - start, span_dict, profile_dict


def _parallel_shard_outcomes(columns, payloads, workers, traced):
    """Fan the seeded shards across the persistent pool; ``None`` on failure.

    Each shard task pickles the term matrix once with its own
    counters.  Returns ``(sums, seconds, span_dict)`` per shard, after
    absorbing the shards' profiles into the ambient profiler.  A broken
    pool (killed worker) resets the pool and returns ``None`` — the
    caller recomputes serially, which is bit-identical by construction.
    This is the only path that needs the pool and the profiler, so it
    imports them itself.
    """
    from repro.core import pool as worker_pool
    from repro.obs.profiler import get_profiler

    profiler = get_profiler()
    try:
        executor = worker_pool.get_pool(workers)
        futures = [
            executor.submit(
                _traced_shard, ((columns,) + tail, traced, profiler.enabled)
            )
            for tail in payloads
        ]
        outcomes = [future.result() for future in futures]
    except worker_pool.BrokenProcessPool:
        worker_pool.reset_pool()
        warnings.warn(
            "bootstrap worker pool died; recomputing shards serially "
            "(the interval is unaffected)",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    for _sums, _seconds, _span_dict, profile_dict in outcomes:
        if profile_dict is not None:
            profiler.absorb(profile_dict)
    return [outcome[:3] for outcome in outcomes]


def _replicate_sums(
    columns: np.ndarray,
    n_boot: int,
    rng: Optional[np.random.Generator],
    seed: Optional[int],
    workers: int,
) -> np.ndarray:
    """``(len(columns), n_boot)`` resampled row sums: one draw for every row.

    With ``seed`` the replicates come in :data:`BOOTSTRAP_SHARD` shards,
    each a deterministic function of ``(seed, shard index)``, run
    serially or in the pool and concatenated in index order — so the
    output is identical for any ``workers``.  Without one, ``rng``
    (default ``default_rng(0)``) is the single historical stream, run
    as one serial shard of ``n_boot`` replicates.  Either way the draw
    lands one ``bootstrap.replicates`` span (recording ``policies``,
    the row count) with one ``bootstrap.shard`` child per shard (pool
    shards are serialized home), and counts once in the
    ``bootstrap.*`` metrics however many rows share it.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    if seed is None:
        rng = rng if rng is not None else np.random.default_rng(0)
        payloads = [(n_boot, None, 0)]
    else:
        payloads = [
            (count, seed, shard)
            for shard, count in enumerate(_shard_sizes(n_boot))
        ]
    shard_seconds = metrics.histogram("bootstrap.shard_seconds")
    shard_count = metrics.counter("bootstrap.shards")
    with tracer.span(
        "bootstrap.replicates",
        n_boot=n_boot,
        seed=seed,
        workers=workers,
        shards=len(payloads),
        policies=len(columns),
    ):
        outcomes = None
        if workers > 1 and len(payloads) > 1:
            outcomes = _parallel_shard_outcomes(
                columns, payloads, workers, tracer.enabled
            )
        if outcomes is None:
            outcomes = []
            for tail in payloads:
                count, _seed, shard = tail
                start = time.perf_counter()
                with tracer.span(
                    "bootstrap.shard", shard=shard, replicates=count
                ):
                    # The ambient profiler (if any) samples this path
                    # directly; only pool shards ship profiles home.
                    if seed is None:
                        sums = _block_sums(columns, count, rng)
                    else:
                        sums = _seeded_shard((columns,) + tail)
                outcomes.append((sums, time.perf_counter() - start, None))
        shards = []
        for sums, seconds, span_dict in outcomes:
            shard_seconds.observe(seconds)
            shard_count.inc()
            if span_dict is not None:
                tracer.attach(span_dict)
            shards.append(sums)
    metrics.counter("bootstrap.replicates").inc(n_boot)
    return np.concatenate(shards, axis=1)


def _percentile_interval(
    replicates: np.ndarray, delta: float
) -> ConfidenceInterval:
    low = float(np.quantile(replicates, delta / 2.0))
    high = float(np.quantile(replicates, 1.0 - delta / 2.0))
    return ConfidenceInterval(low, high, 1.0 - delta)


def _check_replication(
    n_boot: int,
    delta: float,
    rng: Optional[np.random.Generator],
    seed: Optional[int],
    workers: int,
) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if n_boot < 10:
        raise ValueError("n_boot too small to estimate quantiles")
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and seed is None:
        raise ValueError(
            "parallel bootstrap requires a seed: the legacy rng stream "
            "cannot be split across workers deterministically"
        )


def bootstrap_interval_from_terms(
    terms: np.ndarray,
    delta: float = 0.05,
    n_boot: int = 1000,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    workers: int = 1,
) -> Union[ConfidenceInterval, list[ConfidenceInterval]]:
    """Percentile-bootstrap CI for the mean of ``terms``.

    ``terms`` is one term vector, which returns one interval, or a
    ``(P, n)`` matrix with one row per policy, which returns a list of
    P intervals.  Every row is resampled with the same replicate
    indices (one draw for the whole matrix), and each row's interval
    equals the one that row alone would get.  With ``seed`` the
    replicates come from the sharded generator and ``workers`` may fan
    the shards across processes without changing the interval; with
    ``rng`` (or neither) the historical single stream is used and must
    stay serial.
    """
    terms = np.asarray(terms, dtype=float)
    if terms.ndim > 2:
        raise ValueError(
            f"terms must be a vector or a (P, n) matrix, got {terms.ndim} "
            "dimensions"
        )
    columns = np.atleast_2d(terms)
    if columns.shape[1] < 2:
        raise ValueError("need at least two terms to bootstrap")
    _check_replication(n_boot, delta, rng, seed, workers)
    # Sum then divide: exactly what ``mean(axis=1)`` computes.
    means = _replicate_sums(columns, n_boot, rng, seed, workers)
    means /= columns.shape[1]
    intervals = [_percentile_interval(row, delta) for row in means]
    return intervals[0] if terms.ndim < 2 else intervals


def bootstrap_ips_interval(
    policy: Policy,
    dataset: Dataset,
    delta: float = 0.05,
    n_boot: int = 1000,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    workers: int = 1,
) -> ConfidenceInterval:
    """Bootstrap CI for a policy's IPS value on an exploration log.

    The IPS terms come from the dataset's cached columnar view (shared
    with any other estimator runs); the resampling operates on that
    term vector.  ``seed``/``workers`` select the sharded replicate
    generator (see module docstring).
    """
    terms = IPSEstimator().weighted_rewards(policy, dataset)
    return bootstrap_interval_from_terms(
        terms, delta, n_boot, rng, seed=seed, workers=workers
    )


def bootstrap_snips_interval(
    policy: Policy,
    dataset: Dataset,
    delta: float = 0.05,
    n_boot: int = 1000,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    workers: int = 1,
) -> ConfidenceInterval:
    """Bootstrap confidence interval for SNIPS.

    Resamples (weight, weighted-reward) pairs jointly, since the
    estimator is a ratio of means.
    """
    snips = SNIPSEstimator()
    weights = snips.match_weights(policy, dataset)
    rewards = dataset.rewards()
    if weights.size < 2:
        raise ValueError("need at least two interactions")
    if weights.sum() == 0:
        raise ValueError("candidate never matches the log; no information")
    _check_replication(n_boot, delta, rng, seed, workers)
    num, den = _replicate_sums(
        np.stack([weights * rewards, weights]), n_boot, rng, seed, workers
    )
    ratios = np.divide(num, den, out=np.full(n_boot, np.nan), where=den > 0)
    ratios = ratios[np.isfinite(ratios)]
    if ratios.size < n_boot // 2:
        raise ValueError(
            "too few matching interactions for a stable bootstrap"
        )
    return _percentile_interval(ratios, delta)
