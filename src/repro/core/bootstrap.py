"""Bootstrap confidence intervals for off-policy estimates.

IPS terms are heavy-tailed — mostly zeros plus occasional spikes of
``r/p`` — so normal-approximation intervals can be optimistic at small
N, while Hoeffding/Bernstein are valid but conservative.  The
percentile bootstrap sits in between and is the interval practitioners
actually quote: resample the per-interaction terms with replacement,
recompute the mean, and take empirical quantiles.

The resampling operates on the *term vector*, not the dataset, so a
thousand bootstrap replicates of a million-point log cost a handful of
matrix-multiplies — cheap enough to run on every evaluation.

Replicates are generated in fixed **shards** of
:data:`BOOTSTRAP_SHARD`: shard ``s`` draws its index matrix from
``np.random.default_rng((seed, s))``, independent of every other
shard.  That makes the replicate set a pure function of ``(seed,
n_boot, len(terms))`` — the same shards can be computed serially or
fanned across a worker pool and concatenated in shard order, and the
resulting percentile interval is *bit-for-bit identical* either way
(asserted by ``tests/core/test_bootstrap.py``).  Parallel runs go
through the persistent pool (:mod:`repro.core.pool`), each shard task
carrying its own pickled copy of the term vectors.  Passing an
explicit ``rng`` instead of a ``seed`` keeps the historical
single-stream behavior, which cannot be parallelized
deterministically.
"""

from __future__ import annotations

import time
import warnings
from typing import Optional

import numpy as np

from repro.core import pool as worker_pool
from repro.core.estimators.bounds import ConfidenceInterval
from repro.core.estimators.ips import IPSEstimator, SNIPSEstimator
from repro.core.policies import Policy
from repro.core.pool import BrokenProcessPool
from repro.core.types import Dataset
from repro.obs.metrics import get_metrics
from repro.obs.profiler import get_profiler
from repro.obs.tracing import get_tracer

#: Replicates per shard.  Small enough that n_boot=1000 splits across a
#: few workers, large enough that each shard is one real matrix op.
BOOTSTRAP_SHARD = 256


def _shard_sizes(n_boot: int) -> list[int]:
    """Split ``n_boot`` replicates into BOOTSTRAP_SHARD-sized shards."""
    full, rest = divmod(n_boot, BOOTSTRAP_SHARD)
    return [BOOTSTRAP_SHARD] * full + ([rest] if rest else [])


def _mean_shard(payload) -> np.ndarray:
    """One shard of resampled means (top-level: picklable for workers)."""
    terms, count, seed, shard = payload
    rng = np.random.default_rng((seed, shard))
    indices = rng.integers(0, terms.size, size=(count, terms.size))
    return terms[indices].mean(axis=1)


def _ratio_shard(payload) -> np.ndarray:
    """One shard of resampled SNIPS ratios (jointly resampled pairs)."""
    numerators, weights, count, seed, shard = payload
    rng = np.random.default_rng((seed, shard))
    indices = rng.integers(0, weights.size, size=(count, weights.size))
    num = numerators[indices].sum(axis=1)
    den = weights[indices].sum(axis=1)
    return np.divide(num, den, out=np.full(count, np.nan), where=den > 0)


def _traced_shard(item):
    """Run one shard in a worker, timing it (and tracing/profiling when asked).

    The payload's last three entries are always ``(count, seed,
    shard)``, so the span can be labeled without knowing which shard
    function is running.  Returns ``(replicates, seconds, span_dict,
    profile_dict)`` — the latter two ``None`` unless tracing/profiling
    was requested (profiles graft home like span trees do).
    """
    shard_fn, payload, traced, profiled = item
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
                    shard=payload[-1],
                    replicates=payload[-3],
                    worker=True,
                ):
                    replicates = shard_fn(payload)
            span_dict = tracer.span_tree()[0]
        else:
            replicates = shard_fn(payload)
            span_dict = None
    finally:
        if profiler is not None:
            profiler.stop()
    profile_dict = profiler.to_dict() if profiler is not None else None
    return replicates, time.perf_counter() - start, span_dict, profile_dict


def _parallel_shard_outcomes(
    shard_fn, static_args, payloads, workers, traced, profiled
):
    """Fan the shards across the persistent pool; ``None`` on failure.

    Each shard task pickles the static term vectors with its own
    counters.  A broken pool (killed worker) resets the pool and
    returns ``None`` — the caller recomputes serially, which is
    bit-identical by construction.
    """
    try:
        executor = worker_pool.get_pool(workers)
        futures = [
            executor.submit(
                _traced_shard,
                (shard_fn, static_args + tail, traced, profiled),
            )
            for tail in payloads
        ]
        return [future.result() for future in futures]
    except BrokenProcessPool:
        worker_pool.reset_pool()
        warnings.warn(
            "bootstrap worker pool died; recomputing shards serially "
            "(the interval is unaffected)",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def _sharded_replicates(
    shard_fn, static_args: tuple, n_boot: int, seed: int, workers: int
) -> np.ndarray:
    """Run the shard function over every shard, serially or in a pool.

    Each shard is a deterministic function of ``(seed, shard index)``,
    and shards concatenate in index order — so the output is identical
    for any ``workers`` value.  Every shard lands a
    ``bootstrap.shard`` span (worker shards are serialized home) and
    feeds the ``bootstrap.shard_seconds`` histogram.  Parallel runs go
    through the persistent worker pool (see
    :func:`_parallel_shard_outcomes`).
    """
    tracer = get_tracer()
    metrics = get_metrics()
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
    ):
        outcomes = None
        if workers > 1 and len(payloads) > 1:
            outcomes = _parallel_shard_outcomes(
                shard_fn,
                static_args,
                payloads,
                workers,
                tracer.enabled,
                get_profiler().enabled,
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
                    replicates = shard_fn(static_args + tail)
                outcomes.append(
                    (replicates, time.perf_counter() - start, None, None)
                )
        profiler = get_profiler()
        shards = []
        for replicates, seconds, span_dict, profile_dict in outcomes:
            shard_seconds.observe(seconds)
            shard_count.inc()
            if span_dict is not None:
                tracer.attach(span_dict)
            if profile_dict is not None:
                profiler.absorb(profile_dict)
            shards.append(replicates)
    metrics.counter("bootstrap.replicates").inc(n_boot)
    return np.concatenate(shards)


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
) -> ConfidenceInterval:
    """Percentile-bootstrap CI for the mean of ``terms``.

    With ``seed`` the replicates come from the sharded generator and
    ``workers`` may fan the shards across processes without changing
    the interval; with ``rng`` (or neither) the historical single
    stream is used and must stay serial.
    """
    terms = np.asarray(terms, dtype=float)
    if terms.size < 2:
        raise ValueError("need at least two terms to bootstrap")
    _check_replication(n_boot, delta, rng, seed, workers)
    if seed is not None:
        means = _sharded_replicates(
            _mean_shard, (terms,), n_boot, seed, workers
        )
    else:
        rng = rng or np.random.default_rng(0)
        indices = rng.integers(0, terms.size, size=(n_boot, terms.size))
        means = terms[indices].mean(axis=1)
    low = float(np.quantile(means, delta / 2.0))
    high = float(np.quantile(means, 1.0 - delta / 2.0))
    return ConfidenceInterval(low, high, 1.0 - delta)


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
    numerators = weights * rewards
    if seed is not None:
        ratios = _sharded_replicates(
            _ratio_shard, (numerators, weights), n_boot, seed, workers
        )
    else:
        rng = rng or np.random.default_rng(0)
        indices = rng.integers(0, weights.size, size=(n_boot, weights.size))
        num = numerators[indices].sum(axis=1)
        den = weights[indices].sum(axis=1)
        ratios = np.divide(
            num, den, out=np.full(n_boot, np.nan), where=den > 0
        )
    ratios = ratios[np.isfinite(ratios)]
    if ratios.size < n_boot // 2:
        raise ValueError(
            "too few matching interactions for a stable bootstrap"
        )
    low = float(np.quantile(ratios, delta / 2.0))
    high = float(np.quantile(ratios, 1.0 - delta / 2.0))
    return ConfidenceInterval(low, high, 1.0 - delta)
