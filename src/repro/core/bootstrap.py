"""Bootstrap confidence intervals for off-policy estimates.

IPS terms are heavy-tailed — mostly zeros plus occasional spikes of
``r/p`` — so normal-approximation intervals can be optimistic at small
N, while Hoeffding/Bernstein are valid but conservative.  The
percentile bootstrap sits in between and is the interval practitioners
actually quote: resample the per-interaction terms with replacement,
recompute the mean, and take empirical quantiles.

The resampling operates on *term vectors*, not the dataset, and one
index draw serves a whole policy class: :func:`bootstrap_interval_from_terms`
takes a ``(P, n)`` matrix with one row per policy and sums every row
over the same replicate indices, so scoring P policies costs one draw.
Each row's interval is exactly the one its vector would get alone.

One kernel (:func:`_block_sums`) does every resample.  It draws the
``(count, n)`` index matrix in consecutive row blocks of at most
:data:`BLOCK_BYTES`.  Consecutive draws from one ``Generator`` continue
its stream, so the blocks are exactly the rows of the single big draw,
and a call's memory stays bounded whatever the log's size.  Each
replicate's indices become one ``np.bincount`` counts vector, and a
row's resampled sum is ``einsum("i,i->", counts, row)``: a sum that
depends only on that row, the counts and ``n`` — not on the other
rows, the block layout, memory alignment or the number of BLAS threads
(``np.dot`` and a block GEMM each fail one of those).  That is what
keeps a row of a ``(P, n)`` call equal to its vector alone.

Replicates are generated in fixed **shards** of
:data:`BOOTSTRAP_SHARD`: shard ``s`` draws its indices from
``np.random.default_rng((seed, s))``, independent of every other
shard, so the replicate set is a pure function of ``(seed, n_boot,
n)``.  Every shard runs in the calling process (DESIGN.md records why
no command keeps a process pool).  Passing an explicit
``rng`` instead of a ``seed`` keeps the historical single stream (one
shard of ``n_boot`` replicates).
"""

from __future__ import annotations

import math
import time
from typing import Optional, Union

import numpy as np

from repro.core.estimators.bounds import ConfidenceInterval
from repro.core.estimators.ips import IPSEstimator, SNIPSEstimator
from repro.core.policies import Policy
from repro.core.types import Dataset
from repro.obs.metrics import get_metrics
from repro.obs.tracing import get_tracer

#: Replicates per shard.  Shard ``s`` of a seeded draw has its own
#: stream, ``default_rng((seed, s))``, so this fixes every seeded interval.
BOOTSTRAP_SHARD = 256

#: Bytes per block of replicates, counted at 16 per resampled term, so
#: a block's int64 indices take at most half of it; the rest of the
#: kernel's memory is two ``n``-length vectors (the counts and
#: ``np.bincount``'s result).  Blocks concatenate to one draw, so the
#: size changes no output; it bounds a call's transient memory whatever
#: the log's size, the replicate count or the number of rows (a block
#: holds at least one replicate, so above 512Ki terms a block is one
#: replicate of ``8 * n`` bytes of indices).
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
    ``(count, n)`` draw from ``rng``, made in consecutive blocks of at
    most :data:`BLOCK_BYTES`.  Each replicate's indices are counted
    once, into one reused float64 vector, and every row's sum is
    ``einsum("i,i->", counts, row)`` (see the module docstring for why
    that form).
    """
    n = columns.shape[1]
    sums = np.empty((len(columns), count))
    counts = np.empty(n)
    step = max(1, BLOCK_BYTES // (16 * n))
    for start in range(0, count, step):
        indices = rng.integers(0, n, size=(min(step, count - start), n))
        for replicate, drawn in enumerate(indices, start):
            counts[:] = np.bincount(drawn, minlength=n)
            for row, values in enumerate(columns):
                sums[row, replicate] = np.einsum("i,i->", counts, values)
    return sums


def _replicate_sums(
    columns: np.ndarray,
    n_boot: int,
    rng: Optional[np.random.Generator],
    seed: Optional[int],
) -> np.ndarray:
    """``(len(columns), n_boot)`` resampled row sums: one draw for every row.

    With ``seed`` the replicates come in :data:`BOOTSTRAP_SHARD` shards,
    each a deterministic function of ``(seed, shard index)``, run in
    index order.  Without one, ``rng`` (default ``default_rng(0)``) is
    the single historical stream, run as one shard of ``n_boot``
    replicates.  Either way the draw lands one ``bootstrap.replicates``
    span (recording ``policies``, the row count) with one
    ``bootstrap.shard`` child per shard, and counts once in the
    ``bootstrap.*`` metrics however many rows share it.
    """
    # einsum sums a strided row in another order than a contiguous one.
    columns = np.ascontiguousarray(columns)
    tracer = get_tracer()
    metrics = get_metrics()
    if seed is None:
        rng = rng if rng is not None else np.random.default_rng(0)
        sizes = [n_boot]
    else:
        sizes = _shard_sizes(n_boot)
    shard_seconds = metrics.histogram("bootstrap.shard_seconds")
    shard_count = metrics.counter("bootstrap.shards")
    shards = []
    with tracer.span(
        "bootstrap.replicates",
        n_boot=n_boot,
        seed=seed,
        shards=len(sizes),
        policies=len(columns),
    ):
        for shard, count in enumerate(sizes):
            start = time.perf_counter()
            with tracer.span(
                "bootstrap.shard", shard=shard, replicates=count
            ):
                stream = (
                    rng if seed is None
                    else np.random.default_rng((seed, shard))
                )
                shards.append(_block_sums(columns, count, stream))
            shard_seconds.observe(time.perf_counter() - start)
            shard_count.inc()
    metrics.counter("bootstrap.replicates").inc(n_boot)
    return np.concatenate(shards, axis=1)


def _quantile(values: np.ndarray, q: float) -> float:
    """``float(np.quantile(values, q))`` of a 1-D array, bit for bit.

    numpy's default (linear) method, step for step: partition at the
    same positions, read the neighbours of the virtual index
    ``(n - 1) q``, and interpolate with the same two-sided formula (a
    NaN anywhere gives the NaN).  Spelled out because numpy 2's
    ``np.quantile`` calls ``np.unique``, which imports ``numpy.ma``
    (about 15 ms) into every process that prints an interval.
    """
    n = values.size
    index = (n - 1) * q
    if index >= n - 1:
        # numpy reads the last position twice; its weight is then
        # ``index + 1``, which keeps the lerp's arithmetic (and the
        # sign of a zero) its own.
        below = above = -1
        gamma = index + 1.0
    else:
        below = math.floor(index)
        above = below + 1
        gamma = index - below
    ordered = np.partition(values, sorted({0, -1, below, above}))
    if math.isnan(ordered[-1]):
        return float(ordered[-1])
    low, high = float(ordered[below]), float(ordered[above])
    diff = high - low
    if gamma >= 0.5:
        return high - diff * (1 - gamma)
    return low + diff * gamma


def _percentile_interval(
    replicates: np.ndarray, delta: float
) -> ConfidenceInterval:
    low = _quantile(replicates, delta / 2.0)
    high = _quantile(replicates, 1.0 - delta / 2.0)
    return ConfidenceInterval(low, high, 1.0 - delta)


def _check_replication(
    n_boot: int,
    delta: float,
    rng: Optional[np.random.Generator],
    seed: Optional[int],
) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if n_boot < 10:
        raise ValueError("n_boot too small to estimate quantiles")
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")


def bootstrap_interval_from_terms(
    terms: np.ndarray,
    delta: float = 0.05,
    n_boot: int = 1000,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> Union[ConfidenceInterval, list[ConfidenceInterval]]:
    """Percentile-bootstrap CI for the mean of ``terms``.

    ``terms`` is one term vector, which returns one interval, or a
    ``(P, n)`` matrix with one row per policy, which returns a list of
    P intervals.  Every row is resampled with the same replicate
    indices (one draw for the whole matrix), and each row's interval
    equals the one that row alone would get.  With ``seed`` the
    replicates come from the sharded generator; with ``rng`` (or
    neither) the historical single stream is used.
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
    _check_replication(n_boot, delta, rng, seed)
    means = _replicate_sums(columns, n_boot, rng, seed)
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
) -> ConfidenceInterval:
    """Bootstrap CI for a policy's IPS value on an exploration log.

    The IPS terms come from the dataset's cached columnar view (shared
    with any other estimator runs); the resampling operates on that
    term vector.  ``seed`` selects the sharded replicate generator
    (see module docstring).
    """
    terms = IPSEstimator().weighted_rewards(policy, dataset)
    return bootstrap_interval_from_terms(terms, delta, n_boot, rng, seed=seed)


def bootstrap_snips_interval(
    policy: Policy,
    dataset: Dataset,
    delta: float = 0.05,
    n_boot: int = 1000,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
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
    _check_replication(n_boot, delta, rng, seed)
    num, den = _replicate_sums(
        np.stack([weights * rewards, weights]), n_boot, rng, seed
    )
    ratios = np.divide(num, den, out=np.full(n_boot, np.nan), where=den > 0)
    ratios = ratios[np.isfinite(ratios)]
    if ratios.size < n_boot // 2:
        raise ValueError(
            "too few matching interactions for a stable bootstrap"
        )
    return _percentile_interval(ratios, delta)
