"""The evaluation engine: one fold driver over two process-wide knobs.

Every estimator is a reduction (:mod:`repro.core.estimators.reductions`)
and every in-memory estimate folds the log's cached columnar view
(:class:`~repro.core.columns.DatasetColumns`) through it with
:func:`fold_dataset_chunked`.  Two knobs shape that fold:

- ``chunk_size`` — rows per fold.  ``None`` (the default) folds the
  whole log at once: one
  :meth:`~repro.core.policies.Policy.probabilities_batch` call per
  policy, the array-speed path §4's "one log scores a whole policy
  class" promise needs.  A positive size folds zero-copy
  :class:`~repro.core.columns.ColumnsSlice` views of that many rows,
  bounding the working set (no whole-log ``(N, K)`` matrix is built).
- ``workers`` — worker processes.  Above 1, the chunk slices fold
  across the persistent pool (:mod:`repro.core.pool`) against one
  shared-memory copy of the columns (:mod:`repro.core.shm`); task
  payloads are a descriptor plus slice bounds, never row data.  Any
  failure to share falls back to the serial fold, bit-identically.

:func:`use_engine` scopes both knobs to a ``with`` block.  Chunk
states merge in chunk order, so ``workers`` never changes a result;
different chunk sizes agree up to float reassociation (asserted by
``tests/core/test_reduction_equivalence.py`` against the per-row
reference in ``tests/oracles.py``).  :func:`evaluate_jsonl_chunked`
extends the same kernel to logs that never fit in memory, streaming
JSONL through the validation layer chunk by chunk.
"""

from __future__ import annotations

import pickle
import time
import warnings
from collections import deque
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from repro.core import pool as worker_pool
from repro.core.pool import BrokenProcessPool
from repro.obs.metrics import get_metrics
from repro.obs.monitors import get_monitors
from repro.obs.tracing import get_tracer

#: Rows per chunk when :func:`evaluate_jsonl_chunked` is not told
#: otherwise.  8192 rows × a few hundred actions of float64 keeps the
#: per-chunk probability matrix in the tens of megabytes — comfortably
#: inside any address-space budget while still amortizing NumPy
#: dispatch overhead.
STREAM_CHUNK_SIZE = 8192

#: Rows per in-memory fold; ``None`` folds the whole log at once.
_chunk_size: Optional[int] = None

#: Worker processes folding chunk slices; 1 = in-process.
_workers = 1

#: Policy types already warned about missing a batch implementation.
_warned_fallback_types: set = set()


def _check_chunk_size(chunk_size: Optional[int]) -> Optional[int]:
    """Validate a chunk size: ``None`` (whole log) or a positive int."""
    if chunk_size is not None and int(chunk_size) <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return None if chunk_size is None else int(chunk_size)


def _check_workers(workers: int) -> int:
    """Validate a worker count (at least 1)."""
    if int(workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(workers)


def get_chunk_size() -> Optional[int]:
    """Rows per in-memory fold; ``None`` means one whole-log fold."""
    return _chunk_size


def get_workers() -> int:
    """Worker processes folding chunk slices (1 = in-process)."""
    return _workers


@contextmanager
def use_engine(
    *, chunk_size: Optional[int] = None, workers: int = 1
) -> Iterator[None]:
    """Fold with ``chunk_size`` rows across ``workers`` within a block.

    Both knobs take the given values for the duration of the ``with``
    block (the defaults are the process defaults: whole-log folds,
    in-process) and are restored on exit.  The exit also clears the
    per-policy-type fallback-warning memory, so a scoped switch cannot
    leak warning-suppression state into later code (or, in test
    suites, into later tests).
    """
    global _chunk_size, _workers
    scoped = (_check_chunk_size(chunk_size), _check_workers(workers))
    previous = (_chunk_size, _workers)
    _chunk_size, _workers = scoped
    try:
        yield
    finally:
        _chunk_size, _workers = previous
        _warned_fallback_types.clear()


def warn_missing_batch(policy_type: type) -> None:
    """One-time warning that a policy type lacks ``probabilities_batch``.

    The loop fallback is correct but forfeits the array-speed fold;
    surfacing it once per type tells users which custom policies are
    worth giving a batch implementation (see DESIGN.md).

    Every downgrade event also increments the
    ``engine.batch_fallback`` counter on the active metrics registry
    (labeled by policy type), so instrumented runs count downgrades
    per run even though the warning prints once per process.
    """
    get_metrics().counter(
        "engine.batch_fallback", policy_type=policy_type.__name__
    ).inc()
    if policy_type in _warned_fallback_types:
        return
    _warned_fallback_types.add(policy_type)
    warnings.warn(
        f"{policy_type.__name__} does not implement probabilities_batch(); "
        "evaluation is falling back to a per-row Python loop for it. "
        "Implement probabilities_batch(columns) to restore array speed "
        "(see DESIGN.md, 'Columnar evaluation engine').",
        RuntimeWarning,
        stacklevel=3,
    )


def reset_backend_warnings() -> None:
    """Forget which policy types have been warned about.

    Warnings fire once per policy type per process; callers that want
    them again (fresh test, fresh experiment run) reset here.
    """
    _warned_fallback_types.clear()


# ---------------------------------------------------------------------------
# in-memory folding: slice views, optionally across the pool


def fold_dataset_chunked(
    reduction,
    state,
    dataset,
    *,
    chunk_size: Optional[int] = None,
    workers: int = 1,
):
    """Fold a dataset through ``reduction`` in ``chunk_size`` slices.

    The one in-memory driver.  ``chunk_size=None`` (or any size ≥ the
    row count) folds the dataset's cached whole-log columns in one
    call — exactly ``reduction.fold(state, dataset.columns())``.
    Otherwise chunks are zero-copy
    :class:`~repro.core.columns.ColumnsSlice` views over those columns,
    so no per-chunk reconstruction happens.  With ``workers > 1`` the
    slices fold across the persistent worker pool against a
    shared-memory copy of the columns; any failure to share
    (unpackable data, unpicklable reduction, a broken pool) falls back
    to the serial plan, which is bit-identical because ``merge`` is
    exactly how ``fold`` accumulates.
    """
    from repro.core.columns import iter_column_slices

    columns = dataset.columns()
    if workers > 1 and chunk_size is not None and columns.n > chunk_size:
        chunk_states = _fold_columns_parallel(
            reduction, columns, chunk_size, workers
        )
        if chunk_states is not None:
            for chunk_state in chunk_states:
                state = reduction.merge(state, chunk_state)
            return state
    for chunk in iter_column_slices(columns, chunk_size):
        state = reduction.fold(state, chunk)
    return state


def _fold_columns_parallel(reduction, columns, chunk_size, workers):
    """Fold slices of a shared-memory block across the worker pool.

    Returns the chunk states in chunk order, or ``None`` when the data
    cannot be shared, the reduction is unpicklable, or the pool broke
    mid-run — the caller then recomputes serially (bit-identical).
    The columns' shared block is memoized on the columns object, so a
    class search fanning many reductions over one log packs the
    segment exactly once.
    """
    from repro.core import shm

    if not shm.available():
        return None
    try:
        block = columns.shared_block()
    except shm.SharedMemoryUnsupported:
        return None
    try:
        job_key, blob = worker_pool.new_job((block.descriptor, reduction))
    except Exception as error:
        warnings.warn(
            "parallel fold falling back to serial folding: work items "
            f"are not picklable ({error})",
            RuntimeWarning,
            stacklevel=4,
        )
        return None
    tracer = get_tracer()
    metrics = get_metrics()
    bounds = [
        (start, min(start + chunk_size, columns.n))
        for start in range(0, columns.n, chunk_size)
    ]
    try:
        executor = worker_pool.get_pool(workers)
        futures = [
            executor.submit(
                _fold_slice_worker,
                (job_key, blob, start, stop, index, tracer.enabled),
            )
            for index, (start, stop) in enumerate(bounds)
        ]
        outcomes = [future.result() for future in futures]
    except BrokenProcessPool:
        worker_pool.reset_pool()
        warnings.warn(
            "worker pool died mid-fold; recomputing serially "
            "(results are unaffected)",
            RuntimeWarning,
            stacklevel=4,
        )
        return None
    fold_seconds = metrics.histogram("engine.chunk_fold_seconds")
    fold_count = metrics.counter("engine.chunk_folds")
    chunk_states = []
    for chunk_state, seconds, span_dict in outcomes:
        fold_seconds.observe(seconds)
        fold_count.inc()
        if span_dict is not None:
            tracer.attach(span_dict)
        chunk_states.append(chunk_state)
    return chunk_states


def _fold_slice_worker(payload):
    """Fold one slice of a shared columnar block (worker process).

    The job blob (descriptor + reduction) is unpickled once per worker
    and the segment attached once per worker — every subsequent slice
    of the same job reuses both, which is what makes pool reuse cheap.
    Traced tasks open a fresh per-task
    :class:`~repro.obs.tracing.Tracer` and ship the span home, so
    spans survive pool reuse without leaking state between tasks.
    """
    job_key, blob, start, stop, index, traced = payload
    from repro.core import shm
    from repro.core.columns import ColumnsSlice

    descriptor, reduction = worker_pool.job_payload(job_key, blob)
    columns = shm.attach_columns(descriptor)
    if start == 0 and stop == columns.n:
        chunk = columns
    else:
        chunk = ColumnsSlice(columns, start, stop)
    span_dict = None
    clock = time.perf_counter()
    if traced:
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        with tracer.span(
            "evaluate.chunk", index=index, rows=stop - start, worker=True
        ):
            state = reduction.fold(reduction.init_state(), chunk)
        span_dict = tracer.span_tree()[0]
    else:
        state = reduction.fold(reduction.init_state(), chunk)
    return state, time.perf_counter() - clock, span_dict


# ---------------------------------------------------------------------------
# out-of-core evaluation: stream a JSONL log through the reduction kernel


def _read_blocks(
    path, mode, validator, quarantine, chunk_size, table, prefix_bytes
):
    """Admit ``path`` in ``chunk_size``-row column blocks.

    Both streamed passes read through the log codec exactly as
    ``Dataset.load_jsonl(verify_ledger="auto")`` does: ledger bindings
    are checked (linkage too in strict mode), and broken ones raise or
    are set aside under ``ledger``.  ``prefix_bytes`` bounds both
    passes to the same prefix of the file.
    """
    from repro.audit.ledger import ChainFollower
    from repro.core.codec import LogReader

    reader = LogReader(
        path,
        mode=mode,
        validator=validator,
        quarantine=quarantine,
        chain=ChainFollower(strict_links=(mode == "strict")),
        table=table,
        prefix_bytes=prefix_bytes,
    )
    return reader.blocks(chunk_size)


def _chunk_columns(block, space, reward_range):
    """The columns ``Dataset(rows, space, reward_range)`` would build."""
    from repro.core.columns import DatasetColumns
    from repro.core.types import RewardRange

    return DatasetColumns.from_log(
        block.contexts, block.actions, block.rewards, block.propensities,
        block.timestamps, action_space=space,
        reward_range=reward_range or RewardRange(),
    )


def _fold_chunk_worker(payload):
    """Fold one chunk into fresh states (runs in a worker process).

    Folding a chunk into a *fresh* state and merging it later is
    bit-identical to folding it into the accumulated state directly —
    ``fold`` is implemented as merge-of-a-chunk-local-state — which is
    what makes parallel and serial chunked runs agree exactly.

    Returns ``(states, seconds, span_dict)``: the fold wall time is
    always measured (two clock reads — the parent feeds it to the
    ``engine.chunk_fold_seconds`` histogram), and when the parent runs
    traced the worker opens its own ``evaluate.chunk`` span and ships
    it home serialized so the merged span tree covers every chunk no
    matter which process folded it.
    """
    block, space, reward_range, reductions, index, traced = payload
    span_dict = None
    start = time.perf_counter()
    if traced:
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        with tracer.span(
            "evaluate.chunk", index=index, rows=block.n, worker=True,
        ):
            columns = _chunk_columns(block, space, reward_range)
            states = [
                reduction.fold(reduction.init_state(), columns)
                for reduction in reductions
            ]
        span_dict = tracer.span_tree()[0]
    else:
        columns = _chunk_columns(block, space, reward_range)
        states = [
            reduction.fold(reduction.init_state(), columns)
            for reduction in reductions
        ]
    return states, time.perf_counter() - start, span_dict


def _scan_context_keys(contexts, keys: set) -> bool:
    """Collect context keys from a chunk; ``False`` if any value won't pack.

    Feeds the discovery pass's shared-memory vocabulary: only exactly
    numeric values (bools excluded — they'd lose their type through a
    float64 cell) can live in the packed context matrix.  Each distinct
    context object is scanned once (the reader shares one dict between
    identical contexts).
    """
    for context in {id(context): context for context in contexts}.values():
        for key, value in context.items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                return False
            keys.add(key)
    return True


def _shared_space_eligibility(space) -> Optional[tuple]:
    """The one eligible-action tuple all rows share under ``space``.

    ``None`` when eligibility genuinely varies per context (a custom
    restricted space) — those chunks fall back to pickled rows.  The
    pinned spaces the JSONL driver builds for spaceless logs use
    :class:`~repro.core.columns.FixedEligibility`, which shares one
    tuple by construction.
    """
    if space is None:
        return None
    if not space.restricted:
        return tuple(range(space.n_actions))
    from repro.core.columns import FixedEligibility

    eligibility = getattr(space, "_eligibility", None)
    if isinstance(eligibility, FixedEligibility):
        return eligibility.actions
    return None


def _fold_shm_chunk_worker(payload):
    """Fold one shared-memory chunk into fresh states (worker process).

    The chunk's rows live in a one-shot segment; the payload is just
    ``(job_key, blob, descriptor, index, traced)``.  The job blob
    (action space, reward range, reductions, context vocabulary) is
    unpickled once per worker and reused for every chunk of the job.
    The result is pickled *before* the mapping is detached so no state
    can carry views into a closed segment, and returned as bytes (the
    parent unpickles).
    """
    job_key, blob, descriptor, index, traced = payload
    from repro.core import shm

    _space, reward_range, reductions, vocab = worker_pool.job_payload(
        job_key, blob
    )
    columns = shm.attach_columns(
        descriptor, vocab=vocab, reward_range=reward_range, cache=False
    )
    try:
        span_dict = None
        clock = time.perf_counter()
        if traced:
            from repro.obs.tracing import Tracer

            tracer = Tracer()
            with tracer.span(
                "evaluate.chunk", index=index, rows=columns.n, worker=True
            ):
                states = [
                    reduction.fold(reduction.init_state(), columns)
                    for reduction in reductions
                ]
            span_dict = tracer.span_tree()[0]
        else:
            states = [
                reduction.fold(reduction.init_state(), columns)
                for reduction in reductions
            ]
        result = pickle.dumps(
            (states, time.perf_counter() - clock, span_dict)
        )
        states = None
        return result
    finally:
        del columns
        shm.detach(descriptor)


class ChunkedEvaluation:
    """Everything :func:`evaluate_jsonl_chunked` learned from one log.

    ``results[p][e]`` is the
    :class:`~repro.core.estimators.base.EstimatorResult` of policy ``p``
    under estimator ``e`` (indexed like the input sequences, with names
    in ``policy_names`` / ``estimator_names``).  ``quarantine`` is the
    fold pass's record quarantine (empty in strict mode — strict raises
    instead).  ``terms`` maps ``(policy_name, estimator_name)`` to the
    per-row term vector when the run collected terms (for bootstrap
    CIs); composite estimators contribute no term vector.
    """

    def __init__(
        self,
        policy_names,
        estimator_names,
        results,
        n,
        n_chunks,
        quarantine,
        terms=None,
    ) -> None:
        self.policy_names = tuple(policy_names)
        self.estimator_names = tuple(estimator_names)
        self.results = results
        self.n = n
        self.n_chunks = n_chunks
        self.quarantine = quarantine
        self.terms = terms or {}

    def __repr__(self) -> str:
        return (
            f"ChunkedEvaluation(n={self.n}, chunks={self.n_chunks}, "
            f"policies={len(self.policy_names)}, "
            f"estimators={len(self.estimator_names)})"
        )


def evaluate_jsonl_chunked(
    path: str,
    policies,
    estimators,
    *,
    chunk_size: Optional[int] = None,
    workers: Optional[int] = None,
    mode: str = "strict",
    validator=None,
    action_space=None,
    reward_range=None,
    collect_terms: bool = False,
    prefix_bytes: Optional[int] = None,
) -> ChunkedEvaluation:
    """Evaluate policies against a JSONL log without loading it.

    ``chunk_size`` rows are read per chunk (default
    :data:`STREAM_CHUNK_SIZE`, whatever the in-memory knob says — a
    streamed log is never folded whole); ``workers`` defaults to the
    process-wide knob.  Two streaming passes, each O(chunk) peak
    memory:

    1. **Discovery** — count rows, collect the logged action support,
       fold the policy-independent :class:`LogStats` (propensity floor,
       A1 identity sums), and — when any estimator needs a reward model
       it doesn't already have — fold the per-action ridge normal
       equations (:class:`~repro.core.estimators.direct.RewardModelFolder`).
       This pins the reduction context (total N sizes the exact-q99
       tail buffers; the global support pins chunk eligibility).
    2. **Fold** — re-stream the file, build a pinned-space columnar
       view per chunk, and fold every (policy × estimator) reduction,
       serially or across ``workers`` processes.  Chunk states merge in
       chunk order, so parallel and serial runs agree bit-for-bit.

    Both passes read through the log codec's
    :class:`~repro.core.codec.LogReader`, which parses lines straight
    into columns and checks ledger bindings exactly as
    ``Dataset.load_jsonl(verify_ledger="auto")`` does: a tampered
    record raises in strict mode and is set aside under ``ledger``
    otherwise.  Validation is deterministic, so both passes accept the
    same rows; the fold pass's quarantine is the one reported.
    ``mode="strict"`` raises on the first defect,
    ``"quarantine"``/``"repair"`` set defects aside and keep going —
    the chaos suite proves quarantine counts and UNRELIABLE verdicts
    survive chunk-boundary folding.

    ``prefix_bytes`` reads only the file's first ``prefix_bytes``
    bytes in both passes, so rows appended while the run reads (a
    server flushing under a gate) are never folded; by default the
    whole file is read.

    Instrumented end to end (see :mod:`repro.obs`): under an active
    tracer the run produces an ``evaluate.jsonl`` span tree covering
    the validation/discovery pass, every chunk fold (including folds
    executed in worker processes, whose spans are merged home), and
    the finalize step; under an active metrics registry it feeds the
    ``engine.*`` counters/histograms and the ``validation.*``
    quarantine counters (fold pass only — discovery's duplicate sight
    of each defect is deliberately not mirrored).  With the default
    no-op tracer/registry the overhead is unmeasurable.
    """
    policies = list(policies)
    estimators = list(estimators)
    tracer = get_tracer()
    with tracer.span(
        "evaluate.jsonl",
        path=path,
        backend="chunked",
        mode=mode,
        n_policies=len(policies),
        n_estimators=len(estimators),
    ) as root:
        evaluation = _evaluate_jsonl_chunked(
            path,
            policies,
            estimators,
            chunk_size=chunk_size,
            workers=workers,
            mode=mode,
            validator=validator,
            action_space=action_space,
            reward_range=reward_range,
            collect_terms=collect_terms,
            prefix_bytes=prefix_bytes,
        )
        root.set(rows=evaluation.n, chunks=evaluation.n_chunks)
        return evaluation


def _evaluate_jsonl_chunked(
    path: str,
    policies,
    estimators,
    *,
    chunk_size: Optional[int],
    workers: Optional[int],
    mode: str,
    validator,
    action_space,
    reward_range,
    collect_terms: bool,
    prefix_bytes: Optional[int],
) -> ChunkedEvaluation:
    from repro.core import shm
    from repro.core.codec import ContextTable
    from repro.core.columns import pinned_action_space
    from repro.core.estimators.direct import RewardModelFolder
    from repro.core.estimators.reductions import (
        FoldState,
        LogStats,
        ReductionContext,
    )
    from repro.core.validation import Quarantine, RecordValidator, check_mode

    check_mode(mode)
    policies = list(policies)
    estimators = list(estimators)
    if not policies:
        raise ValueError("need at least one policy")
    if not estimators:
        raise ValueError("need at least one estimator")
    chunk_size = _check_chunk_size(chunk_size) or STREAM_CHUNK_SIZE
    workers = _check_workers(workers if workers is not None else _workers)
    if validator is None:
        validator = (
            RecordValidator()
            if mode == "strict"
            else RecordValidator(
                action_space=action_space, reward_range=reward_range
            )
        )

    needs_shared_model = any(
        est.needs_model and getattr(est, "model", None) is None
        for est in estimators
    )

    # -- pass 1: discovery -------------------------------------------------
    # Both passes share one memo, so the fold pass digests no context
    # the discovery pass already did.
    memo = ContextTable()
    tracer = get_tracer()
    metrics = get_metrics()
    stats = LogStats()
    observed: set = set()
    total_rows = 0
    folder = RewardModelFolder() if needs_shared_model else None
    # Shared-memory viability is decided during discovery: collect the
    # global context-key vocabulary and verify every value packs.
    ctx_keys: set = set()
    shm_ok = workers > 1 and shm.available()
    # Validation is deterministic and the fold pass re-validates every
    # record; this pass's quarantine stays out of the metrics mirror so
    # each defect is counted once per run.
    with tracer.span(
        "evaluate.validation", path=path, mode=mode
    ) as validation_span:
        discovery = Quarantine(record_metrics=False)
        for block in _read_blocks(
            path, mode, validator, discovery, chunk_size, memo, prefix_bytes
        ):
            stats.fold(block.actions, block.propensities)
            observed.update(int(a) for a in np.unique(block.actions))
            total_rows += block.n
            if shm_ok:
                shm_ok = _scan_context_keys(block.contexts, ctx_keys)
            if folder is not None:
                folder.fold_rows(block.contexts, block.actions, block.rewards)
        validation_span.set(rows=total_rows, rejected=discovery.n_rejected)
    if total_rows == 0:
        raise ValueError(f"{path}: no valid interactions to evaluate")

    space = action_space or pinned_action_space(observed=sorted(observed))
    shared_model = None
    if folder is not None:
        n_actions = space.n_actions if space is not None else 1
        shared_model = folder.finalize(n_actions)
    context = ReductionContext(
        observed_actions=np.array(sorted(observed), dtype=np.int64),
        total_rows=total_rows,
    )

    # -- build one reduction per (policy × estimator) ----------------------
    reductions = []
    for policy in policies:
        for est in estimators:
            if est.needs_model:
                reduction = est.reduction(policy, context, model=shared_model)
            else:
                reduction = est.reduction(policy, context)
            reduction.collect_terms = collect_terms
            reductions.append(reduction)

    # The one-time job serialization doubles as the picklability probe:
    # the blob (space, reward range, reductions, context vocabulary)
    # crosses the pickle machinery exactly once per run, and per-chunk
    # payloads carry only a compact segment descriptor — never the
    # reductions list, never the rows.
    job_key = job_blob = None
    vocab = tuple(sorted(ctx_keys))
    if workers > 1:
        try:
            job_key, job_blob = worker_pool.new_job(
                (space, reward_range, reductions, vocab)
            )
        except Exception as error:  # pragma: no cover - env-specific
            warnings.warn(
                "chunked evaluation falling back to serial folding: "
                f"work items are not picklable ({error})",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1
    eligible_shared = _shared_space_eligibility(space)
    use_shm = (
        workers > 1
        and shm_ok
        and eligible_shared is not None
        and len(vocab) <= shm.MAX_CONTEXT_KEYS
    )
    key_to_col = {key: col for col, key in enumerate(vocab)}

    # -- pass 2: fold ------------------------------------------------------
    fold_seconds = metrics.histogram("engine.chunk_fold_seconds")
    fold_count = metrics.counter("engine.chunk_folds")

    def _merge(outcome, states) -> None:
        if isinstance(outcome, bytes):
            outcome = pickle.loads(outcome)
        chunk_states, seconds, span_dict = outcome
        fold_seconds.observe(seconds)
        fold_count.inc()
        if span_dict is not None:
            tracer.attach(span_dict)
        for index, reduction in enumerate(reductions):
            states[index] = reduction.merge(
                states[index], chunk_states[index]
            )

    monitors = get_monitors()

    def _fold_pass(parallel: bool):
        states = [reduction.init_state() for reduction in reductions]
        n_chunks = 0
        quarantine = Quarantine()
        chunks = _read_blocks(
            path, mode, validator, quarantine, chunk_size, memo,
            prefix_bytes,
        )
        if not parallel:
            for chunk in chunks:
                start = time.perf_counter()
                with tracer.span(
                    "evaluate.chunk", index=n_chunks, rows=chunk.n
                ):
                    columns = _chunk_columns(chunk, space, reward_range)
                    if monitors.enabled:
                        monitors.observe_propensities(columns.propensities)
                    for index, reduction in enumerate(reductions):
                        states[index] = reduction.fold(
                            states[index], columns
                        )
                fold_seconds.observe(time.perf_counter() - start)
                fold_count.inc()
                n_chunks += 1
            return states, n_chunks, quarantine

        # Parallel: ship each chunk as a one-shot shared segment (a
        # few-hundred-byte payload) when the data packs, or as pickled
        # columns otherwise.  Bound in-flight chunks so peak memory —
        # including live segments — stays O(workers × chunk) even when
        # folding lags the file read; segments are unlinked as soon as
        # their chunk merges, and in ``finally`` on any failure.
        traced = tracer.enabled
        executor = worker_pool.get_pool(workers)
        in_flight: deque = deque()

        def _drain_one() -> None:
            future, block = in_flight.popleft()
            try:
                outcome = future.result()
            finally:
                if block is not None:
                    block.release()
            _merge(outcome, states)

        try:
            for chunk in chunks:
                # One monitor feed per *chunk*, not per reduction — the
                # workers run every (policy x estimator) reduction over
                # the same rows, and double-feeding would inflate the
                # ESS windows.
                if monitors.enabled:
                    monitors.observe_propensities(chunk.propensities)
                block = None
                if use_shm:
                    try:
                        block = shm.pack_chunk(
                            chunk, key_to_col, eligible_shared,
                            space.n_actions,
                        )
                    except shm.SharedMemoryUnsupported:
                        block = None
                try:
                    if block is not None:
                        future = executor.submit(
                            _fold_shm_chunk_worker,
                            (job_key, job_blob, block.descriptor,
                             n_chunks, traced),
                        )
                    else:
                        future = executor.submit(
                            _fold_chunk_worker,
                            (chunk, space, reward_range, reductions,
                             n_chunks, traced),
                        )
                except BaseException:
                    # submit itself fails on an already-broken pool; the
                    # block is not in ``in_flight`` yet, so the outer
                    # finally would miss it.
                    if block is not None:
                        block.release()
                    raise
                in_flight.append((future, block))
                n_chunks += 1
                if len(in_flight) >= 2 * workers:
                    _drain_one()
            while in_flight:
                _drain_one()
        finally:
            for _future, block in in_flight:
                if block is not None:
                    block.release()
        return states, n_chunks, quarantine

    with tracer.span(
        "evaluate.fold", chunk_size=chunk_size, workers=workers
    ) as fold_span:
        if workers > 1:
            try:
                states, n_chunks, quarantine = _fold_pass(parallel=True)
            except BrokenProcessPool:
                worker_pool.reset_pool()
                warnings.warn(
                    "chunked fold worker pool died; refolding serially "
                    "(results are unaffected)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                states, n_chunks, quarantine = _fold_pass(parallel=False)
        else:
            states, n_chunks, quarantine = _fold_pass(parallel=False)
        fold_span.set(chunks=n_chunks)
    metrics.counter("engine.rows_ingested", backend="chunked").inc(total_rows)

    # -- finalize ----------------------------------------------------------
    log_summary = stats.summary()
    terms = {}
    results = []
    with tracer.span("evaluate.finalize"):
        flat = iter(zip(reductions, states))
        for policy in policies:
            row = []
            for est in estimators:
                reduction, state = next(flat)
                row.append(reduction.finalize(state, log_summary))
                if (
                    collect_terms
                    and isinstance(state, FoldState)
                    and state.term_chunks is not None
                ):
                    terms[(policy.name, reduction.name)] = (
                        reduction.collected_terms(state)
                    )
            results.append(row)

    return ChunkedEvaluation(
        policy_names=[p.name for p in policies],
        estimator_names=[
            reductions[i].name for i in range(len(estimators))
        ],
        results=results,
        n=total_rows,
        n_chunks=n_chunks,
        quarantine=quarantine,
        terms=terms,
    )
