"""The evaluation engine: every estimate is a fold of the log.

Every estimator is a reduction (:mod:`repro.core.estimators.reductions`).
:func:`evaluate_jsonl_chunked` folds a JSONL log through the reductions
of a whole policy class at once, one
:meth:`~repro.core.policies.Policy.probabilities_batch` call per policy
and block, the array-speed path §4's "one log scores a whole policy
class" promise needs: by default the whole log is one block, read once,
and with a ``chunk_size`` it streams chunk by chunk, in O(chunk)
memory, for logs that never fit in memory.  An in-memory estimate
(:meth:`~repro.core.estimators.base.OffPolicyEstimator.estimate`)
folds a dataset's cached columnar view the same way.  Every fold runs
in this process, and all agree up to float reassociation (asserted by
``tests/core/test_reduction_equivalence.py`` against the per-row
reference in ``tests/oracles.py``).
"""

from __future__ import annotations

import time
import warnings
from typing import Optional

import numpy as np

from repro.obs.metrics import get_metrics
from repro.obs.monitors import get_monitors
from repro.obs.tracing import get_tracer

#: Rows per chunk of a streamed fold that must stay O(chunk), such as
#: the serving gate's.  8192 rows × a few hundred actions of float64
#: keeps the per-chunk probability matrix in the tens of megabytes —
#: comfortably inside any address-space budget while still amortizing
#: NumPy dispatch overhead.
STREAM_CHUNK_SIZE = 8192

#: Policy types already warned about missing a batch implementation.
_warned_fallback_types: set = set()


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
# out-of-core evaluation: stream a JSONL log through the reduction kernel


def _read_blocks(
    path, mode, validator, quarantine, chunk_size, table, prefix_bytes
):
    """Admit ``path`` in ``chunk_size``-row column blocks (``None``: one).

    Every pass reads through the log codec exactly as
    ``Dataset.load_jsonl(verify_ledger="auto")`` does: ledger bindings
    are checked (linkage too in strict mode), and broken ones raise or
    are set aside under ``ledger``.  ``prefix_bytes`` bounds every
    pass to the same prefix of the file.
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
        context_ids=block.context_ids,
    )


class ChunkedEvaluation:
    """Everything :func:`evaluate_jsonl_chunked` learned from one log.

    ``results[p][e]`` is the
    :class:`~repro.core.estimators.base.EstimatorResult` of policy ``p``
    under estimator ``e`` (indexed like the input sequences, with names
    in ``policy_names`` / ``estimator_names``).  ``quarantine`` is the
    fold pass's record quarantine (empty in strict mode — strict raises
    instead).  ``terms`` maps ``(policy_name, "ips")`` to the policy's
    per-row IPS term vector when the run collected terms and folded
    :class:`~repro.core.estimators.ips.IPSEstimator`: the terms the
    bootstrap resamples, and the only ones kept.
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
    mode: str = "strict",
    validator=None,
    action_space=None,
    reward_range=None,
    collect_terms: bool = False,
    prefix_bytes: Optional[int] = None,
) -> ChunkedEvaluation:
    """Evaluate policies against a JSONL log in one fold of its blocks.

    By default (``chunk_size=None``) the log is one block, read once:
    discovery and the fold share its columns, so a reward model hashes
    its features once.  ``chunk_size`` rows per chunk instead stream
    the log in two passes, each O(chunk) peak memory:

    1. **Discovery** — count rows, collect the logged action support,
       fold the policy-independent :class:`LogStats` (propensity floor,
       A1 identity sums), and — when any estimator needs a reward model
       it doesn't already have — fold the per-action ridge normal
       equations (:class:`~repro.core.estimators.direct.RewardModelFolder`).
       This pins the reduction context (total N sizes the exact-q99
       tail buffers; the global support pins chunk eligibility).
    2. **Fold** — re-stream the file, build a pinned-space columnar
       view per chunk, and fold every (policy × estimator) reduction
       into its running state.

    Every read goes through the log codec's
    :class:`~repro.core.codec.LogReader`, which parses lines straight
    into columns and checks ledger bindings exactly as
    ``Dataset.load_jsonl(verify_ledger="auto")`` does: a tampered
    record raises in strict mode and is set aside under ``ledger``
    otherwise.  Validation is deterministic, so both streamed passes
    accept the same rows; the fold pass's quarantine is the one
    reported.  ``mode="strict"`` raises on the first defect,
    ``"quarantine"``/``"repair"`` set defects aside and keep going —
    the chaos suite proves quarantine counts and UNRELIABLE verdicts
    survive chunk-boundary folding.

    ``prefix_bytes`` reads only the file's first ``prefix_bytes``
    bytes in every pass, so rows appended while the run reads (a
    server flushing under a gate) are never folded; by default the
    whole file is read.

    ``collect_terms=True`` also keeps each policy's per-row IPS terms,
    in log order, for the bootstrap (:attr:`ChunkedEvaluation.terms`);
    no other estimator's terms are kept.

    Instrumented end to end (see :mod:`repro.obs`): under an active
    tracer the run produces an ``evaluate.jsonl`` span tree covering
    the validation/discovery pass, every chunk fold, and the finalize
    step; under an active metrics registry it feeds the
    ``engine.*`` counters/histograms and the ``validation.*``
    quarantine counters (fold pass only — a streamed discovery pass's
    duplicate sight of each defect is deliberately not mirrored).
    With the default no-op tracer/registry the overhead is
    unmeasurable.
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
    mode: str,
    validator,
    action_space,
    reward_range,
    collect_terms: bool,
    prefix_bytes: Optional[int],
) -> ChunkedEvaluation:
    from repro.core.codec import ContextTable
    from repro.core.columns import distinct_actions, pinned_action_space
    from repro.core.estimators.direct import RewardModel, RewardModelFolder
    from repro.core.estimators.reductions import (
        IPSReduction,
        LogStats,
        ReductionContext,
    )
    from repro.core.types import Dataset
    from repro.core.validation import Quarantine, RecordValidator, check_mode

    check_mode(mode)
    policies = list(policies)
    estimators = list(estimators)
    if not policies:
        raise ValueError("need at least one policy")
    if not estimators:
        raise ValueError("need at least one estimator")
    whole = chunk_size is None
    if not whole and chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
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
    # Both streamed passes share one memo, so the fold pass digests no
    # context the discovery pass already did; one read keeps none.
    memo = None if whole else ContextTable()
    tracer = get_tracer()
    metrics = get_metrics()
    stats = LogStats()
    observed: set = set()
    total_rows = 0
    folder = RewardModelFolder() if needs_shared_model and not whole else None
    quarantine = Quarantine()
    # The whole log is read once, into the quarantine the run reports.
    # A streamed fold pass re-validates every record, so the discovery
    # pass's quarantine stays out of the metrics mirror and each defect
    # is counted once per run.
    discovery = quarantine if whole else Quarantine(record_metrics=False)
    with tracer.span(
        "evaluate.validation", path=path, mode=mode
    ) as validation_span:
        blocks = _read_blocks(
            path, mode, validator, discovery, chunk_size, memo, prefix_bytes
        )
        if whole:
            # One block is its own whole-log view: it needs no pinned
            # space, and the reward model is fitted on its columns, whose
            # hashed-feature matrix the model-based reductions reuse.
            blocks = list(blocks)
            columns = _chunk_columns(blocks[0], action_space, reward_range)
        for block in blocks:
            stats.fold(block.actions, block.propensities)
            observed.update(int(a) for a in distinct_actions(block.actions))
            total_rows += block.n
            if folder is not None:
                folder.fold_rows(
                    block.contexts, block.context_ids, block.actions,
                    block.rewards,
                )
        validation_span.set(rows=total_rows, rejected=discovery.n_rejected)
    if total_rows == 0:
        raise ValueError(f"{path}: no valid interactions to evaluate")

    space = action_space or pinned_action_space(observed)
    shared_model = None
    if folder is not None:
        shared_model = folder.finalize(space.n_actions)
    elif needs_shared_model:
        shared_model = RewardModel(columns.n_actions).fit(
            Dataset.from_columns(columns)
        )
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
            # The bootstrap resamples plain IPS terms; keep no others.
            reduction.collect_terms = (
                collect_terms and type(reduction) is IPSReduction
            )
            reductions.append(reduction)

    # -- pass 2: fold ------------------------------------------------------
    fold_seconds = metrics.histogram("engine.chunk_fold_seconds")
    fold_count = metrics.counter("engine.chunk_folds")
    monitors = get_monitors()
    states = [reduction.init_state() for reduction in reductions]
    n_chunks = 0
    with tracer.span("evaluate.fold", chunk_size=chunk_size) as fold_span:
        if not whole:
            blocks = _read_blocks(
                path, mode, validator, quarantine, chunk_size, memo,
                prefix_bytes,
            )
        for chunk in blocks:
            start = time.perf_counter()
            with tracer.span("evaluate.chunk", index=n_chunks, rows=chunk.n):
                if not whole:
                    columns = _chunk_columns(chunk, space, reward_range)
                if monitors.enabled:
                    monitors.observe_propensities(columns.propensities)
                for index, reduction in enumerate(reductions):
                    states[index] = reduction.fold(states[index], columns)
            fold_seconds.observe(time.perf_counter() - start)
            fold_count.inc()
            n_chunks += 1
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
                if reduction.collect_terms:
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
