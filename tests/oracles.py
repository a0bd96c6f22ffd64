"""Per-row reference implementations the equivalence suites check against.

The estimators fold array math over columnar views
(:mod:`repro.core.estimators.reductions`).  The loops here compute the
same quantities the slow, obviously correct way: walk the log one
:class:`~repro.core.types.Interaction` at a time and ask the policy for
its distribution per row.  They produce the reduction's
:class:`~repro.core.estimators.reductions.ChunkTerms` from that loop and
then reuse the reduction's own ``fold_chunk``/``finalize``, so a
disagreement localizes to the per-row quantities, not the bookkeeping.

Used by the equivalence suites and by the perf bench's scalar rows.
:func:`fit_reward_model_rows` is the same kind of reference for
:meth:`~repro.core.estimators.direct.RewardModel.fit`.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimators.base import EstimatorResult, eligible_actions_fn
from repro.core.estimators.direct import RewardModel
from repro.core.estimators.fallback import FallbackEstimator, select_down_ladder
from repro.core.estimators.reductions import (
    ChunkTerms,
    DirectMethodReduction,
    DoublyRobustReduction,
    IPSReduction,
    LogSummary,
    ReductionContext,
    SwitchReduction,
)
from repro.core.types import Dataset


def fit_reward_model_rows(model: RewardModel, dataset: Dataset) -> RewardModel:
    """The per-row reference for ``model.fit(dataset)``.

    Hashes each interaction with ``featurizer.vector``, stacks the rows
    of each logged action, and solves that action's ridge normal
    equations; the global mean comes from the reward list.
    """
    by_action: dict[int, list] = {}
    for interaction in dataset:
        by_action.setdefault(interaction.action, []).append(interaction)
    dims = model.featurizer.n_dims
    weights = {}
    for action, rows in by_action.items():
        X = np.stack([model.featurizer.vector(r.context) for r in rows])
        y = np.array([r.reward for r in rows])
        gram = X.T @ X + model.l2 * np.eye(dims)
        weights[action] = np.linalg.solve(gram, X.T @ y)
    model._weights = weights
    model._global_mean = float(dataset.rewards().mean())
    model._fitted = True
    return model


def match_weights(policy, dataset: Dataset) -> np.ndarray:
    """Importance ratios ``π(a_t|x_t)/p_t``, one ``probability_of`` per row."""
    eligible = eligible_actions_fn(dataset)
    weights = np.empty(len(dataset))
    for index, interaction in enumerate(dataset):
        pi_prob = policy.probability_of(
            interaction.context, eligible(interaction), interaction.action
        )
        weights[index] = pi_prob / interaction.propensity
    return weights


def weighted_rewards(policy, dataset: Dataset) -> np.ndarray:
    """IPS terms ``π(a_t|x_t)/p_t · r_t``, row by row."""
    return match_weights(policy, dataset) * dataset.rewards()


def _weights_and_coverage(policy, dataset, observed):
    eligible = eligible_actions_fn(dataset)
    observed_set = set(np.asarray(observed).tolist())
    weights = np.empty(len(dataset))
    coverage_sum = 0.0
    for index, interaction in enumerate(dataset):
        actions = eligible(interaction)
        probs = policy.distribution(interaction.context, actions)
        pi_prob = 0.0
        for position, action in enumerate(actions):
            if action == interaction.action:
                pi_prob = float(probs[position])
            if action in observed_set:
                coverage_sum += float(probs[position])
        weights[index] = pi_prob / interaction.propensity
    return weights, coverage_sum


def _model_value(model, context, probs, actions) -> float:
    return sum(p * model.predict(context, a) for p, a in zip(probs, actions))


def _direct_terms(reduction, dataset) -> ChunkTerms:
    eligible = eligible_actions_fn(dataset)
    observed_set = set(np.asarray(reduction.context.observed_actions).tolist())
    predictions = np.empty(len(dataset))
    coverage_sum = 0.0
    for index, interaction in enumerate(dataset):
        actions = eligible(interaction)
        probs = reduction.policy.distribution(interaction.context, actions)
        predictions[index] = _model_value(
            reduction.model, interaction.context, probs, actions
        )
        coverage_sum += sum(
            float(p) for p, a in zip(probs, actions) if a in observed_set
        )
    return ChunkTerms(
        n=len(dataset),
        terms=predictions,
        coverage_sum=coverage_sum,
        matched=len(dataset),
    )


def _doubly_robust_terms(reduction, dataset) -> ChunkTerms:
    eligible = eligible_actions_fn(dataset)
    observed_set = set(np.asarray(reduction.context.observed_actions).tolist())
    model = reduction.model
    terms = np.empty(len(dataset))
    weights = np.empty(len(dataset))
    matched = 0
    coverage_sum = 0.0
    for index, interaction in enumerate(dataset):
        actions = eligible(interaction)
        probs = reduction.policy.distribution(interaction.context, actions)
        baseline = _model_value(model, interaction.context, probs, actions)
        pi_prob = 0.0
        for position, action in enumerate(actions):
            if action == interaction.action:
                pi_prob = float(probs[position])
            if action in observed_set:
                coverage_sum += float(probs[position])
        ratio = pi_prob / interaction.propensity
        if ratio > 0:
            matched += 1
        residual = interaction.reward - model.predict(
            interaction.context, interaction.action
        )
        terms[index] = baseline + ratio * residual
        weights[index] = ratio
    return ChunkTerms(
        n=len(dataset),
        terms=terms,
        weights=weights,
        coverage_sum=coverage_sum,
        matched=matched,
    )


def _switch_terms(reduction, dataset) -> ChunkTerms:
    eligible = eligible_actions_fn(dataset)
    terms = np.empty(len(dataset))
    switched = 0
    matched = 0
    for index, interaction in enumerate(dataset):
        actions = eligible(interaction)
        pi_prob = reduction.policy.probability_of(
            interaction.context, actions, interaction.action
        )
        weight = pi_prob / interaction.propensity
        if weight > 0:
            matched += 1
        if weight <= reduction.tau:
            terms[index] = weight * interaction.reward
        else:
            switched += 1
            probs = reduction.policy.distribution(interaction.context, actions)
            terms[index] = _model_value(
                reduction.model, interaction.context, probs, actions
            )
    return ChunkTerms(
        n=len(dataset), terms=terms, matched=matched, switched=switched
    )


def _chunk_terms(reduction, dataset: Dataset) -> ChunkTerms:
    """The reduction's per-row quantities, computed one row at a time."""
    if isinstance(reduction, IPSReduction):
        weights, coverage_sum = _weights_and_coverage(
            reduction.policy, dataset, reduction.context.observed_actions
        )
        return reduction._chunk_from_weights(
            weights, dataset.rewards(), coverage_sum
        )
    if isinstance(reduction, DirectMethodReduction):
        return _direct_terms(reduction, dataset)
    if isinstance(reduction, DoublyRobustReduction):
        return _doubly_robust_terms(reduction, dataset)
    if isinstance(reduction, SwitchReduction):
        return _switch_terms(reduction, dataset)
    raise TypeError(f"no per-row reference for {type(reduction).__name__}")


def estimate(estimator, policy, dataset: Dataset) -> EstimatorResult:
    """The per-row reference for ``estimator.estimate(policy, dataset)``.

    The fallback ladder walks its rungs through this same reference,
    exactly as :meth:`FallbackEstimator.estimate` walks them lazily.
    """
    if isinstance(estimator, FallbackEstimator):
        return select_down_ladder(
            (estimate(rung, policy, dataset) for rung in estimator.ladder),
            estimator.name,
            policy.name,
        )
    estimator._require_data(dataset)
    context = ReductionContext.from_dataset(dataset)
    reduction = estimator._reduction(policy, dataset, context)
    state = reduction.fold_chunk(
        reduction.init_state(), _chunk_terms(reduction, dataset)
    )
    return reduction.finalize(
        state, LogSummary.from_columns(dataset.columns())
    )
