"""The Direct Method (DM): model-based off-policy evaluation.

Fit a reward model ``r̂(x, a)`` on the logged data, then score a
candidate policy by the model's prediction at the actions the policy
*would* take.  §2 notes this family "make[s] assumptions about the real
world and thus tend[s] to be biased" — our benchmarks demonstrate
exactly that — but it has low variance and is the model half of the
doubly-robust estimator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.columns import DatasetColumns, distinct_actions
from repro.core.estimators.base import OffPolicyEstimator
from repro.core.features import Featurizer
from repro.core.policies import Policy
from repro.core.types import Context, Dataset
from repro.obs.tracing import get_tracer


class RewardModel:
    """Per-action ridge regression reward model ``r̂(x, a)``.

    One ridge-regularized linear model per action over hashed context
    features.  Actions never observed in the training log predict the
    global mean reward (the only unbiased guess available).
    """

    def __init__(
        self,
        n_actions: int,
        featurizer: Optional[Featurizer] = None,
        l2: float = 1.0,
    ) -> None:
        if n_actions <= 0:
            raise ValueError("n_actions must be positive")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.n_actions = n_actions
        self.featurizer = featurizer or Featurizer(n_dims=32)
        self.l2 = l2
        self._weights: dict[int, np.ndarray] = {}
        self._global_mean = 0.0
        self._fitted = False

    def fit(self, dataset: Dataset) -> "RewardModel":
        """Fit per-action ridge regressions on the logged interactions.

        Folds the dataset's memoized hashed-feature matrix through a
        :class:`RewardModelFolder` — the fold streamed evaluation
        (:func:`repro.core.engine.evaluate_jsonl_chunked`) runs chunk by
        chunk — and solves once.  A refit replaces every weight vector:
        actions absent from ``dataset`` predict its global mean again.
        """
        if len(dataset) == 0:
            raise ValueError("cannot fit a reward model on an empty dataset")
        columns = dataset.columns()
        with get_tracer().span("reward_model.fit", rows=columns.n) as span:
            folder = RewardModelFolder(self.featurizer, self.l2)
            folder.fold_matrix(
                columns.hashed_matrix(self.featurizer),
                columns.actions,
                columns.rewards,
            )
            fitted = folder.finalize(self.n_actions)
            span.set(actions=len(fitted._weights))
        self._weights = fitted._weights
        self._global_mean = fitted._global_mean
        self._fitted = True
        return self

    def predict(self, context: Context, action: int) -> float:
        """Predicted reward for taking ``action`` in ``context``."""
        if not self._fitted:
            raise RuntimeError("reward model must be fitted before predicting")
        weights = self._weights.get(action)
        if weights is None:
            return self._global_mean
        return float(weights @ self.featurizer.vector(context))

    def predict_matrix(self, columns: DatasetColumns) -> np.ndarray:
        """``(N, K)`` predictions for every (context, action) pair.

        One matrix product per fitted action against the columnar
        view's memoized hashed-feature matrix; actions without a fitted
        model fill with the global mean, exactly like :meth:`predict`.

        Subclasses that override :meth:`predict` without overriding
        this method automatically get a per-row loop over their
        ``predict``, so the batch path can never disagree with the
        scalar one.
        """
        if not self._fitted:
            raise RuntimeError("reward model must be fitted before predicting")
        if type(self).predict is not RewardModel.predict:
            out = np.empty((columns.n, columns.n_actions))
            for row, context in enumerate(columns.contexts):
                for action in range(columns.n_actions):
                    out[row, action] = self.predict(context, action)
            return out
        phi = columns.hashed_matrix(self.featurizer)
        out = np.full((columns.n, columns.n_actions), self._global_mean)
        for action, weights in self._weights.items():
            if 0 <= action < columns.n_actions:
                out[:, action] = phi @ weights
        return out


class RewardModelFolder:
    """Incrementally fit a :class:`RewardModel` from streamed chunks.

    Ridge regression is itself a reduction: the per-action Gram matrix
    ``ΣX'X`` and moment vector ``ΣX'y`` are sums over rows, so the
    chunked file driver folds them during its discovery pass and solves
    once at the end.  :meth:`RewardModel.fit` is one :meth:`fold_matrix`
    of the whole log, so the two agree up to float reassociation of the
    sums.
    """

    def __init__(
        self,
        featurizer: Optional[Featurizer] = None,
        l2: float = 1.0,
    ) -> None:
        self.featurizer = featurizer or Featurizer(n_dims=32)
        self.l2 = l2
        self._gram: dict[int, np.ndarray] = {}
        self._moment: dict[int, np.ndarray] = {}
        self._reward_sum = 0.0
        self._n = 0

    def fold_rows(
        self,
        contexts,
        context_ids: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
    ) -> None:
        """Featurize one chunk of (context, action, reward) rows and fold it.

        Row ``i``'s context is ``contexts[context_ids[i]]``, with each
        distinct context once in ``contexts``: each is featurized once
        and its row gathered by id.
        """
        phi = self.featurizer.matrix(list(contexts))
        self.fold_matrix(phi[context_ids], actions, rewards)

    def fold_matrix(
        self,
        phi: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
    ) -> None:
        """Fold rows already hashed into ``phi`` (one row per action/reward)."""
        actions = np.asarray(actions)
        rewards = np.asarray(rewards, dtype=float)
        if actions.size == 0:
            return
        for action in distinct_actions(actions):
            mask = actions == action
            X = phi[mask]
            y = rewards[mask]
            key = int(action)
            if key in self._gram:
                self._gram[key] += X.T @ X
                self._moment[key] += X.T @ y
            else:
                self._gram[key] = X.T @ X
                self._moment[key] = X.T @ y
        self._reward_sum += float(rewards.sum())
        self._n += int(actions.size)

    def finalize(self, n_actions: int) -> RewardModel:
        """Solve the folded normal equations into a fitted model."""
        if self._n == 0:
            raise ValueError("cannot fit a reward model on zero rows")
        model = RewardModel(n_actions, self.featurizer, self.l2)
        model._global_mean = self._reward_sum / self._n
        dims = self.featurizer.n_dims
        ridge = self.l2 * np.eye(dims)
        for action, gram in self._gram.items():
            model._weights[action] = np.linalg.solve(
                gram + ridge, self._moment[action]
            )
        model._fitted = True
        return model


def fit_default_model(dataset: Dataset) -> RewardModel:
    """The model DM/DR/SWITCH fit when none is supplied: one reward
    model over the dataset's own action space (or the largest logged
    action id when the log carries no action space).

    Memoized on the dataset's columnar view, so every estimate against
    one log — any policy, any model-based estimator, the ``auto``
    ladder's DM rung — shares a single fit.  Mutating the dataset
    rebuilds the view, which forces a refit.
    """
    columns = dataset.columns()
    if columns._default_model is None:
        columns._default_model = RewardModel(columns.n_actions).fit(dataset)
    return columns._default_model


class DirectMethodEstimator(OffPolicyEstimator):
    """Score a policy with a fitted reward model.

    If no pre-fitted model is supplied, one is fitted on the evaluation
    dataset itself (the paper's setting: all you have is the log).
    """

    name = "direct-method"
    # No importance weights: only support coverage applies, and only as
    # a warning — the model extrapolates off-support, it doesn't blow up.
    diagnostics_profile = "model"
    needs_model = True

    def __init__(self, model: Optional[RewardModel] = None) -> None:
        self.model = model

    def reduction(self, policy: Policy, context, model=None):
        from repro.core.estimators.reductions import DirectMethodReduction

        model = self.model or model
        if model is None:
            raise ValueError(
                f"{self.name}: reduction requires a fitted reward model"
            )
        return DirectMethodReduction(
            policy, context, name=self.name, model=model
        )

    def _reduction(self, policy: Policy, dataset: Dataset, context):
        return self.reduction(
            policy, context, model=self.model or fit_default_model(dataset)
        )
