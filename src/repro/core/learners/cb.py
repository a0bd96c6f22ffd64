"""Contextual-bandit learners.

Two complementary routes to a good policy from exploration data:

1. **Reduction to regression** (:class:`EpsilonGreedyLearner`,
   :class:`EpochGreedyLearner`): learn per-action reward predictors
   with importance weighting and act greedily on them.  This is how
   the paper's CB policy for Table 2 "learns a good estimator of each
   server's latency based on context, and greedily pick[s] the lowest
   latency".

2. **Policy-class search** (:class:`PolicyClassOptimizer`): evaluate an
   enumerable class Π with an off-policy estimator and return the best
   member, realizing the "optimize over a large class of policies"
   promise of §1 with the Eq. 1 simultaneous guarantee.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from repro.core.estimators.base import OffPolicyEstimator
from repro.core.estimators.ips import IPSEstimator
from repro.core.features import Featurizer
from repro.core.learners.regression import SGDRegressor
from repro.core.policies import (
    EpsilonGreedyPolicy,
    GreedyRegressorPolicy,
    Policy,
    PolicyClass,
)
from repro.core.types import Context, Dataset, Interaction


class CBLearner(ABC):
    """Interface: consume exploration data, produce a policy."""

    @abstractmethod
    def observe(self, interaction: Interaction) -> None:
        """Incorporate one exploration datapoint."""

    @abstractmethod
    def policy(self) -> Policy:
        """The current learned (deterministic, greedy) policy."""

    def observe_all(self, dataset: Dataset) -> None:
        """Stream an entire dataset through :meth:`observe` in order."""
        for interaction in dataset:
            self.observe(interaction)

    def exploration_policy(self, epsilon: float) -> Policy:
        """The learned policy wrapped for deployment with ε exploration,
        so that its own logs remain harvestable."""
        return EpsilonGreedyPolicy(self.policy(), epsilon)


class EpsilonGreedyLearner(CBLearner):
    """Per-action SGD reward models + greedy action selection.

    Each observation updates the model of the *taken* action with
    importance weight ``min(1/p, clip)``.  The learned policy predicts
    the reward of every action and picks the best (``maximize=False``
    picks the smallest — e.g. latency, downtime).
    """

    def __init__(
        self,
        n_actions: int,
        featurizer: Optional[Featurizer] = None,
        learning_rate: float = 0.1,
        maximize: bool = True,
        importance_clip: float = 100.0,
        name: str = "cb-eps-greedy",
    ) -> None:
        if n_actions <= 0:
            raise ValueError("n_actions must be positive")
        if importance_clip <= 0:
            raise ValueError("importance_clip must be positive")
        self.n_actions = n_actions
        self.featurizer = featurizer or Featurizer(n_dims=32)
        self.maximize = maximize
        self.importance_clip = importance_clip
        self.name = name
        self._models = [
            SGDRegressor(self.featurizer.n_dims, learning_rate)
            for _ in range(n_actions)
        ]
        self.observed = 0

    def observe(self, interaction: Interaction) -> None:
        if not 0 <= interaction.action < self.n_actions:
            raise ValueError(
                f"action {interaction.action} outside [0, {self.n_actions})"
            )
        x = self.featurizer.vector(interaction.context)
        importance = min(1.0 / interaction.propensity, self.importance_clip)
        self._models[interaction.action].update(x, interaction.reward, importance)
        self.observed += 1

    def predict(self, context: Context, action: int) -> float:
        """Current predicted reward of ``action`` in ``context``."""
        return self._models[action].predict(self.featurizer.vector(context))

    def policy(self) -> Policy:
        return GreedyRegressorPolicy(
            self.predict, maximize=self.maximize, name=self.name
        )


class EpochGreedyLearner(CBLearner):
    """Epoch-greedy (Langford & Zhang 2007), simplified.

    Alternates between exploration epochs (the learner would act
    uniformly) and exploitation epochs; *all* observations update the
    models, but the schedule exposes the explore/exploit trade-off and
    gives a principled propensity to log during deployment.  Epoch
    lengths follow the classic ``t^{2/3}`` split: by time ``t``, about
    ``t^{2/3}`` rounds are exploration.
    """

    def __init__(
        self,
        n_actions: int,
        featurizer: Optional[Featurizer] = None,
        learning_rate: float = 0.1,
        maximize: bool = True,
        name: str = "epoch-greedy",
    ) -> None:
        self._inner = EpsilonGreedyLearner(
            n_actions, featurizer, learning_rate, maximize, name=name
        )
        self.name = name
        self._round = 0

    @property
    def observed(self) -> int:
        """Number of exploration datapoints consumed."""
        return self._inner.observed

    def exploring_now(self) -> bool:
        """Whether the current round is an exploration round."""
        t = max(self._round, 1)
        explore_budget = int(np.ceil(t ** (2.0 / 3.0)))
        return self._round < explore_budget

    def observe(self, interaction: Interaction) -> None:
        self._inner.observe(interaction)
        self._round += 1

    def predict(self, context: Context, action: int) -> float:
        """Current predicted reward of ``action`` in ``context``."""
        return self._inner.predict(context, action)

    def policy(self) -> Policy:
        return self._inner.policy()

    def deployment_propensity(self, n_actions: int) -> float:
        """Minimum propensity any action receives if deployed now."""
        if self.exploring_now():
            return 1.0 / n_actions
        return 0.0


class BaggingLearner(CBLearner):
    """Bootstrap-bagged CB learning (VW's ``--bag`` exploration).

    Maintains ``n_bags`` independent per-action regressor sets; each
    observation updates every bag with a Poisson(1)-distributed
    multiplicity (the online bootstrap).  The bag disagreement yields a
    *stochastic* deployment policy: the probability of an action is the
    fraction of bags whose greedy choice it is — Thompson-style
    exploration whose propensities are exactly computable, so deployed
    logs remain harvestable without an ε floor.
    """

    def __init__(
        self,
        n_actions: int,
        n_bags: int = 8,
        featurizer: Optional[Featurizer] = None,
        learning_rate: float = 0.1,
        maximize: bool = True,
        importance_clip: float = 100.0,
        seed: int = 0,
        name: str = "cb-bag",
    ) -> None:
        if n_bags <= 1:
            raise ValueError("need at least two bags to disagree")
        self.n_actions = n_actions
        self.n_bags = n_bags
        self.maximize = maximize
        self.name = name
        self._members = [
            EpsilonGreedyLearner(
                n_actions,
                featurizer=featurizer,
                learning_rate=learning_rate,
                maximize=maximize,
                importance_clip=importance_clip,
                name=f"{name}[{index}]",
            )
            for index in range(n_bags)
        ]
        self._rng = np.random.default_rng(seed)
        self.observed = 0

    def observe(self, interaction: Interaction) -> None:
        for member in self._members:
            for _ in range(int(self._rng.poisson(1.0))):
                member.observe(interaction)
        self.observed += 1

    def votes(self, context: Context, actions) -> np.ndarray:
        """Per-action fraction of bags voting for it."""
        counts = np.zeros(len(actions))
        for member in self._members:
            choice = member.policy().action(context, actions)
            counts[list(actions).index(choice)] += 1.0
        return counts / counts.sum()

    def policy(self) -> Policy:
        """The deterministic majority-vote policy."""
        learner = self

        class _Majority(Policy):
            name = learner.name

            def distribution(self, context: Context, actions) -> np.ndarray:
                votes = learner.votes(context, actions)
                probs = np.zeros(len(actions))
                probs[int(np.argmax(votes))] = 1.0
                return probs

        return _Majority()

    def stochastic_policy(self) -> Policy:
        """The bag-vote distribution itself — the exploration policy to
        *deploy*, with exactly-known propensities."""
        learner = self

        class _BagVote(Policy):
            name = f"{learner.name}-stochastic"

            def distribution(self, context: Context, actions) -> np.ndarray:
                return learner.votes(context, actions)

        return _BagVote()


class PerActionFeaturesLearner(CBLearner):
    """CB learning with action-dependent features (VW's ``--cb_adf``).

    When actions are *things with features* rather than fixed slots —
    eviction candidates with (idle, frequency, size), servers with
    per-server health stats — a single shared model over the action's
    feature block generalizes across actions and action-set sizes.
    ``features_of(context, action)`` extracts the block; one regressor
    scores all actions.

    This is the right reduction for the caching scenario, where the
    action set is a fresh random sample of resident keys every time.
    """

    def __init__(
        self,
        features_of,
        featurizer: Optional[Featurizer] = None,
        learning_rate: float = 0.1,
        maximize: bool = True,
        importance_clip: float = 100.0,
        name: str = "cb-adf",
    ) -> None:
        if importance_clip <= 0:
            raise ValueError("importance_clip must be positive")
        self.features_of = features_of
        self.featurizer = featurizer or Featurizer(n_dims=32)
        self.maximize = maximize
        self.importance_clip = importance_clip
        self.name = name
        self._model = SGDRegressor(self.featurizer.n_dims, learning_rate)
        self.observed = 0

    def observe(self, interaction: Interaction) -> None:
        features = self.features_of(interaction.context, interaction.action)
        x = self.featurizer.vector(features)
        importance = min(1.0 / interaction.propensity, self.importance_clip)
        self._model.update(x, interaction.reward, importance)
        self.observed += 1

    def predict(self, context: Context, action: int) -> float:
        """Predicted reward of taking ``action`` in ``context``."""
        features = self.features_of(context, action)
        return self._model.predict(self.featurizer.vector(features))

    def policy(self) -> Policy:
        return GreedyRegressorPolicy(
            self.predict, maximize=self.maximize, name=self.name
        )


class PolicyClassOptimizer:
    """Offline optimization over an enumerable policy class.

    Evaluates every member of Π with the supplied off-policy estimator
    and returns the best, together with the full score table (useful
    for the Eq. 1 simultaneous-evaluation experiments).  The paper
    notes production systems use smarter search [7]; enumeration is
    exact and fine at the class sizes we simulate.

    The search runs against the dataset's shared
    :class:`~repro.core.columns.DatasetColumns` view: contexts are
    featurized and eligible-action sets resolved once for the whole
    class, so each additional candidate costs only its own ``(N, K)``
    probability matrix and a few reductions.
    """

    def __init__(
        self,
        estimator: Optional[OffPolicyEstimator] = None,
        maximize: bool = True,
    ) -> None:
        self.estimator = estimator or IPSEstimator()
        self.maximize = maximize

    def score_all(
        self, policy_class: PolicyClass, dataset: Dataset
    ) -> list[tuple[Policy, float]]:
        """Evaluate every policy; returns ``(policy, value)`` pairs."""
        if len(dataset) > 0:
            # Materialize the columnar view up front so the one-time
            # featurization pass is amortized across all |Π| members.
            dataset.columns()
        scored = []
        for policy in policy_class:
            result = self.estimator.estimate(policy, dataset)
            scored.append((policy, result.value))
        return scored

    def optimize(
        self, policy_class: PolicyClass, dataset: Dataset
    ) -> tuple[Policy, float]:
        """The best policy in the class and its estimated value."""
        scored = self.score_all(policy_class, dataset)
        values = [v for _, v in scored]
        best = int(np.nanargmax(values)) if self.maximize else int(np.nanargmin(values))
        return scored[best]
