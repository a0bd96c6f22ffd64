"""Full-feedback (supervised) baseline trainer.

The machine-health logs reveal the reward of *every* wait time
("similar to a supervised learning dataset", §3), which yields an
idealized baseline: fit each action's reward model on every
interaction, not just those where the action was taken.  Figs. 3–4
measure CB learning and evaluation against this ceiling.  As §4 notes,
the ceiling is not deployable long-term — once integrated, new logs
would be partial-feedback again.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.features import Featurizer
from repro.core.learners.regression import RidgeRegressor
from repro.core.policies import GreedyRegressorPolicy, Policy
from repro.core.types import Context, Dataset


class SupervisedTrainer:
    """Trains per-action ridge models from full-feedback interactions.

    Every interaction must carry ``full_rewards`` (one reward per
    action).  The resulting greedy policy is the paper's "policy
    trained using supervised learning on the full feedback dataset".
    """

    def __init__(
        self,
        n_actions: int,
        featurizer: Optional[Featurizer] = None,
        l2: float = 1.0,
        maximize: bool = True,
        name: str = "supervised-full-feedback",
    ) -> None:
        if n_actions <= 0:
            raise ValueError("n_actions must be positive")
        self.n_actions = n_actions
        self.featurizer = featurizer or Featurizer(n_dims=32)
        self.l2 = l2
        self.maximize = maximize
        self.name = name
        self._models: list[RidgeRegressor] = []

    def fit(self, dataset: Dataset) -> "SupervisedTrainer":
        """Fit one model per action using every interaction's reward."""
        if len(dataset) == 0:
            raise ValueError("cannot train on an empty dataset")
        X = self.featurizer.matrix([i.context for i in dataset])
        self._models = []
        for action in range(self.n_actions):
            y = []
            for interaction in dataset:
                if interaction.full_rewards is None:
                    raise ValueError(
                        "supervised training requires full_rewards on every "
                        "interaction (full-feedback data)"
                    )
                if len(interaction.full_rewards) != self.n_actions:
                    raise ValueError(
                        f"interaction has {len(interaction.full_rewards)} "
                        f"full rewards, expected {self.n_actions}"
                    )
                y.append(interaction.full_rewards[action])
            model = RidgeRegressor(self.featurizer.n_dims, self.l2)
            model.fit(X, np.asarray(y))
            self._models.append(model)
        return self

    def predict(self, context: Context, action: int) -> float:
        """Predicted reward of ``action`` in ``context``."""
        if not self._models:
            raise RuntimeError("trainer must be fitted before predicting")
        return self._models[action].predict(self.featurizer.vector(context))

    def policy(self) -> Policy:
        """The greedy policy over the fitted models."""
        if not self._models:
            raise RuntimeError("trainer must be fitted before extracting a policy")
        return GreedyRegressorPolicy(
            self.predict, maximize=self.maximize, name=self.name
        )

    def average_reward(self, dataset: Dataset) -> float:
        """Ground-truth average reward of the greedy policy on
        full-feedback data (no estimation involved — just lookup)."""
        if len(dataset) == 0:
            raise ValueError("empty dataset")
        policy = self.policy()
        total = 0.0
        for interaction in dataset:
            if interaction.full_rewards is None:
                raise ValueError("ground truth requires full_rewards")
            actions = list(range(self.n_actions))
            chosen = policy.action(interaction.context, actions)
            total += interaction.full_rewards[chosen]
        return total / len(dataset)
