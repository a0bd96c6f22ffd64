"""Propensity inference (step 2 of the methodology).

Off-policy evaluation needs the probability ``p`` with which the
logging system chose each logged action.  §3 identifies two routes:

- **Code inspection**: the randomization is visible in the source
  (e.g. Redis samples eviction candidates uniformly; Nginx `random`
  picks uniformly) — :class:`DeclaredPropensityModel`.
- **Regression on the scavenged ⟨x, a⟩ data**: "a more robust approach
  is to do a regression ... to learn the probability distribution over
  actions" — :class:`RegressionPropensityModel` (softmax regression)
  and the context-free :class:`EmpiricalPropensityModel`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from repro.core.features import Featurizer
from repro.core.policies import Policy
from repro.core.types import Context, Dataset, Interaction


class PropensityModel(ABC):
    """Interface: the logging policy's action distribution."""

    @abstractmethod
    def propensity(
        self, context: Context, action: int, actions: Sequence[int]
    ) -> float:
        """Probability the logging policy chose ``action`` in ``context``."""

    def annotate(
        self,
        records: Sequence[tuple[Context, int, float]],
        actions_of: Optional[Sequence[Sequence[int]]] = None,
        n_actions: Optional[int] = None,
    ) -> Dataset:
        """Turn scavenged ``(x, a, r)`` triples into a full dataset.

        ``actions_of`` optionally supplies the eligible action set per
        record; otherwise ``n_actions`` (or the observed max) defines a
        shared one.
        """
        if not records:
            raise ValueError("no records to annotate")
        if n_actions is None:
            n_actions = max(a for _, a, _ in records) + 1
        shared = list(range(n_actions))
        dataset = Dataset()
        for index, (context, action, reward) in enumerate(records):
            eligible = (
                list(actions_of[index]) if actions_of is not None else shared
            )
            p = self.propensity(context, action, eligible)
            dataset.append(
                Interaction(
                    context=context,
                    action=action,
                    reward=reward,
                    propensity=p,
                    timestamp=float(index),
                )
            )
        return dataset


class DeclaredPropensityModel(PropensityModel):
    """Propensities read off a known logging policy (code inspection)."""

    def __init__(self, logging_policy: Policy) -> None:
        self.logging_policy = logging_policy

    def propensity(
        self, context: Context, action: int, actions: Sequence[int]
    ) -> float:
        p = self.logging_policy.probability_of(context, actions, action)
        if p <= 0.0:
            raise ValueError(
                f"declared policy gives zero probability to logged action "
                f"{action}; the log is inconsistent with the declaration"
            )
        return p


class EmpiricalPropensityModel(PropensityModel):
    """Context-free action frequencies, with add-one smoothing.

    Correct when the logging policy ignores context (uniform random,
    round-robin marginals, hash routing over context-free keys);
    biased otherwise — use the regression model then.
    """

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._total = 0

    def fit(self, actions: Sequence[int]) -> "EmpiricalPropensityModel":
        """Count action frequencies from the scavenged log."""
        if len(actions) == 0:
            raise ValueError("cannot fit on zero actions")
        self._counts = Counter(int(a) for a in actions)
        self._total = len(actions)
        return self

    def propensity(
        self, context: Context, action: int, actions: Sequence[int]
    ) -> float:
        if self._total == 0:
            raise RuntimeError("model must be fitted before use")
        # Add-one smoothing keeps every eligible action's propensity
        # positive, as IPS requires.
        return (self._counts.get(action, 0) + 1.0) / (
            self._total + len(actions)
        )


class RegressionPropensityModel(PropensityModel):
    """Softmax (multinomial logistic) regression  P(a | x).

    Trained by SGD on the scavenged ``(x, a)`` pairs.  A propensity
    floor keeps estimates away from 0 so that downstream IPS weights
    stay finite even when the model is overconfident.
    """

    def __init__(
        self,
        n_actions: int,
        featurizer: Optional[Featurizer] = None,
        learning_rate: float = 0.5,
        epochs: int = 5,
        floor: float = 1e-3,
    ) -> None:
        if n_actions <= 1:
            raise ValueError("need at least two actions to discriminate")
        if not 0.0 < floor < 1.0:
            raise ValueError("floor must be in (0, 1)")
        self.n_actions = n_actions
        self.featurizer = featurizer or Featurizer(n_dims=32)
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.floor = floor
        self.weights = np.zeros((n_actions, self.featurizer.n_dims))
        self._fitted = False

    def _softmax(self, x_vec: np.ndarray) -> np.ndarray:
        logits = self.weights @ x_vec
        logits -= logits.max()
        exp = np.exp(logits)
        return exp / exp.sum()

    def fit(
        self, contexts: Sequence[Context], actions: Sequence[int]
    ) -> "RegressionPropensityModel":
        """SGD on the multinomial log-likelihood of the logged actions."""
        if len(contexts) != len(actions):
            raise ValueError("contexts and actions length mismatch")
        if not contexts:
            raise ValueError("cannot fit on zero examples")
        X = self.featurizer.matrix(list(contexts))
        n = len(X)
        step = 0
        for _ in range(self.epochs):
            for x_vec, action in zip(X, actions):
                probs = self._softmax(x_vec)
                gradient_scale = probs.copy()
                gradient_scale[action] -= 1.0
                rate = self.learning_rate / np.sqrt(1.0 + step)
                self.weights -= rate * np.outer(gradient_scale, x_vec)
                step += 1
        del n
        self._fitted = True
        return self

    def distribution(self, context: Context) -> np.ndarray:
        """Estimated action distribution at ``context`` (floored)."""
        if not self._fitted:
            raise RuntimeError("model must be fitted before use")
        probs = self._softmax(self.featurizer.vector(context))
        probs = np.maximum(probs, self.floor)
        return probs / probs.sum()

    def propensity(
        self, context: Context, action: int, actions: Sequence[int]
    ) -> float:
        probs = self.distribution(context)
        eligible = list(actions)
        restricted = np.array([probs[a] for a in eligible])
        restricted /= restricted.sum()
        return float(restricted[eligible.index(action)])
