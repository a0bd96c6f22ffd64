"""Policy comparison with finite-sample guarantees.

The decisions the methodology feeds are *comparative*: is the candidate
better than the incumbent, with enough confidence to justify a
deployment?  (§4: "this is already enough to conclude with high
confidence that the learned policy outperforms the default".)

Two tools:

- :func:`evaluate_with_bound` — one policy's IPS estimate with a
  finite-sample confidence interval (empirical-Bernstein on the IPS
  terms; valid for bounded rewards, no normality assumption).
- :func:`compare_policies` — a *paired* comparison: the difference of
  two policies' values estimated on the same log.  Pairing cancels the
  per-context reward noise shared by both candidates, so the
  difference CI is far tighter than differencing two independent CIs.

Both read the per-interaction IPS terms off the dataset's cached
columnar view, so the weight pass is shared with any other estimator
run on the same (policy, log) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from repro.core.estimators.bounds import (
    ConfidenceInterval,
    empirical_bernstein_interval,
    hoeffding_interval,
)
from repro.core.estimators.ips import IPSEstimator
from repro.core.policies import Policy
from repro.core.types import Dataset


@dataclass(frozen=True)
class BoundedEstimate:
    """A point estimate with a finite-sample confidence interval."""

    policy_name: str
    value: float
    interval: ConfidenceInterval
    n: int

    def separated_from(self, other: "BoundedEstimate") -> bool:
        """Whether the two intervals are disjoint (a confident win)."""
        return (
            self.interval.high < other.interval.low
            or other.interval.high < self.interval.low
        )


def evaluate_with_bound(
    policy: Policy,
    dataset: Dataset,
    delta: float = 0.05,
    method: str = "bernstein",
) -> BoundedEstimate:
    """IPS estimate with a distribution-free confidence interval.

    ``method`` is ``"bernstein"`` (empirical Bernstein — tight when the
    IPS terms have low variance) or ``"hoeffding"``.  The value range
    of the IPS terms is ``reward_range.width / min propensity``, which
    both bounds assume.
    """
    terms = IPSEstimator().weighted_rewards(policy, dataset)
    value_range = dataset.reward_range.width / dataset.min_propensity()
    if method == "bernstein":
        interval = empirical_bernstein_interval(terms, delta, value_range)
    elif method == "hoeffding":
        interval = hoeffding_interval(terms, delta, value_range)
    else:
        raise ValueError(f"unknown method {method!r}")
    return BoundedEstimate(
        policy_name=policy.name,
        value=float(terms.mean()),
        interval=interval,
        n=len(dataset),
    )


@dataclass(frozen=True)
class PairedComparison:
    """The estimated value difference ``champion − challenger``."""

    champion_name: str
    challenger_name: str
    difference: float
    interval: ConfidenceInterval
    n: int

    def winner(self, maximize: bool = True) -> str:
        """The confidently better policy, or ``"inconclusive"``.

        A winner is declared only when the difference interval excludes
        zero.
        """
        if self.interval.low > 0.0:
            better_is_champion = maximize
        elif self.interval.high < 0.0:
            better_is_champion = not maximize
        else:
            return "inconclusive"
        return self.champion_name if better_is_champion else (
            self.challenger_name
        )


def compare_policies(
    champion: Policy,
    challenger: Policy,
    dataset: Dataset,
    delta: float = 0.05,
) -> PairedComparison:
    """Paired off-policy comparison on a shared exploration log.

    Computes per-datapoint difference terms
    ``(π₁(a|x) − π₂(a|x)) / p · r`` — datapoints where the candidates
    agree contribute exactly zero, so shared noise cancels instead of
    inflating the interval.
    """
    ips = IPSEstimator()
    champion_terms = ips.weighted_rewards(champion, dataset)
    challenger_terms = ips.weighted_rewards(challenger, dataset)
    differences = champion_terms - challenger_terms
    # Each difference term lies in ±(range / min propensity).
    value_range = 2.0 * dataset.reward_range.width / dataset.min_propensity()
    interval = empirical_bernstein_interval(differences, delta, value_range)
    return PairedComparison(
        champion_name=champion.name,
        challenger_name=challenger.name,
        difference=float(differences.mean()),
        interval=interval,
        n=len(dataset),
    )


def sufficient_log_size(
    champion: Policy,
    challenger: Policy,
    dataset: Dataset,
    delta: float = 0.05,
) -> float:
    """Rough N at which the current paired comparison would separate.

    Extrapolates the empirical variance of the difference terms into
    the empirical-Bernstein radius
    ``sqrt(2 v L / N) + 3 R L / N`` (L = log(3/δ), R the term range)
    and solves ``radius(N) = |difference|`` — a quadratic in
    ``1/sqrt(N)``.  ``inf`` when the observed difference is
    (numerically) zero.
    """
    ips = IPSEstimator()
    differences = (
        ips.weighted_rewards(champion, dataset)
        - ips.weighted_rewards(challenger, dataset)
    )
    gap = abs(float(differences.mean()))
    if gap < 1e-12:
        return float("inf")
    variance = float(differences.var(ddof=1)) if len(differences) > 1 else 0.0
    log_term = float(np.log(3.0 / delta))
    value_range = 2.0 * dataset.reward_range.width / dataset.min_propensity()
    # radius(N) = b·x + a·x² with x = 1/sqrt(N):
    a = 3.0 * value_range * log_term
    b = math.sqrt(2.0 * variance * log_term)
    x = (-b + math.sqrt(b**2 + 4.0 * a * gap)) / (2.0 * a)
    return 1.0 / x**2
