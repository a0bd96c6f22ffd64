"""Unit tests for IPS-family estimators."""

import numpy as np
import pytest

from repro.core.estimators.ips import (
    ClippedIPSEstimator,
    IPSEstimator,
    SNIPSEstimator,
)
from repro.core.policies import (
    ConstantPolicy,
    EpsilonGreedyPolicy,
    UniformRandomPolicy,
)
from repro.core.types import ActionSpace, Dataset, Interaction

from tests.conftest import make_uniform_dataset


def true_value(action: int) -> float:
    """E[r | a] for make_uniform_dataset's reward function: E[load]=0.5."""
    return 0.2 + 0.15 * action + 0.3 * 0.5


class TestIPSEstimator:
    def test_constant_policy_recovers_true_value(self):
        dataset = make_uniform_dataset(20000, seed=1)
        for action in range(3):
            estimate = IPSEstimator().estimate(ConstantPolicy(action), dataset)
            assert estimate.value == pytest.approx(true_value(action), abs=0.02)

    def test_evaluating_logging_policy_equals_mean_reward(self):
        dataset = make_uniform_dataset(500, seed=2)
        estimate = IPSEstimator().estimate(UniformRandomPolicy(), dataset)
        assert estimate.value == pytest.approx(float(dataset.rewards().mean()))

    def test_match_rate_for_constant_policy(self):
        dataset = make_uniform_dataset(3000, seed=3)
        estimate = IPSEstimator().estimate(ConstantPolicy(0), dataset)
        assert estimate.details["match_rate"] == pytest.approx(1 / 3, abs=0.03)
        assert estimate.effective_n == int(
            estimate.details["match_rate"] * estimate.n
        )

    def test_stochastic_candidate_uses_ratios(self):
        dataset = make_uniform_dataset(300, seed=4)
        policy = EpsilonGreedyPolicy(ConstantPolicy(1), epsilon=0.2)
        weights = IPSEstimator().match_weights(policy, dataset)
        # Every interaction matches with nonzero ratio.
        assert (weights > 0).all()
        # Ratio is pi(a|x)/p: either (0.8+0.2/3)/(1/3) or (0.2/3)/(1/3).
        assert all(
            abs(w - 2.6) < 1e-9 or abs(w - 0.2) < 1e-9 for w in weights
        )
        assert {int(round(w * 10)) for w in weights} == {26, 2}

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            IPSEstimator().estimate(ConstantPolicy(0), Dataset())

    def test_std_error_shrinks_with_n(self):
        small = make_uniform_dataset(200, seed=5)
        large = make_uniform_dataset(5000, seed=5)
        est = IPSEstimator()
        assert (
            est.estimate(ConstantPolicy(0), large).std_error
            < est.estimate(ConstantPolicy(0), small).std_error
        )

    def test_unbiasedness_across_replications(self):
        """Mean of IPS over many independent logs ≈ truth (the §4 claim)."""
        estimates = [
            IPSEstimator()
            .estimate(ConstantPolicy(2), make_uniform_dataset(400, seed=s))
            .value
            for s in range(40)
        ]
        assert np.mean(estimates) == pytest.approx(true_value(2), abs=0.02)

    def test_weighted_rewards_zero_for_nonmatching(self):
        dataset = make_uniform_dataset(100, seed=6)
        terms = IPSEstimator().weighted_rewards(ConstantPolicy(0), dataset)
        actions = dataset.actions()
        assert (terms[actions != 0] == 0).all()


class TestClippedIPS:
    def test_no_clipping_when_weights_small(self):
        dataset = make_uniform_dataset(500, seed=7)
        plain = IPSEstimator().estimate(ConstantPolicy(0), dataset)
        clipped = ClippedIPSEstimator(max_weight=100.0).estimate(
            ConstantPolicy(0), dataset
        )
        assert clipped.value == pytest.approx(plain.value)
        assert clipped.details["clipped_fraction"] == 0.0

    def test_clipping_caps_weights(self):
        ds = Dataset(action_space=ActionSpace(2))
        ds.append(Interaction({}, 0, reward=1.0, propensity=0.001))
        ds.append(Interaction({}, 1, reward=0.5, propensity=0.999))
        clipped = ClippedIPSEstimator(max_weight=2.0).estimate(
            ConstantPolicy(0), ds
        )
        # weight would be 1000; capped at 2 -> mean(2*1.0, 0)/... = 1.0
        assert clipped.value == pytest.approx(1.0)
        assert clipped.details["clipped_fraction"] == pytest.approx(0.5)

    def test_invalid_max_weight(self):
        with pytest.raises(ValueError):
            ClippedIPSEstimator(max_weight=0.0)

    def test_clipping_bias_is_downward_for_rare_actions(self):
        # Action 0 logged rarely with tiny propensity: clipping loses mass.
        rng = np.random.default_rng(0)
        ds = Dataset(action_space=ActionSpace(2))
        for t in range(1000):
            if rng.random() < 0.01:
                ds.append(Interaction({}, 0, reward=1.0, propensity=0.01))
            else:
                ds.append(Interaction({}, 1, reward=0.0, propensity=0.99))
        plain = IPSEstimator().estimate(ConstantPolicy(0), ds).value
        clipped = ClippedIPSEstimator(max_weight=5.0).estimate(
            ConstantPolicy(0), ds
        ).value
        assert clipped < plain


class TestSNIPS:
    def test_matches_truth(self):
        dataset = make_uniform_dataset(20000, seed=8)
        estimate = SNIPSEstimator().estimate(ConstantPolicy(1), dataset)
        assert estimate.value == pytest.approx(true_value(1), abs=0.02)

    def test_lower_variance_than_ips(self):
        """SNIPS should have smaller spread across replications."""
        ips_vals, snips_vals = [], []
        for seed in range(30):
            ds = make_uniform_dataset(300, seed=100 + seed)
            ips_vals.append(IPSEstimator().estimate(ConstantPolicy(1), ds).value)
            snips_vals.append(
                SNIPSEstimator().estimate(ConstantPolicy(1), ds).value
            )
        assert np.std(snips_vals) < np.std(ips_vals)

    def test_estimate_within_observed_reward_range(self):
        """Self-normalization keeps the estimate inside [min r, max r]."""
        dataset = make_uniform_dataset(200, seed=9)
        value = SNIPSEstimator().estimate(ConstantPolicy(2), dataset).value
        rewards = dataset.rewards()
        assert rewards.min() <= value <= rewards.max()

    def test_shift_invariance(self):
        """Adding a constant to all rewards shifts SNIPS by that constant."""
        dataset = make_uniform_dataset(400, seed=10)
        shifted = Dataset(action_space=dataset.action_space)
        for i in dataset:
            shifted.append(
                Interaction(i.context, i.action, i.reward + 5.0, i.propensity)
            )
        base = SNIPSEstimator().estimate(ConstantPolicy(0), dataset).value
        moved = SNIPSEstimator().estimate(ConstantPolicy(0), shifted).value
        assert moved == pytest.approx(base + 5.0)

    def test_no_match_returns_nan(self):
        ds = Dataset(action_space=ActionSpace(3))
        for t in range(10):
            ds.append(Interaction({}, 0, 0.5, propensity=0.5))
        estimate = SNIPSEstimator().estimate(ConstantPolicy(2), ds)
        assert np.isnan(estimate.value)
        assert estimate.effective_n == 0

    def test_effective_sample_size_reported(self):
        dataset = make_uniform_dataset(300, seed=11)
        estimate = SNIPSEstimator().estimate(ConstantPolicy(0), dataset)
        ess = estimate.details["effective_sample_size"]
        assert 0 < ess <= 300


class TestEstimatorResult:
    def test_confidence_interval_symmetric(self):
        dataset = make_uniform_dataset(500, seed=12)
        estimate = IPSEstimator().estimate(ConstantPolicy(0), dataset)
        lo, hi = estimate.confidence_interval()
        assert lo < estimate.value < hi
        assert estimate.value - lo == pytest.approx(hi - estimate.value)


class TestIPSWeightMemo:
    def test_ips_weights_memoized_per_policy(self):
        columns = make_uniform_dataset(60, seed=0).columns()
        policy = EpsilonGreedyPolicy(ConstantPolicy(0), 0.2)
        first = columns.ips_weights(policy)
        assert columns.ips_weights(policy) is first
        other = columns.ips_weights(ConstantPolicy(1))
        assert other is not first
        np.testing.assert_array_equal(
            first,
            columns.logged_probabilities(policy) / columns.propensities,
        )
