"""Per-row reference ↔ columnar equivalence for the evaluation engine.

The columnar engine (:mod:`repro.core.columns`) must be a pure
performance optimization: for every estimator and every built-in policy
type, it has to reproduce the per-row reference in ``tests/oracles.py``
to floating-point noise.  These tests pin that contract at ~1e-12 — far
below any statistical meaning of the estimates — and include a
hypothesis property test over randomly generated datasets.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine
from repro.core.bootstrap import bootstrap_ips_interval, bootstrap_snips_interval
from repro.core.columns import loop_probabilities
from repro.core.comparison import compare_policies, evaluate_with_bound
from repro.core.estimators.direct import DirectMethodEstimator, RewardModel
from repro.core.estimators.doubly_robust import DoublyRobustEstimator
from repro.core.estimators.ips import (
    ClippedIPSEstimator,
    IPSEstimator,
    SNIPSEstimator,
)
from repro.core.estimators.switch import SwitchEstimator
from repro.core.learners.cb import PolicyClassOptimizer
from repro.core.policies import (
    ConstantPolicy,
    DeterministicFunctionPolicy,
    EpsilonGreedyPolicy,
    GreedyRegressorPolicy,
    HashPolicy,
    LinearThresholdPolicy,
    MixturePolicy,
    PolicyClass,
    SoftmaxPolicy,
    UniformRandomPolicy,
)
from repro.core.types import ActionSpace, Dataset, Interaction, RewardRange

from tests import oracles
from tests.conftest import make_uniform_dataset

TOL = 1e-12

FEATURES = ["load", "bias"]


def _linear_weights(seed: int, n_actions: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).normal(
        size=(n_actions, len(FEATURES) + 1)
    )


def make_policies() -> list:
    """One instance of every built-in policy type (plus compositions)."""
    return [
        ConstantPolicy(1),
        UniformRandomPolicy(),
        HashPolicy(lambda context: f"{context.get('load', 0.0):.4f}"),
        EpsilonGreedyPolicy(ConstantPolicy(0), epsilon=0.25),
        EpsilonGreedyPolicy(
            LinearThresholdPolicy(_linear_weights(7), FEATURES), epsilon=0.1
        ),
        SoftmaxPolicy(
            lambda context, action: action * context.get("load", 0.0),
            temperature=0.7,
        ),
        LinearThresholdPolicy(_linear_weights(13), FEATURES),
        GreedyRegressorPolicy(
            lambda context, action: action - context.get("load", 0.0) * action**2,
            maximize=True,
        ),
        GreedyRegressorPolicy(
            lambda context, action: action * context.get("load", 0.0),
            maximize=False,
            name="greedy-min",
        ),
        SoftmaxPolicy(
            lambda context, action: action * context.get("load", 0.0),
            temperature=1.3,
            name="softmax-batch",
            batch_scorer=lambda cols: cols.feature_matrix(("load",))[:, :1]
            * np.arange(cols.n_actions),
        ),
        GreedyRegressorPolicy(
            lambda context, action: action - context.get("load", 0.0) * action**2,
            name="greedy-batch",
            batch_predict=lambda cols: (
                np.arange(cols.n_actions)[None, :]
                - cols.feature_matrix(("load",))[:, :1]
                * np.arange(cols.n_actions)[None, :] ** 2
            ),
        ),
        MixturePolicy(
            [ConstantPolicy(0), UniformRandomPolicy()], [0.75, 0.25]
        ),
        DeterministicFunctionPolicy(
            lambda context, actions: actions[-1], name="last-eligible"
        ),
    ]


def make_estimators():
    return [
        IPSEstimator(),
        ClippedIPSEstimator(max_weight=2.0),
        SNIPSEstimator(),
        DirectMethodEstimator(),
        DoublyRobustEstimator(),
        SwitchEstimator(tau=1.5),
    ]


def make_restricted_dataset(n: int = 300, seed: int = 21) -> Dataset:
    """A dataset whose action space restricts eligibility per context."""
    rng = np.random.default_rng(seed)

    def eligibility(context):
        # Action 2 is only eligible under high load; 0 and 1 always.
        return [0, 1, 2] if context["load"] > 0.5 else [0, 1]

    space = ActionSpace(3, eligibility=eligibility)
    dataset = Dataset(action_space=space, reward_range=RewardRange())
    for t in range(n):
        context = {"load": float(rng.uniform()), "bias": 1.0}
        eligible = space.actions(context)
        action = int(rng.choice(eligible))
        dataset.append(
            Interaction(
                context=context,
                action=action,
                reward=float(rng.uniform()),
                propensity=1.0 / len(eligible),
                timestamp=float(t),
            )
        )
    return dataset


def make_spaceless_dataset(n: int = 200, seed: int = 5) -> Dataset:
    """A scavenged-style log with no attached action space."""
    rng = np.random.default_rng(seed)
    dataset = Dataset()
    for t in range(n):
        dataset.append(
            Interaction(
                context={"load": float(rng.uniform()), "bias": 1.0},
                action=int(rng.integers(0, 3)),
                reward=float(rng.uniform()),
                propensity=float(rng.uniform(0.1, 1.0)),
                timestamp=float(t),
            )
        )
    return dataset


DATASET_BUILDERS = {
    "uniform": lambda: make_uniform_dataset(400, seed=3),
    "skewed-propensities": lambda: make_spaceless_dataset(),
    "restricted-eligibility": lambda: make_restricted_dataset(),
}


#: Diagnostics aggregate across the whole dataset, so per-row/columnar
#: summation-order differences can reach a few ulps above the per-value
#: TOL; 1e-9 is still far below every diagnostic threshold.
DIAG_TOL = 1e-9


def assert_diagnostics_match(scalar, vectorized):
    if scalar.diagnostics is None:
        assert vectorized.diagnostics is None
        return
    a, b = scalar.diagnostics, vectorized.diagnostics
    assert b.verdict == a.verdict
    assert b.profile == a.profile
    assert b.n == a.n
    for field in (
        "effective_sample_size",
        "ess_fraction",
        "mean_weight",
        "max_weight",
        "weight_q99",
        "min_propensity",
        "propensity_identity_error",
        "support_coverage",
    ):
        expected = getattr(a, field)
        actual = getattr(b, field)
        if expected is None:
            assert actual is None, field
        elif np.isnan(expected):
            assert np.isnan(actual), field
        else:
            assert actual == pytest.approx(expected, abs=DIAG_TOL), field


def assert_results_match(scalar, vectorized):
    if np.isnan(scalar.value):
        assert np.isnan(vectorized.value)
    else:
        assert vectorized.value == pytest.approx(scalar.value, abs=TOL)
    if np.isfinite(scalar.std_error):
        assert vectorized.std_error == pytest.approx(scalar.std_error, abs=TOL)
    else:
        assert vectorized.std_error == scalar.std_error
    assert vectorized.n == scalar.n
    assert vectorized.effective_n == scalar.effective_n
    assert_diagnostics_match(scalar, vectorized)
    for key, expected in scalar.details.items():
        if key == "fallback":
            assert vectorized.details[key] == expected
            continue
        assert vectorized.details[key] == pytest.approx(expected, abs=TOL), key


class TestEstimatorEquivalence:
    @pytest.mark.parametrize("dataset_name", sorted(DATASET_BUILDERS))
    def test_every_estimator_matches_on_every_policy(self, dataset_name):
        dataset = DATASET_BUILDERS[dataset_name]()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for estimator in make_estimators():
                for policy in make_policies():
                    a = oracles.estimate(estimator, policy, dataset)
                    b = estimator.estimate(policy, dataset)
                    assert_results_match(a, b)

    def test_weight_and_term_vectors_match(self):
        dataset = make_uniform_dataset(300, seed=9)
        ips = IPSEstimator()
        for policy in make_policies()[:6]:
            np.testing.assert_allclose(
                ips.match_weights(policy, dataset),
                oracles.match_weights(policy, dataset),
                atol=TOL,
            )
            np.testing.assert_allclose(
                ips.weighted_rewards(policy, dataset),
                oracles.weighted_rewards(policy, dataset),
                atol=TOL,
            )

    def test_prefitted_reward_model_matches(self):
        dataset = make_uniform_dataset(250, seed=17)
        model = RewardModel(n_actions=3).fit(dataset)
        policy = EpsilonGreedyPolicy(ConstantPolicy(1), 0.2)
        for estimator in (
            DirectMethodEstimator(model),
            DoublyRobustEstimator(model),
            SwitchEstimator(1.2, model),
        ):
            assert_results_match(
                oracles.estimate(estimator, policy, dataset),
                estimator.estimate(policy, dataset),
            )

    def test_policy_class_search_matches(self):
        dataset = make_uniform_dataset(400, seed=23)
        policy_class = PolicyClass.random_linear(
            8, 3, FEATURES, np.random.default_rng(1)
        )
        ips = IPSEstimator()
        optimizer = PolicyClassOptimizer(ips)
        scores = optimizer.score_all(policy_class, dataset)
        reference = [
            oracles.estimate(ips, policy, dataset).value
            for policy in policy_class
        ]
        for (policy, value), expected, member in zip(
            scores, reference, policy_class
        ):
            assert policy is member
            assert value == pytest.approx(expected, abs=TOL)
        best, _ = optimizer.optimize(policy_class, dataset)
        assert best is policy_class.policies[int(np.nanargmax(reference))]

    def test_bootstrap_and_comparison_backends_agree(self, monkeypatch):
        dataset = make_uniform_dataset(300, seed=31)
        policy = EpsilonGreedyPolicy(ConstantPolicy(1), 0.3)
        challenger = UniformRandomPolicy()

        def run():
            rng = lambda: np.random.default_rng(0)  # noqa: E731
            return (
                bootstrap_ips_interval(policy, dataset, rng=rng()),
                bootstrap_snips_interval(policy, dataset, rng=rng()),
                compare_policies(policy, challenger, dataset),
                evaluate_with_bound(policy, dataset),
            )

        ips_b, snips_b, compared_b, bound_b = run()
        # The reference run: the same code over per-row weights.
        monkeypatch.setattr(
            IPSEstimator, "match_weights",
            lambda self, policy, dataset: oracles.match_weights(
                policy, dataset
            ),
        )
        ips_a, snips_a, compared_a, bound_a = run()
        for a, b in ((ips_a, ips_b), (snips_a, snips_b)):
            assert b.low == pytest.approx(a.low, abs=TOL)
            assert b.high == pytest.approx(a.high, abs=TOL)
        assert compared_b.difference == pytest.approx(
            compared_a.difference, abs=TOL
        )
        assert compared_b.interval.low == pytest.approx(
            compared_a.interval.low, abs=TOL
        )
        assert bound_b.value == pytest.approx(bound_a.value, abs=TOL)


class TestBatchPolicyContract:
    def test_batch_matches_loop_for_all_builtins(self):
        dataset = make_restricted_dataset(150, seed=2)
        columns = dataset.columns()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for policy in make_policies():
                batch = policy.probabilities_batch(columns)
                loop = loop_probabilities(policy, columns)
                np.testing.assert_allclose(batch, loop, atol=TOL)
                # Zero mass on ineligible actions, rows sum to one.
                assert not batch[~columns.eligible_mask].any()
                np.testing.assert_allclose(
                    batch.sum(axis=1), np.ones(columns.n), atol=1e-9
                )

    def test_columns_cached_and_invalidated(self):
        dataset = make_uniform_dataset(50, seed=1)
        first = dataset.columns()
        assert dataset.columns() is first
        dataset.append(dataset[0])
        second = dataset.columns()
        assert second is not first
        assert second.n == first.n + 1

    def test_fallback_warns_once_per_type(self):
        dataset = make_uniform_dataset(30, seed=1)
        columns = dataset.columns()
        policy = DeterministicFunctionPolicy(
            lambda context, actions: actions[0], name="opaque"
        )
        engine.reset_backend_warnings()
        with pytest.warns(RuntimeWarning, match="probabilities_batch"):
            policy.probabilities_batch(columns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy.probabilities_batch(columns)  # second call: silent
        engine.reset_backend_warnings()



# -- hypothesis property test ------------------------------------------------


@st.composite
def random_datasets(draw):
    n_actions = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=2, max_value=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dataset = Dataset(
        action_space=ActionSpace(n_actions), reward_range=RewardRange()
    )
    for t in range(n):
        dataset.append(
            Interaction(
                context={
                    "load": float(rng.uniform()),
                    "x": float(rng.normal()),
                },
                action=int(rng.integers(0, n_actions)),
                reward=float(rng.uniform()),
                propensity=float(rng.uniform(0.05, 1.0)),
                timestamp=float(t),
            )
        )
    return dataset


@st.composite
def random_policies(draw, n_actions: int):
    kind = draw(st.sampled_from(["constant", "uniform", "eps", "linear"]))
    if kind == "constant":
        return ConstantPolicy(draw(st.integers(0, n_actions - 1)))
    if kind == "uniform":
        return UniformRandomPolicy()
    if kind == "eps":
        return EpsilonGreedyPolicy(
            ConstantPolicy(draw(st.integers(0, n_actions - 1))),
            epsilon=draw(st.floats(0.0, 1.0, allow_nan=False)),
        )
    weights = np.random.default_rng(
        draw(st.integers(0, 2**31 - 1))
    ).normal(size=(n_actions, 3))
    return LinearThresholdPolicy(weights, ["load", "x"])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_scalar_vectorized_agree(data):
    dataset = data.draw(random_datasets())
    policy = data.draw(random_policies(dataset.action_space.n_actions))
    for estimator in (IPSEstimator(), SNIPSEstimator()):
        a = oracles.estimate(estimator, policy, dataset)
        b = estimator.estimate(policy, dataset)
        assert_results_match(a, b)
