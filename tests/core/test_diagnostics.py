"""Tests for OPE reliability diagnostics.

Includes the two acceptance scenarios of the reliability layer: the
Table 2 degenerate-policy failure (deterministic JSQ-style logging,
propensity ≡ 1) must be flagged UNRELIABLE, and a well-supported
policy on uniformly-explored machine-health logs must not be.
"""

import numpy as np
import pytest

from repro.core.diagnostics import (
    VERDICT_OK,
    VERDICT_UNRELIABLE,
    VERDICT_WARN,
    DiagnosticThresholds,
    diagnose,
    effective_sample_size,
    propensity_identity_error,
    weight_quantile,
)
from repro.core.estimators.fallback import FallbackEstimator
from repro.core.estimators.ips import (
    ClippedIPSEstimator,
    IPSEstimator,
    SNIPSEstimator,
)
from repro.core.policies import ConstantPolicy, UniformRandomPolicy
from repro.core.types import Dataset, Interaction

from tests.conftest import make_uniform_dataset


class TestEffectiveSampleSize:
    def test_uniform_weights_give_n(self):
        assert effective_sample_size(np.ones(50)) == pytest.approx(50.0)

    def test_single_dominant_weight_gives_one(self):
        weights = np.array([100.0, 0.0, 0.0, 0.0])
        assert effective_sample_size(weights) == pytest.approx(1.0)

    def test_all_zero_weights_give_zero(self):
        assert effective_sample_size(np.zeros(10)) == 0.0

    def test_denormal_weights_do_not_nan(self):
        # Σw > 0 while Σw² underflows to exactly 0 — the Hypothesis
        # corner that used to produce NaN in the SNIPS details.
        weights = np.array([2.225e-311, 2.225e-311])
        ess = effective_sample_size(weights)
        assert np.isfinite(ess)
        assert ess == 0.0


class TestWeightQuantile:
    def test_matches_order_statistics(self):
        weights = np.arange(100, dtype=float)
        assert weight_quantile(weights, q=0.99) == pytest.approx(98.0)
        assert weight_quantile(weights, q=0.5) == pytest.approx(49.0)

    def test_empty_is_zero(self):
        assert weight_quantile(np.array([])) == 0.0


class TestPropensityIdentityError:
    def test_truthful_uniform_log_is_near_zero(self):
        rng = np.random.default_rng(0)
        actions = rng.integers(0, 4, size=4000)
        propensities = np.full(4000, 0.25)
        assert propensity_identity_error(actions, propensities) < 0.1

    def test_deterministic_logging_recorded_as_certain_fails(self):
        # Propensity 1.0 on a two-action log: per-action mean of
        # 1{a_t=a}/p_t is the raw action frequency, far from 1.
        actions = np.array([0, 1] * 200 + [0])
        propensities = np.ones(401)
        error = propensity_identity_error(actions, propensities)
        assert error > 0.49

    def test_empty_is_zero(self):
        assert propensity_identity_error(np.array([]), np.array([])) == 0.0


class TestDiagnoseVerdicts:
    def healthy(self, n=1000):
        rng = np.random.default_rng(1)
        actions = rng.integers(0, 2, size=n)
        propensities = np.full(n, 0.5)
        weights = np.ones(n)
        return weights, propensities, actions

    def test_healthy_inputs_are_ok(self):
        weights, propensities, actions = self.healthy()
        d = diagnose(weights, propensities, actions, support_coverage=1.0)
        assert d.verdict == VERDICT_OK
        assert d.reliable
        assert d.reasons == ()

    def test_collapsed_ess_is_unreliable(self):
        weights, propensities, actions = self.healthy()
        weights = np.zeros_like(weights)
        weights[0] = 500.0
        d = diagnose(weights, propensities, actions, support_coverage=1.0)
        assert d.verdict == VERDICT_UNRELIABLE
        assert not d.reliable
        assert any("effective sample size" in r for r in d.reasons)

    def test_mean_weight_identity_break_is_unreliable(self):
        weights, propensities, actions = self.healthy()
        d = diagnose(weights * 2.0, propensities, actions, support_coverage=1.0)
        assert d.verdict == VERDICT_UNRELIABLE
        assert any("E[w]=1" in r for r in d.reasons)

    def test_low_coverage_is_unreliable(self):
        weights, propensities, actions = self.healthy()
        d = diagnose(weights, propensities, actions, support_coverage=0.3)
        assert d.verdict == VERDICT_UNRELIABLE
        assert any("logged support" in r for r in d.reasons)

    def test_moderate_coverage_only_warns(self):
        weights, propensities, actions = self.healthy()
        d = diagnose(weights, propensities, actions, support_coverage=0.8)
        assert d.verdict == VERDICT_WARN
        assert d.reliable

    def test_clipped_profile_ignores_downward_mean_weight(self):
        weights, propensities, actions = self.healthy()
        low = weights * 0.4  # clipping legitimately pulls E[w] below 1
        assert (
            diagnose(low, propensities, actions, 1.0, profile="clipped").verdict
            == VERDICT_OK
        )
        assert (
            diagnose(low, propensities, actions, 1.0, profile="ips").verdict
            == VERDICT_UNRELIABLE
        )

    def test_snips_profile_caps_mean_weight_break_at_warn(self):
        weights, propensities, actions = self.healthy()
        d = diagnose(
            weights * 2.0, propensities, actions, 1.0, profile="snips"
        )
        assert d.verdict == VERDICT_WARN

    def test_model_profile_never_fails_on_coverage(self):
        d = diagnose(None, np.full(100, 0.5), np.zeros(100, dtype=int), 0.1,
                     profile="model")
        assert d.verdict == VERDICT_WARN
        assert d.effective_sample_size is None
        assert d.mean_weight is None

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            diagnose(np.ones(5), np.full(5, 0.5), np.zeros(5, dtype=int),
                     1.0, profile="bogus")

    def test_custom_thresholds_respected(self):
        weights, propensities, actions = self.healthy()
        strict = DiagnosticThresholds(coverage_warn=0.999)
        d = diagnose(weights, propensities, actions, 0.99, thresholds=strict)
        assert d.verdict == VERDICT_WARN

    def test_to_dict_round_trips_through_json(self):
        import json

        weights, propensities, actions = self.healthy()
        d = diagnose(weights, propensities, actions, 1.0)
        payload = json.loads(json.dumps(d.to_dict()))
        assert payload["verdict"] == VERDICT_OK
        assert payload["n"] == 1000


class TestEstimatorsAttachDiagnostics:
    def test_every_weighted_estimator_attaches(self):
        dataset = make_uniform_dataset(400, seed=5)
        for estimator in (
            IPSEstimator(), ClippedIPSEstimator(), SNIPSEstimator()
        ):
            result = estimator.estimate(ConstantPolicy(1), dataset)
            assert result.diagnostics is not None
            assert result.diagnostics.profile == estimator.diagnostics_profile
            assert result.reliable

    def test_direct_method_uses_model_profile(self):
        from repro.core.estimators.direct import DirectMethodEstimator

        dataset = make_uniform_dataset(400, seed=6)
        result = DirectMethodEstimator().estimate(ConstantPolicy(0), dataset)
        assert result.diagnostics is not None
        assert result.diagnostics.profile == "model"
        assert result.diagnostics.effective_sample_size is None

    def test_doubly_robust_attaches(self):
        from repro.core.estimators.doubly_robust import DoublyRobustEstimator

        dataset = make_uniform_dataset(400, seed=7)
        result = DoublyRobustEstimator().estimate(UniformRandomPolicy(), dataset)
        assert result.diagnostics is not None
        assert result.diagnostics.verdict == VERDICT_OK


def degenerate_jsq_log(n=501, seed=3) -> Dataset:
    """Context-dependent logs from a deterministic JSQ-style balancer.

    The logging policy always picks the less-loaded server and the log
    truthfully records propensity 1.0 — exactly the A1 violation behind
    Table 2's confidently wrong "send to 1" estimate.
    """
    from repro.loadbalance.harvest import lb_action_space, lb_reward_range
    from repro.loadbalance.policies import least_loaded_policy

    rng = np.random.default_rng(seed)
    least = least_loaded_policy()
    dataset = Dataset(
        action_space=lb_action_space(2), reward_range=lb_reward_range()
    )
    for t in range(n):
        conns = rng.integers(0, 20, size=2)
        context = {"conns_0": float(conns[0]), "conns_1": float(conns[1])}
        action = least.action(context, [0, 1])
        latency = 0.1 + 0.02 * float(conns[action]) + 0.05 * rng.random()
        dataset.append(
            Interaction(
                context=context,
                action=action,
                reward=latency,
                propensity=1.0,  # deterministic choice, truthfully logged
                timestamp=float(t),
            )
        )
    return dataset


class TestTable2AcceptanceScenario:
    """The paper's central caveat, caught by the diagnostics."""

    def test_degenerate_policy_flagged_unreliable(self):
        from repro.loadbalance.policies import send_to_policy

        dataset = degenerate_jsq_log()
        result = IPSEstimator().estimate(send_to_policy(1), dataset)
        assert result.diagnostics.verdict == VERDICT_UNRELIABLE
        assert not result.reliable
        assert any(
            "identity" in reason for reason in result.diagnostics.reasons
        )

    def test_flagged_on_both_backends_identically(self):
        from repro.loadbalance.policies import send_to_policy

        from tests import oracles

        dataset = degenerate_jsq_log()
        per_row = oracles.estimate(IPSEstimator(), send_to_policy(1), dataset)
        columnar = IPSEstimator().estimate(send_to_policy(1), dataset)
        assert per_row.diagnostics.verdict == columnar.diagnostics.verdict
        assert per_row.diagnostics.verdict == VERDICT_UNRELIABLE

    def test_well_supported_machine_health_policy_not_flagged(self):
        from repro.machinehealth.dataset import (
            build_full_feedback_dataset,
            simulate_exploration,
        )

        full = build_full_feedback_dataset(
            n_events=400, n_machines=100, seed=0
        )
        exploration = simulate_exploration(
            full.full, np.random.default_rng(1)
        )
        result = IPSEstimator().estimate(ConstantPolicy(3), exploration)
        assert result.diagnostics.verdict != VERDICT_UNRELIABLE
        assert result.reliable
        assert result.diagnostics.mean_weight == pytest.approx(1.0, abs=0.25)

    def test_fallback_degrades_to_direct_method_on_degenerate_log(self):
        from repro.loadbalance.policies import send_to_policy

        dataset = degenerate_jsq_log()
        result = FallbackEstimator().estimate(send_to_policy(1), dataset)
        # Every weighted rung trips the per-action identity check; the
        # terminal model rung serves a finite (biased-but-honest) value.
        assert result.estimator == "direct-method"
        assert np.isfinite(result.value)
        assert result.details["degraded"] is True
        attempted = [a["estimator"] for a in result.details["fallback"]]
        assert attempted[0] == "ips"
        assert attempted[-1] == "direct-method"
