"""Tests for graceful degradation down the estimator ladder."""

import numpy as np
import pytest

from repro.core.estimators.direct import DirectMethodEstimator
from repro.core.estimators.fallback import FallbackEstimator, default_ladder
from repro.core.estimators.ips import IPSEstimator
from repro.core.policies import ConstantPolicy, UniformRandomPolicy
from repro.core.types import Dataset, Interaction

from tests import oracles
from tests.conftest import make_uniform_dataset


def skewed_dataset(n=400, seed=9) -> Dataset:
    """A log whose propensities make plain IPS weights explode."""
    rng = np.random.default_rng(seed)
    dataset = Dataset()
    for t in range(n):
        # Action 1 is logged rarely, with a tiny recorded propensity.
        rare = rng.random() < 0.02
        action = 1 if rare else 0
        propensity = 0.0005 if rare else 0.9995
        dataset.append(
            Interaction(
                context={"load": rng.random()},
                action=action,
                reward=rng.random(),
                propensity=propensity,
                timestamp=float(t),
            )
        )
    return dataset


class TestDefaultLadder:
    def test_order_is_ips_first_dm_last(self):
        names = [rung.name for rung in default_ladder()]
        assert names[0] == "ips"
        assert names[-1] == "direct-method"
        assert len(names) == 4


class TestFallbackEstimator:
    def test_healthy_log_accepts_first_rung(self):
        dataset = make_uniform_dataset(500, seed=11)
        result = FallbackEstimator().estimate(ConstantPolicy(1), dataset)
        assert result.estimator == "ips"
        assert result.details["degraded"] is False
        assert len(result.details["fallback"]) == 1
        assert result.details["fallback"][0]["accepted"] is True

    def test_degrades_with_logged_reason(self, caplog):
        import logging

        dataset = skewed_dataset()
        with caplog.at_level(logging.INFO, logger="repro.fallback"):
            result = FallbackEstimator().estimate(ConstantPolicy(1), dataset)
        assert result.details["degraded"] is True
        assert result.estimator != "ips"
        rejected = result.details["fallback"][0]
        assert rejected["estimator"] == "ips"
        assert rejected["accepted"] is False
        assert rejected["reasons"]  # the downgrade is explained
        assert any("fallback" in record.message for record in caplog.records)

    def test_final_value_is_always_finite(self):
        dataset = skewed_dataset()
        result = FallbackEstimator().estimate(ConstantPolicy(1), dataset)
        assert np.isfinite(result.value)

    def test_custom_ladder_respected(self):
        dataset = make_uniform_dataset(200, seed=12)
        ladder = (DirectMethodEstimator(),)
        result = FallbackEstimator(ladder=ladder).estimate(
            UniformRandomPolicy(), dataset
        )
        assert result.estimator == "direct-method"

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="at least one rung"):
            FallbackEstimator(ladder=())

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError, match="empty dataset"):
            FallbackEstimator().estimate(ConstantPolicy(0), Dataset())

    def test_diagnostics_carried_through(self):
        dataset = make_uniform_dataset(300, seed=13)
        result = FallbackEstimator().estimate(ConstantPolicy(0), dataset)
        assert result.diagnostics is not None

    def test_backends_agree(self):
        dataset = skewed_dataset()
        per_row = oracles.estimate(
            FallbackEstimator(), ConstantPolicy(1), dataset
        )
        columnar = FallbackEstimator().estimate(ConstantPolicy(1), dataset)
        assert per_row.estimator == columnar.estimator
        assert per_row.value == pytest.approx(columnar.value, rel=1e-9)
