"""Streaming health monitors: thresholds, transitions, wiring."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.monitors import (
    LEVEL_CRITICAL,
    LEVEL_OK,
    LEVEL_WARN,
    EssMonitor,
    LedgerBreakMonitor,
    MonitorSuite,
    NULL_MONITORS,
    PropensityFloorMonitor,
    QuarantineRateMonitor,
    WeightTailMonitor,
    default_monitors,
    get_monitors,
    use_monitors,
)


def evaluate(monitor, state):
    level, value, threshold, message = monitor.evaluate(state)
    return level


class TestEssMonitor:
    def test_uniform_weights_are_ok(self):
        monitor = EssMonitor(window=64)
        state = monitor.init_state()
        monitor.fold_weights(state, np.ones(256))
        assert evaluate(monitor, state) == LEVEL_OK

    def test_one_dominating_weight_goes_critical(self):
        # One weight carries ~all the mass: ESS fraction ~ 1/n.
        monitor = EssMonitor(window=1024)
        state = monitor.init_state()
        weights = np.full(1024, 1e-6)
        weights[0] = 1e6
        monitor.fold_weights(state, weights)
        assert state["windows"] == 1
        assert evaluate(monitor, state) == LEVEL_CRITICAL

    def test_partial_window_below_min_partial_is_ignored(self):
        monitor = EssMonitor(window=4096, min_partial=32)
        state = monitor.init_state()
        weights = np.full(8, 1e-6)
        weights[0] = 1e6
        monitor.fold_weights(state, weights)
        assert evaluate(monitor, state) == LEVEL_OK

    def test_weight_stats_arrive_as_closed_window(self):
        # One weight carrying all the mass over n rows gives ESS
        # fraction ~1/n; n=1000 puts it below the 0.005 critical cut.
        monitor = EssMonitor()
        state = monitor.init_state()
        weights = np.full(1000, 1e-6)
        weights[0] = 1e6
        monitor.fold_weight_stats(
            state, 1000, float(weights.sum()),
            float(np.square(weights).sum()), float(weights.max()),
        )
        assert state["windows"] == 1
        assert evaluate(monitor, state) == LEVEL_CRITICAL


class TestPropensityFloorMonitor:
    def test_healthy_floor(self):
        monitor = PropensityFloorMonitor()
        state = monitor.init_state()
        monitor.fold_propensities(state, np.array([0.5, 0.01, 0.9]))
        assert evaluate(monitor, state) == LEVEL_OK

    def test_below_warn_floor(self):
        monitor = PropensityFloorMonitor()
        state = monitor.init_state()
        monitor.fold_propensities(state, np.array([0.5, 1e-5]))
        assert evaluate(monitor, state) == LEVEL_WARN

    def test_nonpositive_propensity_goes_critical(self):
        monitor = PropensityFloorMonitor()
        state = monitor.init_state()
        monitor.fold_propensities(state, np.array([0.5, 0.0]))
        assert evaluate(monitor, state) == LEVEL_CRITICAL


class TestWeightTailMonitor:
    def test_levels(self):
        monitor = WeightTailMonitor()
        state = monitor.init_state()
        monitor.fold_weights(state, np.array([1.0, 50.0]))
        assert evaluate(monitor, state) == LEVEL_OK
        monitor.fold_weights(state, np.array([500.0]))
        assert evaluate(monitor, state) == LEVEL_WARN
        monitor.fold_weights(state, np.array([1e5]))
        assert evaluate(monitor, state) == LEVEL_CRITICAL

    def test_weight_stats_feed_maximum(self):
        monitor = WeightTailMonitor()
        state = monitor.init_state()
        assert monitor.fold_weight_stats(state, 10, 20.0, 40.0, 250.0)
        assert evaluate(monitor, state) == LEVEL_WARN


class TestQuarantineRateMonitor:
    def test_too_few_rows_withholds_judgment(self):
        monitor = QuarantineRateMonitor(min_rows=10)
        state = monitor.init_state()
        monitor.fold_rejected(state, "propensity", 5)
        assert evaluate(monitor, state) == LEVEL_OK

    def test_rate_thresholds(self):
        monitor = QuarantineRateMonitor()
        state = monitor.init_state()
        monitor.fold_rows(state, 980)
        monitor.fold_rejected(state, "propensity", 20)
        assert evaluate(monitor, state) == LEVEL_WARN
        monitor.fold_rejected(state, "propensity", 60)
        assert evaluate(monitor, state) == LEVEL_CRITICAL


class TestLedgerBreakMonitor:
    def test_single_break_is_warn(self):
        monitor = LedgerBreakMonitor()
        state = monitor.init_state()
        monitor.fold_rows(state, 10_000)
        monitor.fold_rejected(state, "ledger", 1)
        assert evaluate(monitor, state) == LEVEL_WARN

    def test_systematic_breakage_is_critical(self):
        monitor = LedgerBreakMonitor()
        state = monitor.init_state()
        monitor.fold_rows(state, 100)
        monitor.fold_rejected(state, "ledger", 50)
        assert evaluate(monitor, state) == LEVEL_CRITICAL

    def test_other_reasons_ignored(self):
        monitor = LedgerBreakMonitor()
        state = monitor.init_state()
        assert not monitor.fold_rejected(state, "propensity", 50)
        assert evaluate(monitor, state) == LEVEL_OK


class TestMonitorSuite:
    def test_default_suite_names_are_unique(self):
        names = [m.name for m in default_monitors()]
        assert len(set(names)) == len(names)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MonitorSuite([EssMonitor(), EssMonitor()])

    def test_propensities_feed_floor_and_weight_monitors(self):
        suite = MonitorSuite()
        suite.observe_propensities(np.array([0.5, 1e-5]))
        assert suite.level("propensity_floor") == LEVEL_WARN
        assert suite.level("weight_tail") == LEVEL_CRITICAL  # 1/1e-5 = 1e5

    def test_nonpositive_propensities_never_become_weights(self):
        suite = MonitorSuite()
        suite.observe_propensities(np.array([0.5, 0.0]))
        assert suite.level("propensity_floor") == LEVEL_CRITICAL
        assert suite.level("weight_tail") == LEVEL_OK

    def test_transition_emits_event_and_metrics(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            suite = MonitorSuite()
            suite.observe_propensities(np.array([0.5, 0.0]))
        levels = [e.level for e in suite.events if e.monitor == "propensity_floor"]
        assert levels == [LEVEL_CRITICAL]
        assert registry.value(
            "health.events", monitor="propensity_floor", level="CRITICAL"
        ) == 1
        assert registry.value("health.level", monitor="propensity_floor") == 2

    def test_all_ok_run_still_exports_level_gauges(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            suite = MonitorSuite()
            suite.observe_propensities(np.array([0.5, 0.5]))
        assert suite.overall_level() == LEVEL_OK
        assert registry.value("health.level", monitor="propensity_floor") == 0
        assert registry.total("health.events") == 0

    def test_recovery_transition_reported(self):
        suite = MonitorSuite(
            [QuarantineRateMonitor(warn=0.5, critical=0.9, min_rows=2)]
        )
        suite.observe_rejected("propensity", 2)
        assert suite.level("quarantine_rate") == LEVEL_CRITICAL
        suite.observe_rows(1000)
        assert suite.level("quarantine_rate") == LEVEL_OK
        assert [e.level for e in suite.events] == [LEVEL_CRITICAL, LEVEL_OK]

    def test_states_round_trip_is_jsonable(self):
        import json

        suite = MonitorSuite()
        suite.observe_propensities(np.array([0.5, 0.25]))
        suite.observe_rejected("propensity", 1)
        states = suite.states()
        assert json.loads(json.dumps(states)) == states
        assert states["propensity_floor"]["n"] == 2
        assert states["quarantine_rate"]["rejected"] == 1

    def test_snapshot_shape(self):
        suite = MonitorSuite()
        suite.observe_propensities(np.array([0.5, 0.0]))
        snapshot = suite.snapshot()
        assert snapshot["overall"] == LEVEL_CRITICAL
        assert snapshot["monitors"]["propensity_floor"]["level"] == (
            LEVEL_CRITICAL
        )
        assert snapshot["events"][0]["monitor"] == "propensity_floor"
        assert set(snapshot["events"][0]) == {
            "monitor", "level", "value", "threshold", "message", "rows",
        }

    def test_overall_is_worst_level(self):
        suite = MonitorSuite()
        suite.observe_propensities(np.array([0.5, 1e-5]))
        assert suite.overall_level() == LEVEL_CRITICAL  # weight tail

    def test_empty_feed_is_noop(self):
        suite = MonitorSuite()
        suite.observe_propensities(np.array([]))
        suite.observe_weights(np.array([]))
        suite.observe_rows(0)
        suite.observe_rejected("x", 0)
        assert not suite.events


class TestInstallation:
    def test_default_is_null(self):
        assert get_monitors() is NULL_MONITORS
        assert not get_monitors().enabled

    def test_null_monitors_accept_everything(self):
        NULL_MONITORS.observe_propensities(np.array([0.5]))
        NULL_MONITORS.observe_rows(5)
        assert NULL_MONITORS.states() == {}
        assert NULL_MONITORS.snapshot() == {}

    def test_use_monitors_scopes_installation(self):
        suite = MonitorSuite()
        with use_monitors(suite) as installed:
            assert installed is suite
            assert get_monitors() is suite
        assert get_monitors() is NULL_MONITORS
