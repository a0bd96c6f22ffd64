"""Streaming health monitors over the live harvest/evaluation stream.

The run manifest gives every run a post-hoc report; this module is
the watchtower that reads the stream *while it flows*.  A
:class:`MonitorSuite` holds a set of :class:`HealthMonitor` instances
— windowed Kish ESS, propensity floor, weight tails, quarantine rate,
ledger-break rate, and the serving monitors — each folding cheap
aggregates per batch and emitting a :class:`HealthEvent` whenever its
OK/WARN/CRITICAL level changes.  Events land in the active metrics registry
(``health.events`` counter, ``health.level`` gauge) and the suite's
:meth:`~MonitorSuite.snapshot` becomes the manifest's ``health``
section.

Monitor state is a plain JSON-able dict per monitor
(:meth:`~MonitorSuite.states`), folded in place by typed feeds.

**Zero overhead when off.**  The process-wide default is
:data:`NULL_MONITORS`; install a real suite per run with
:func:`use_monitors` (the CLI's ``--monitors`` flag does).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from repro.obs.metrics import get_metrics

__all__ = [
    "LEVEL_OK",
    "LEVEL_WARN",
    "LEVEL_CRITICAL",
    "HealthEvent",
    "HealthMonitor",
    "EssMonitor",
    "PropensityFloorMonitor",
    "WeightTailMonitor",
    "QuarantineRateMonitor",
    "LedgerBreakMonitor",
    "ServeLatencyMonitor",
    "ServeErrorMonitor",
    "MonitorSuite",
    "NullMonitors",
    "NULL_MONITORS",
    "default_monitors",
    "serving_monitors",
    "get_monitors",
    "set_monitors",
    "use_monitors",
]

LEVEL_OK = "OK"
LEVEL_WARN = "WARN"
LEVEL_CRITICAL = "CRITICAL"

#: Severity order — transitions are reported in either direction, but
#: the manifest's overall verdict is the worst level any monitor holds.
LEVEL_RANK = {LEVEL_OK: 0, LEVEL_WARN: 1, LEVEL_CRITICAL: 2}


class HealthEvent:
    """One monitor level transition, timestamped by stream position."""

    __slots__ = ("monitor", "level", "value", "threshold", "message", "rows")

    def __init__(
        self,
        monitor: str,
        level: str,
        value: Optional[float],
        threshold: Optional[float],
        message: str,
        rows: int,
    ) -> None:
        self.monitor = monitor
        self.level = level
        self.value = value
        self.threshold = threshold
        self.message = message
        self.rows = rows

    def to_dict(self) -> dict:
        """JSON-serializable form (embedded in the run manifest)."""
        return {
            "monitor": self.monitor,
            "level": self.level,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
            "rows": self.rows,
        }

    def __repr__(self) -> str:
        return (
            f"HealthEvent({self.monitor}: {self.level} "
            f"value={self.value} at rows={self.rows})"
        )


def _finite(value) -> Optional[float]:
    value = float(value)
    return value if np.isfinite(value) else None


class HealthMonitor:
    """Base monitor: a named reduction with thresholded evaluation.

    Subclasses override :meth:`init_state`, :meth:`evaluate`, and
    whichever ``fold_*`` hooks they consume.  Fold hooks mutate
    ``state`` in place and return ``True`` when the state changed (the
    suite only re-evaluates changed monitors).  State must stay a
    plain dict of JSON-able scalars so it can go into the manifest.
    """

    name = "monitor"

    def init_state(self) -> dict:
        """A fresh (empty-stream) state dict."""
        return {}

    def evaluate(self, state: dict) -> tuple:
        """``(level, value, threshold, message)`` for the current state."""
        raise NotImplementedError

    # -- fold hooks (no-ops unless a subclass consumes the feed) -----------

    def fold_propensities(self, state: dict, probs: np.ndarray) -> bool:
        """Fold one batch of logged propensities."""
        return False

    def fold_weights(self, state: dict, weights: np.ndarray) -> bool:
        """Fold one batch of importance weights."""
        return False

    def fold_weight_stats(
        self, state: dict, n: int, total: float, total_sq: float,
        maximum: float,
    ) -> bool:
        """Fold pre-aggregated weight moments (evaluation side)."""
        return False

    def fold_rejected(self, state: dict, reason: str, count: int) -> bool:
        """Fold quarantined-row counts by reason."""
        return False

    def fold_rows(self, state: dict, count: int) -> bool:
        """Fold accepted/generated row counts (rate denominators)."""
        return False

    def fold_serve(
        self, state: dict, served: int, errors: int, dropped: int,
        latency_sum: float, latency_max: float,
    ) -> bool:
        """Fold one serving observation (decide-call aggregates)."""
        return False


class EssMonitor(HealthMonitor):
    """Windowed Kish effective sample size over the weight stream.

    Keeps running ``(n, Σw, Σw²)`` for the current window; every
    ``window`` observations the window flushes into a worst-window
    minimum of the ESS *fraction* ``(Σw)²/(Σw²·n)``.  Thresholds reuse
    the diagnostics verdict cutoffs, so a stream the post-hoc report
    would call UNRELIABLE goes CRITICAL while it is still flowing.
    """

    name = "ess"

    def __init__(
        self,
        window: int = 4096,
        warn: float = 0.05,
        critical: float = 0.005,
        min_partial: int = 32,
    ) -> None:
        self.window = int(window)
        self.warn = float(warn)
        self.critical = float(critical)
        self.min_partial = int(min_partial)

    def init_state(self) -> dict:
        return {"n": 0, "sum": 0.0, "sumsq": 0.0, "worst": None, "windows": 0}

    def _flush(self, state: dict) -> None:
        while state["n"] >= self.window:
            frac = _ess_fraction(state["n"], state["sum"], state["sumsq"])
            if frac is not None:
                worst = state["worst"]
                state["worst"] = frac if worst is None else min(worst, frac)
            state["windows"] += 1
            state["n"] = 0
            state["sum"] = 0.0
            state["sumsq"] = 0.0

    def fold_weights(self, state: dict, weights: np.ndarray) -> bool:
        if weights.size == 0:
            return False
        state["n"] += int(weights.size)
        state["sum"] += float(weights.sum())
        state["sumsq"] += float(np.square(weights).sum())
        self._flush(state)
        return True

    def fold_weight_stats(
        self, state: dict, n: int, total: float, total_sq: float,
        maximum: float,
    ) -> bool:
        if n <= 0:
            return False
        # Pre-aggregated moments arrive as one closed window.
        frac = _ess_fraction(n, total, total_sq)
        if frac is not None:
            worst = state["worst"]
            state["worst"] = frac if worst is None else min(worst, frac)
            state["windows"] += 1
        return frac is not None

    def evaluate(self, state: dict) -> tuple:
        candidates = []
        if state["worst"] is not None:
            candidates.append(state["worst"])
        if state["n"] >= self.min_partial:
            frac = _ess_fraction(state["n"], state["sum"], state["sumsq"])
            if frac is not None:
                candidates.append(frac)
        if not candidates:
            return LEVEL_OK, None, self.warn, "no weight windows yet"
        value = min(candidates)
        if value < self.critical:
            return (
                LEVEL_CRITICAL, value, self.critical,
                f"worst-window ESS fraction {value:.4g} < {self.critical:g}",
            )
        if value < self.warn:
            return (
                LEVEL_WARN, value, self.warn,
                f"worst-window ESS fraction {value:.4g} < {self.warn:g}",
            )
        return (
            LEVEL_OK, value, self.warn,
            f"worst-window ESS fraction {value:.4g}",
        )


def _ess_fraction(n: int, total: float, total_sq: float) -> Optional[float]:
    if n <= 0 or total_sq <= 0.0:
        return None
    return (total * total) / (total_sq * n)


class PropensityFloorMonitor(HealthMonitor):
    """Tracks the smallest logged propensity seen so far.

    Sub-floor propensities blow up importance weights (the diagnostics
    layer warns below ``1e-4``); non-positive ones make the log
    unusable for OPE, so they go straight to CRITICAL.
    """

    name = "propensity_floor"

    def __init__(
        self, warn_floor: float = 1e-4, critical_floor: float = 1e-6
    ) -> None:
        self.warn_floor = float(warn_floor)
        self.critical_floor = float(critical_floor)

    def init_state(self) -> dict:
        return {"min": None, "below_warn": 0, "below_critical": 0, "n": 0}

    def fold_propensities(self, state: dict, probs: np.ndarray) -> bool:
        if probs.size == 0:
            return False
        low = float(probs.min())
        state["min"] = low if state["min"] is None else min(state["min"], low)
        state["below_warn"] += int(np.count_nonzero(probs < self.warn_floor))
        state["below_critical"] += int(
            np.count_nonzero(probs <= self.critical_floor)
        )
        state["n"] += int(probs.size)
        return True

    def evaluate(self, state: dict) -> tuple:
        low = state["min"]
        if low is None:
            return LEVEL_OK, None, self.warn_floor, "no propensities yet"
        if state["below_critical"]:
            return (
                LEVEL_CRITICAL, low, self.critical_floor,
                f"{state['below_critical']} propensities <= "
                f"{self.critical_floor:g} (min {low:.4g})",
            )
        if state["below_warn"]:
            return (
                LEVEL_WARN, low, self.warn_floor,
                f"{state['below_warn']} propensities < "
                f"{self.warn_floor:g} (min {low:.4g})",
            )
        return LEVEL_OK, low, self.warn_floor, f"min propensity {low:.4g}"


class WeightTailMonitor(HealthMonitor):
    """Tracks the heaviest importance weight and the tail count."""

    name = "weight_tail"

    def __init__(
        self, warn_max: float = 100.0, critical_max: float = 1e4
    ) -> None:
        self.warn_max = float(warn_max)
        self.critical_max = float(critical_max)

    def init_state(self) -> dict:
        return {"max": None, "tail": 0, "n": 0}

    def fold_weights(self, state: dict, weights: np.ndarray) -> bool:
        if weights.size == 0:
            return False
        high = float(weights.max())
        state["max"] = (
            high if state["max"] is None else max(state["max"], high)
        )
        state["tail"] += int(np.count_nonzero(weights > self.warn_max))
        state["n"] += int(weights.size)
        return True

    def fold_weight_stats(
        self, state: dict, n: int, total: float, total_sq: float,
        maximum: float,
    ) -> bool:
        if n <= 0:
            return False
        state["max"] = (
            maximum if state["max"] is None else max(state["max"], maximum)
        )
        if maximum > self.warn_max:
            state["tail"] += 1
        state["n"] += int(n)
        return True

    def evaluate(self, state: dict) -> tuple:
        high = state["max"]
        if high is None:
            return LEVEL_OK, None, self.warn_max, "no weights yet"
        if high > self.critical_max:
            return (
                LEVEL_CRITICAL, high, self.critical_max,
                f"max weight {high:.4g} > {self.critical_max:g}",
            )
        if high > self.warn_max:
            return (
                LEVEL_WARN, high, self.warn_max,
                f"max weight {high:.4g} > {self.warn_max:g} "
                f"({state['tail']} in tail)",
            )
        return LEVEL_OK, high, self.warn_max, f"max weight {high:.4g}"


class QuarantineRateMonitor(HealthMonitor):
    """Fraction of stream rows the validation layer quarantined."""

    name = "quarantine_rate"

    def __init__(
        self,
        warn: float = 0.01,
        critical: float = 0.05,
        min_rows: int = 10,
    ) -> None:
        self.warn = float(warn)
        self.critical = float(critical)
        self.min_rows = int(min_rows)

    def init_state(self) -> dict:
        return {"rejected": 0, "rows": 0}

    def fold_rejected(self, state: dict, reason: str, count: int) -> bool:
        state["rejected"] += int(count)
        return True

    def fold_rows(self, state: dict, count: int) -> bool:
        state["rows"] += int(count)
        return True

    def _rate(self, state: dict) -> Optional[float]:
        total = state["rejected"] + state["rows"]
        if total < self.min_rows:
            return None
        return state["rejected"] / total

    def evaluate(self, state: dict) -> tuple:
        rate = self._rate(state)
        if rate is None:
            return LEVEL_OK, None, self.warn, "too few rows to judge"
        if rate >= self.critical:
            return (
                LEVEL_CRITICAL, rate, self.critical,
                f"quarantine rate {rate:.2%} >= {self.critical:.0%} "
                f"({state['rejected']} rows)",
            )
        if rate >= self.warn:
            return (
                LEVEL_WARN, rate, self.warn,
                f"quarantine rate {rate:.2%} >= {self.warn:.0%} "
                f"({state['rejected']} rows)",
            )
        return LEVEL_OK, rate, self.warn, f"quarantine rate {rate:.2%}"


class LedgerBreakMonitor(HealthMonitor):
    """Hash-chain breaks found by ledger verification during validation.

    Any break means tampering or truncation somewhere in the log, so a
    single one is already WARN; a break *rate* above
    ``critical_rate`` means the damage is systematic (e.g. a truncated
    ledger quarantining everything after the cut) and goes CRITICAL.
    """

    name = "ledger_breaks"

    def __init__(self, critical_rate: float = 0.005) -> None:
        self.critical_rate = float(critical_rate)

    def init_state(self) -> dict:
        return {"breaks": 0, "rows": 0}

    def fold_rejected(self, state: dict, reason: str, count: int) -> bool:
        if reason != "ledger":
            return False
        state["breaks"] += int(count)
        return True

    def fold_rows(self, state: dict, count: int) -> bool:
        state["rows"] += int(count)
        return True

    def evaluate(self, state: dict) -> tuple:
        breaks = state["breaks"]
        if not breaks:
            return LEVEL_OK, 0.0, self.critical_rate, "chain intact"
        total = breaks + state["rows"]
        rate = breaks / total if total else 1.0
        if rate >= self.critical_rate:
            return (
                LEVEL_CRITICAL, rate, self.critical_rate,
                f"{breaks} ledger-broken rows ({rate:.2%} of stream)",
            )
        return (
            LEVEL_WARN, rate, self.critical_rate,
            f"{breaks} ledger-broken rows ({rate:.2%} of stream)",
        )


class ServeLatencyMonitor(HealthMonitor):
    """Decide-call latency for the online policy server.

    Folds per-call ``(sum, max)`` aggregates from the serving hot path
    (:meth:`repro.serve.service.DecisionService.decide`) and alarms on
    the mean per-decision latency — the quantity the ≥50k decisions/sec
    throughput target bounds (20 µs/decision).  Thresholds default far
    above that so only a genuinely degraded server (GC storms, swap
    thrash, runaway policy) trips it.
    """

    name = "serve.latency"

    def __init__(
        self, warn_seconds: float = 1e-3, critical_seconds: float = 1e-2
    ) -> None:
        self.warn_seconds = float(warn_seconds)
        self.critical_seconds = float(critical_seconds)

    def init_state(self) -> dict:
        return {"served": 0, "latency_sum": 0.0, "latency_max": 0.0}

    def fold_serve(
        self, state: dict, served: int, errors: int, dropped: int,
        latency_sum: float, latency_max: float,
    ) -> bool:
        if served <= 0:
            return False
        state["served"] += int(served)
        state["latency_sum"] += float(latency_sum)
        state["latency_max"] = max(state["latency_max"], float(latency_max))
        return True

    def evaluate(self, state: dict) -> tuple:
        if state["served"] <= 0:
            return LEVEL_OK, None, self.warn_seconds, "no decisions served"
        mean = state["latency_sum"] / state["served"]
        detail = (
            f"mean {mean * 1e6:.1f} µs/decision over {state['served']} "
            f"(max call {state['latency_max'] * 1e3:.2f} ms)"
        )
        if mean >= self.critical_seconds:
            return LEVEL_CRITICAL, mean, self.critical_seconds, detail
        if mean >= self.warn_seconds:
            return LEVEL_WARN, mean, self.warn_seconds, detail
        return LEVEL_OK, mean, self.warn_seconds, detail


class ServeErrorMonitor(HealthMonitor):
    """Errors and dropped requests at the serving boundary.

    A single *dropped* request — an ask that got no decision slice —
    is CRITICAL outright: the batcher's zero-drop guarantee is a
    correctness invariant, not a service level.  Errors (malformed
    requests, failed ops) alarm on their ratio to decisions served.
    """

    name = "serve.errors"

    def __init__(
        self, warn_ratio: float = 0.01, critical_ratio: float = 0.1
    ) -> None:
        self.warn_ratio = float(warn_ratio)
        self.critical_ratio = float(critical_ratio)

    def init_state(self) -> dict:
        return {"served": 0, "errors": 0, "dropped": 0}

    def fold_serve(
        self, state: dict, served: int, errors: int, dropped: int,
        latency_sum: float, latency_max: float,
    ) -> bool:
        state["served"] += int(served)
        state["errors"] += int(errors)
        state["dropped"] += int(dropped)
        return bool(served or errors or dropped)

    def evaluate(self, state: dict) -> tuple:
        ratio = state["errors"] / max(state["served"], 1)
        if state["dropped"] > 0:
            return (
                LEVEL_CRITICAL, float(state["dropped"]), 0.0,
                f"{state['dropped']} requests dropped "
                "(zero-drop invariant violated)",
            )
        if ratio >= self.critical_ratio:
            return (
                LEVEL_CRITICAL, ratio, self.critical_ratio,
                f"error ratio {ratio:.3f} >= {self.critical_ratio:g} "
                f"({state['errors']} errors / {state['served']} served)",
            )
        if ratio >= self.warn_ratio:
            return (
                LEVEL_WARN, ratio, self.warn_ratio,
                f"error ratio {ratio:.3f} >= {self.warn_ratio:g} "
                f"({state['errors']} errors / {state['served']} served)",
            )
        return (
            LEVEL_OK, ratio, self.warn_ratio,
            f"{state['errors']} errors / {state['served']} served",
        )


def default_monitors() -> list[HealthMonitor]:
    """The standard watchtower: one of each monitor, stock thresholds."""
    return [
        EssMonitor(),
        PropensityFloorMonitor(),
        WeightTailMonitor(),
        QuarantineRateMonitor(),
        LedgerBreakMonitor(),
    ]


def serving_monitors() -> list[HealthMonitor]:
    """The online server's watchtower: the defaults plus ``serve.*``."""
    return default_monitors() + [ServeLatencyMonitor(), ServeErrorMonitor()]


class MonitorSuite:
    """Runs a set of monitors over typed observation feeds.

    The harvest loop feeds :meth:`observe_propensities` per batch, the
    validation layer feeds :meth:`observe_rejected` /
    :meth:`observe_rows`, the evaluation engine feeds
    :meth:`observe_weights` or :meth:`observe_weight_stats`, and the
    decision service feeds :meth:`observe_serve`.  Whenever a fold
    changes a monitor's level, a :class:`HealthEvent` is appended and
    mirrored into the active metrics registry.
    """

    enabled = True

    def __init__(
        self, monitors: Optional[Iterable[HealthMonitor]] = None
    ) -> None:
        self.monitors = (
            list(monitors) if monitors is not None else default_monitors()
        )
        names = [m.name for m in self.monitors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate monitor names: {names}")
        self._states = {m.name: m.init_state() for m in self.monitors}
        self._levels = {m.name: LEVEL_OK for m in self.monitors}
        self._published: set = set()
        self.events: list[HealthEvent] = []
        self._rows_seen = 0

    # -- observation feeds -------------------------------------------------

    def observe_propensities(self, probs) -> None:
        """Fold one batch of logged propensities (harvest side).

        Also derives inverse-propensity weights ``1/p`` for the
        ESS/tail monitors, skipping non-positive entries (those are the
        floor monitor's job to flag).
        """
        probs = np.asarray(probs, dtype=np.float64)
        if probs.size == 0:
            return
        self._rows_seen += int(probs.size)
        positive = probs[probs > 0]
        weights = 1.0 / positive if positive.size else positive
        for monitor in self.monitors:
            state = self._states[monitor.name]
            changed = monitor.fold_propensities(state, probs)
            if weights.size and monitor.fold_weights(state, weights):
                changed = True
            if changed:
                self._reevaluate(monitor)

    def observe_weights(self, weights) -> None:
        """Fold one batch of importance weights (evaluation side)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.size == 0:
            return
        self._rows_seen += int(weights.size)
        for monitor in self.monitors:
            if monitor.fold_weights(self._states[monitor.name], weights):
                self._reevaluate(monitor)

    def observe_weight_stats(
        self, n: int, total: float, total_sq: float, maximum: float
    ) -> None:
        """Fold pre-aggregated weight moments (diagnostics side)."""
        if n <= 0:
            return
        self._rows_seen += int(n)
        for monitor in self.monitors:
            if monitor.fold_weight_stats(
                self._states[monitor.name], n, total, total_sq, maximum
            ):
                self._reevaluate(monitor)

    def observe_rejected(self, reason: str, count: int = 1) -> None:
        """Fold quarantined rows by reason (validation side)."""
        if count <= 0:
            return
        for monitor in self.monitors:
            if monitor.fold_rejected(
                self._states[monitor.name], reason, count
            ):
                self._reevaluate(monitor)

    def observe_rows(self, count: int) -> None:
        """Fold accepted/generated rows (rate denominators)."""
        if count <= 0:
            return
        for monitor in self.monitors:
            if monitor.fold_rows(self._states[monitor.name], count):
                self._reevaluate(monitor)

    def observe_serve(
        self,
        served: int = 0,
        errors: int = 0,
        dropped: int = 0,
        latency_sum: float = 0.0,
        latency_max: float = 0.0,
    ) -> None:
        """Fold one serving observation (online decision service)."""
        for monitor in self.monitors:
            if monitor.fold_serve(
                self._states[monitor.name], served, errors, dropped,
                latency_sum, latency_max,
            ):
                self._reevaluate(monitor)

    def states(self) -> dict:
        """JSON-able copies of the per-monitor states."""
        return {name: dict(state) for name, state in self._states.items()}

    # -- evaluation and export ---------------------------------------------

    def _reevaluate(self, monitor: HealthMonitor) -> None:
        level, value, threshold, message = monitor.evaluate(
            self._states[monitor.name]
        )
        if level == self._levels[monitor.name]:
            if monitor.name not in self._published:
                # First evaluation landed on the initial level: export
                # the gauge so even an all-OK run carries health.level
                # in its metrics dump, but record no transition event.
                self._published.add(monitor.name)
                get_metrics().gauge(
                    "health.level", monitor=monitor.name
                ).set(LEVEL_RANK[level])
            return
        self._published.add(monitor.name)
        self._levels[monitor.name] = level
        event = HealthEvent(
            monitor.name,
            level,
            None if value is None else _finite(value),
            threshold,
            message,
            self._rows_seen,
        )
        self.events.append(event)
        metrics = get_metrics()
        metrics.counter(
            "health.events", monitor=monitor.name, level=level
        ).inc()
        metrics.gauge("health.level", monitor=monitor.name).set(
            LEVEL_RANK[level]
        )

    def level(self, name: str) -> str:
        """The current level of one monitor by name."""
        return self._levels[name]

    def overall_level(self) -> str:
        """The worst level any monitor currently holds."""
        return max(self._levels.values(), key=LEVEL_RANK.__getitem__)

    def snapshot(self) -> dict:
        """The manifest ``health`` section: verdicts plus event log."""
        monitors = {}
        for monitor in self.monitors:
            level, value, threshold, message = monitor.evaluate(
                self._states[monitor.name]
            )
            monitors[monitor.name] = {
                "level": level,
                "value": None if value is None else _finite(value),
                "threshold": threshold,
                "message": message,
            }
        return {
            "overall": self.overall_level(),
            "rows": self._rows_seen,
            "monitors": monitors,
            "events": [event.to_dict() for event in self.events],
        }

    def __repr__(self) -> str:
        return (
            f"MonitorSuite(monitors={len(self.monitors)}, "
            f"overall={self.overall_level()})"
        )


class NullMonitors:
    """The default suite: accepts every feed, stores nothing."""

    enabled = False
    events: list = []

    def observe_propensities(self, probs) -> None:
        """No-op (monitoring is off)."""

    def observe_weights(self, weights) -> None:
        """No-op (monitoring is off)."""

    def observe_weight_stats(self, n, total, total_sq, maximum) -> None:
        """No-op (monitoring is off)."""

    def observe_rejected(self, reason: str, count: int = 1) -> None:
        """No-op (monitoring is off)."""

    def observe_rows(self, count: int) -> None:
        """No-op (monitoring is off)."""

    def observe_serve(
        self,
        served: int = 0,
        errors: int = 0,
        dropped: int = 0,
        latency_sum: float = 0.0,
        latency_max: float = 0.0,
    ) -> None:
        """No-op (monitoring is off)."""

    def states(self) -> dict:
        """Always empty — nothing accumulates."""
        return {}

    def overall_level(self) -> str:
        """Always ``OK`` — nothing is watched."""
        return LEVEL_OK

    def snapshot(self) -> dict:
        """Always empty — nothing accumulates."""
        return {}

    def __repr__(self) -> str:
        return "NullMonitors()"


NULL_MONITORS = NullMonitors()

_monitors: Union[MonitorSuite, NullMonitors] = NULL_MONITORS


def get_monitors() -> Union[MonitorSuite, NullMonitors]:
    """The process-wide active suite (the no-op one by default)."""
    return _monitors


def set_monitors(
    suite: Optional[Union[MonitorSuite, NullMonitors]],
) -> None:
    """Install a suite process-wide; ``None`` restores the no-op."""
    global _monitors
    _monitors = suite if suite is not None else NULL_MONITORS


@contextmanager
def use_monitors(
    suite: Optional[MonitorSuite] = None,
) -> Iterator[Union[MonitorSuite, NullMonitors]]:
    """Scope a monitor suite to a ``with`` block.

    A fresh default :class:`MonitorSuite` is installed when ``suite``
    is omitted; the previous suite is restored on exit.
    """
    global _monitors
    previous = _monitors
    _monitors = suite if suite is not None else MonitorSuite()
    try:
        yield _monitors
    finally:
        _monitors = previous
