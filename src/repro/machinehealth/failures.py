"""Failure events and the downtime model.

When a machine stops responding, the controller waits up to ``w``
minutes; if the machine recovers on its own at minute ``t ≤ w``,
downtime is ``t``.  Otherwise the controller reboots at minute ``w``
and the machine is back after a reboot that itself takes time, so
downtime is ``w + reboot_minutes``.  Formally::

    downtime(w) = t_recover            if t_recover ≤ w
                = w + reboot_minutes   otherwise

The optimal wait therefore depends on how likely — and how fast — the
machine is to self-recover, which our model ties to the context:
transient network/firmware glitches on healthy machines recover fast
(wait!), kernel/disk failures on old, failure-prone machines don't
(reboot immediately!).  The paper's reward is total downtime *scaled by
the number of VMs* on the machine (Table 1), which we honor.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.machinehealth.fleet import FAILURE_KINDS, HARDWARE_SKUS, Machine
from repro.simsys.random_source import RandomSource, choice_cdf

#: The paper's action set: wait {1, 2, ..., 9} minutes, plus the safe
#: default of 10 used during data collection.  Action id ``i`` means
#: "wait ``i + 1`` minutes".
WAIT_TIMES = tuple(range(1, 11))

#: Sentinel recovery time for machines that never self-recover.
NEVER = math.inf

#: Shortest possible reboot, in minutes.
MIN_REBOOT_MINUTES = 2.0

#: Log-scale sigma of self-recovery times: wide enough that some
#: recoveries land past short waits (so waiting longer pays for some
#: contexts and not others).
RECOVERY_SIGMA = 0.6


@dataclass(frozen=True)
class FailureEvent:
    """One unresponsive-machine incident."""

    machine: Machine
    failure_kind: str
    recovery_minutes: float  # NEVER if the machine will not self-recover
    reboot_minutes: float

    def downtime(self, wait_minutes: float) -> float:
        """Downtime (minutes, scaled by VM count) for a given wait."""
        if wait_minutes <= 0:
            raise ValueError("wait must be positive")
        if self.recovery_minutes <= wait_minutes:
            raw = self.recovery_minutes
        else:
            raw = wait_minutes + self.reboot_minutes
        return raw * self.machine.n_vms

    def downtime_profile(self) -> list[float]:
        """Downtime for every wait time in :data:`WAIT_TIMES` — the
        full-feedback vector the Azure logs implicitly contain."""
        return [self.downtime(w) for w in WAIT_TIMES]

    def context_record(self) -> dict:
        """Raw context for this incident (machine + failure kind)."""
        record = self.machine.context_record()
        record["failure_kind"] = self.failure_kind
        return record


class DowntimeModel:
    """Generates context-dependent recovery behaviour.

    Three context-driven quantities:

    - ``recovery_probability``: transient kinds (network, firmware) on
      young, low-failure-count machines usually self-recover; kernel
      and disk failures rarely do, and age/history reduce the odds.
    - ``recovery_minutes``: lognormal, faster for network glitches.
    - ``reboot_minutes``: hardware-dependent (older SKUs POST slower).
    """

    def recovery_probability(self, machine: Machine, failure_kind: str) -> float:
        """Probability the incident resolves without a reboot."""
        base = {
            "network": 0.75,
            "firmware": 0.60,
            "disk": 0.25,
            "kernel": 0.15,
        }[failure_kind]
        # Aging and a failure-prone history both reduce self-recovery.
        penalty = 0.04 * machine.age_years + 0.03 * machine.prior_failures
        return max(0.02, min(0.95, base - penalty))

    def recovery_scale_minutes(self, machine: Machine, failure_kind: str) -> float:
        """Median self-recovery time, in minutes."""
        base = {
            "network": 1.5,
            "firmware": 3.0,
            "disk": 4.0,
            "kernel": 5.0,
        }[failure_kind]
        return base * (1.0 + 0.05 * machine.age_years)

    def reboot_base_minutes(self, machine: Machine) -> float:
        """Mean reboot time before the floor: hardware-dependent."""
        generation = HARDWARE_SKUS.index(machine.hardware_sku)
        return 9.0 - 1.2 * generation  # newer generations boot faster

    def reboot_minutes(self, machine: Machine, rng: RandomSource) -> float:
        """How long a reboot keeps the machine down."""
        return max(
            MIN_REBOOT_MINUTES,
            self.reboot_base_minutes(machine) + rng.normal(0.0, 1.0),
        )

    def failure_kind_probabilities(self, machine: Machine) -> list[float]:
        """Failure-kind mix; disk failures grow with age."""
        disk_weight = 1.0 + 0.3 * machine.age_years
        weights = [2.0, disk_weight, 1.0, 1.5]  # network, disk, kernel, firmware
        total = sum(weights)
        return [w / total for w in weights]

    def sample_event(self, machine: Machine, rng: RandomSource) -> FailureEvent:
        """One incident for ``machine``: a one-row :func:`draw_incidents`."""
        picks = np.zeros(1, dtype=np.int64)
        return draw_incidents(self, [machine], picks, rng).events()[0]


@dataclass(frozen=True, eq=False)
class FailureColumns:
    """Incidents over one fleet, as columns: row ``i`` is incident ``i``.

    ``machine`` indexes ``machines`` (the fleet the incidents were
    drawn over) and ``kind`` indexes
    :data:`~repro.machinehealth.fleet.FAILURE_KINDS`; the two time
    columns are the :class:`FailureEvent` fields of the same name
    (``recovery_minutes`` is :data:`NEVER` for an incident that does
    not self-recover).
    """

    machines: Sequence[Machine]
    machine: np.ndarray
    kind: np.ndarray
    recovery_minutes: np.ndarray
    reboot_minutes: np.ndarray

    def downtime_profiles(self) -> np.ndarray:
        """``(n, len(WAIT_TIMES))`` downtimes: row ``i`` is incident
        ``i``'s :meth:`FailureEvent.downtime_profile`, value for value."""
        waits = np.asarray(WAIT_TIMES, dtype=np.float64)
        recovery = self.recovery_minutes[:, None]
        raw = np.where(
            recovery <= waits, recovery, waits + self.reboot_minutes[:, None]
        )
        n_vms = np.asarray([m.n_vms for m in self.machines], dtype=np.int64)
        return raw * n_vms[self.machine][:, None]

    def events(self) -> list[FailureEvent]:
        """One :class:`FailureEvent` per row."""
        return [
            FailureEvent(
                machine=self.machines[machine],
                failure_kind=FAILURE_KINDS[kind],
                recovery_minutes=recovery,
                reboot_minutes=reboot,
            )
            for machine, kind, recovery, reboot in zip(
                self.machine.tolist(),
                self.kind.tolist(),
                self.recovery_minutes.tolist(),
                self.reboot_minutes.tolist(),
            )
        ]


def draw_incidents(
    model: DowntimeModel,
    machines: Sequence[Machine],
    picks: np.ndarray,
    rng: RandomSource,
) -> FailureColumns:
    """Draw one incident per entry of ``picks`` (indices into ``machines``).

    The event law, written once.  Per incident, in stream order, ``rng``
    yields the failure-kind uniform (searched against the machine's
    kind CDF, as :meth:`RandomSource.choice` would), the self-recovery
    coin, the lognormal recovery time (only when the coin says the
    machine recovers) and the reboot normal.  The draws stay one
    incident at a time because NumPy's ziggurat normal consumes a
    variable number of raw draws.  Everything that depends only on the
    machine — the kind CDF, the per-kind recovery probability and log
    scale, the reboot base — comes from ``model``'s methods, evaluated
    once per (machine, kind) that ``picks`` names.
    """
    laws: dict[int, tuple] = {}
    for machine in dict.fromkeys(picks.tolist()):
        target = machines[machine]
        laws[machine] = (
            choice_cdf(model.failure_kind_probabilities(target)).tolist(),
            [
                model.recovery_probability(target, kind)
                for kind in FAILURE_KINDS
            ],
            [
                math.log(model.recovery_scale_minutes(target, kind))
                for kind in FAILURE_KINDS
            ],
            model.reboot_base_minutes(target),
        )
    uniform, normal = rng.generator.random, rng.generator.normal
    kinds: list[int] = []
    recoveries: list[float] = []
    reboots: list[float] = []
    for machine in picks.tolist():
        cdf, recover_p, log_scale, reboot_base = laws[machine]
        kind = bisect_right(cdf, uniform())
        if uniform() < recover_p[kind]:
            recovery = math.exp(normal(log_scale[kind], RECOVERY_SIGMA))
        else:
            recovery = NEVER
        kinds.append(kind)
        recoveries.append(recovery)
        reboots.append(max(MIN_REBOOT_MINUTES, reboot_base + normal(0.0, 1.0)))
    return FailureColumns(
        machines=machines,
        machine=np.asarray(picks, dtype=np.int64),
        kind=np.asarray(kinds, dtype=np.int64),
        recovery_minutes=np.asarray(recoveries, dtype=np.float64),
        reboot_minutes=np.asarray(reboots, dtype=np.float64),
    )


def failure_columns(
    machines: Sequence[Machine],
    n_events: int,
    randomness: RandomSource,
    model: DowntimeModel = None,
) -> FailureColumns:
    """Draw ``n_events`` incidents across the fleet, as columns.

    Failure-prone machines (older, more prior failures) fail more
    often, mirroring real fleet telemetry.  Every incident's machine is
    picked on the ``which-machine`` child stream in one batch; the
    incidents themselves are drawn on the ``events`` child stream by
    :func:`draw_incidents`.
    """
    if not machines:
        raise ValueError("no machines to fail")
    if n_events <= 0:
        raise ValueError("n_events must be positive")
    weights = [1.0 + m.prior_failures + m.age_years / 2.0 for m in machines]
    total = sum(weights)
    picks = randomness.child("which-machine").choice_indices(
        [w / total for w in weights], n_events
    )
    return draw_incidents(
        model or DowntimeModel(), machines, picks, randomness.child("events")
    )


def generate_failures(
    machines: list[Machine],
    n_events: int,
    randomness: RandomSource,
    model: DowntimeModel = None,
) -> list[FailureEvent]:
    """Draw ``n_events`` incidents across the fleet.

    Failure-prone machines (older, more prior failures) fail more
    often, mirroring real fleet telemetry.  The events are
    materialized from :func:`failure_columns`.
    """
    return failure_columns(machines, n_events, randomness, model).events()
