"""Synthetic machine fleet.

Azure Compute "already logs detailed hardware/configuration information
about each machine as well as context on past failures; neither is
fast-changing" (§3).  We generate machines with exactly those kinds of
slowly-varying features.  The features matter: the downtime model in
:mod:`repro.machinehealth.failures` makes the recovery behaviour — and
hence the optimal wait time — depend on them, so a contextual policy
has something real to learn.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.simsys.random_source import RandomSource, choice_cdf

HARDWARE_SKUS = ("gen4-compute", "gen5-compute", "gen5-memory", "gen6-compute")
OS_VERSIONS = ("os-2012r2", "os-2016", "os-2019")
#: Fleet mix of :data:`HARDWARE_SKUS` and :data:`OS_VERSIONS`.
SKU_WEIGHTS = (0.25, 0.35, 0.15, 0.25)
OS_WEIGHTS = (0.2, 0.45, 0.35)
FAILURE_KINDS = ("network", "disk", "kernel", "firmware")


@dataclass(frozen=True)
class Machine:
    """One physical machine and its slowly-varying context."""

    machine_id: int
    hardware_sku: str
    os_version: str
    age_years: float
    n_vms: int
    prior_failures: int

    def context_record(self) -> dict:
        """The raw (pre-encoding) context record, as a log would hold it."""
        return {
            "machine_id": self.machine_id,
            "hardware_sku": self.hardware_sku,
            "os_version": self.os_version,
            "age_years": self.age_years,
            "n_vms": self.n_vms,
            "prior_failures": self.prior_failures,
        }


@dataclass(frozen=True)
class FleetConfig:
    """Knobs for fleet generation."""

    n_machines: int = 1000
    max_age_years: float = 6.0
    max_vms: int = 20
    max_prior_failures: int = 8


def generate_fleet(config: FleetConfig, randomness: RandomSource) -> list[Machine]:
    """Generate a fleet of machines with mixed hardware and history.

    Older SKUs skew toward higher ages and more prior failures, the
    correlation a real fleet would show.  The SKU picks have a stream
    of their own and are drawn in one batch; the ``attributes`` stream
    interleaves each machine's age, failure count, OS and VM count.
    """
    if config.n_machines <= 0:
        raise ValueError("fleet must contain at least one machine")
    sku_rng = randomness.child("sku")
    skus = sku_rng.choice_indices(SKU_WEIGHTS, config.n_machines)
    attr_rng = randomness.child("attributes")
    os_cdf = choice_cdf(OS_WEIGHTS).tolist()
    uniform = attr_rng.generator.random
    machines = []
    for machine_id, generation in enumerate(skus.tolist()):
        # Newer generations are younger on average.
        age_scale = max(0.5, (3 - generation)) / 3.0
        age = min(
            config.max_age_years,
            attr_rng.exponential(config.max_age_years * age_scale / 2.0),
        )
        prior_failures = min(
            config.max_prior_failures,
            int(attr_rng.exponential(1.0 + age / 2.0)),
        )
        machines.append(
            Machine(
                machine_id=machine_id,
                hardware_sku=HARDWARE_SKUS[generation],
                os_version=OS_VERSIONS[bisect_right(os_cdf, uniform())],
                age_years=round(age, 2),
                n_vms=attr_rng.randint(1, config.max_vms + 1),
                prior_failures=prior_failures,
            )
        )
    return machines
