"""Harvesting Randomness to Optimize Distributed Systems — reproduction.

A faithful, from-scratch reproduction of the HotNets 2017 paper.  The
package is organized as:

- :mod:`repro.core` — the paper's contribution: contextual-bandit
  exploration data, off-policy estimators (IPS, SNIPS, DM, DR,
  trajectory IS), confidence bounds (Eq. 1), CB learners, propensity
  inference, and the scavenge→infer→evaluate harvesting pipeline.
- :mod:`repro.simsys` — a discrete-event simulation kernel.
- :mod:`repro.loadbalance` — an Nginx-like reverse-proxy simulation
  (Table 2, Fig. 5) plus the Front Door hierarchy (Fig. 6).
- :mod:`repro.cache` — a Redis-like cache with sampled eviction
  (Table 3).
- :mod:`repro.machinehealth` — a synthetic Azure-Compute machine-health
  scenario with full-feedback logs (Figs. 3–4).
- :mod:`repro.chaos` — fault injection for exploration-coverage
  experiments (§5).
- :mod:`repro.audit` — HKDF-derived RNG streams and the hash-chained,
  verifiable decision ledger (ADR-0001/0002).
- :mod:`repro.obs` — tracing, metrics, manifests, streaming health
  monitors, and the run-history dashboard.
- :mod:`repro.serve` — the online policy server closing the
  harvest → evaluate → deploy loop (ADR-0003): live decisions,
  shadow/canary candidates, OPE-gated hot swaps.

Every package's exports resolve on first access
(:func:`repro._lazy.lazy_exports`): importing ``repro`` or any
subpackage runs none of its submodules, so a CLI subcommand imports
only the modules it runs.
"""

__version__ = "1.0.0"

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(
    __name__, {"repro.core": ("core",)}
)
__all__.append("__version__")
