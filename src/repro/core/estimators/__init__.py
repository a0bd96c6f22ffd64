"""Off-policy estimators and their confidence bounds.

Implements the evaluation half of the methodology: given exploration
data ``⟨x, a, r, p⟩`` logged by one policy, estimate the average reward
any *other* policy would have obtained.

- :mod:`~repro.core.estimators.ips` — inverse propensity scoring
  (Eq. in §4), clipped IPS, and self-normalized IPS.
- :mod:`~repro.core.estimators.direct` — the model-based Direct Method.
- :mod:`~repro.core.estimators.doubly_robust` — the hybrid DR estimator
  §5 proposes for variance reduction.
- :mod:`~repro.core.estimators.trajectory` — per-trajectory importance
  sampling for settings where decisions affect future contexts (the
  load-balancing failure mode of Table 2).
- :mod:`~repro.core.estimators.bounds` — the Eq. 1 confidence interval,
  the A/B-testing bound, and the sample-size calculators behind
  Figs. 1–2.
- :mod:`~repro.core.estimators.fallback` — graceful degradation down
  the IPS → clipped IPS → SNIPS → DM ladder when reliability
  diagnostics flag an estimate as untrustworthy.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
    "repro.core.estimators.base": ("EstimatorResult", "OffPolicyEstimator"),
    "repro.core.estimators.ips": (
        "ClippedIPSEstimator", "IPSEstimator", "SNIPSEstimator",
    ),
    "repro.core.estimators.direct": ("DirectMethodEstimator", "RewardModel"),
    "repro.core.estimators.doubly_robust": ("DoublyRobustEstimator",),
    "repro.core.estimators.fallback": ("FallbackEstimator", "default_ladder"),
    "repro.core.estimators.switch": ("SwitchEstimator",),
    "repro.core.estimators.trajectory": (
        "PerDecisionISEstimator", "Trajectory", "TrajectoryISEstimator",
        "split_into_trajectories",
    ),
    "repro.core.estimators.bounds": (
        "ConfidenceInterval", "ab_testing_error_bound",
        "ab_testing_sample_size", "empirical_bernstein_interval",
        "hoeffding_interval", "ips_error_bound", "ips_sample_size",
    ),
})
