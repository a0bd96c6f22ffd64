"""Core library: contextual bandits and off-policy evaluation.

This package implements the paper's primary contribution — the
*harvesting randomness* methodology:

1. **Scavenge** exploration tuples ``⟨x, a, r⟩`` from system logs
   (:mod:`repro.core.harvest`).
2. **Infer** the propensity ``p`` of each logged decision
   (:mod:`repro.core.propensity`).
3. **Evaluate/optimize** candidate policies offline from the
   ``⟨x, a, r, p⟩`` data (:mod:`repro.core.estimators`,
   :mod:`repro.core.learners`).

The public API re-exported here is everything an application needs to
harvest its own logs.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
    "repro.core.types": (
        "ActionSpace", "Dataset", "Interaction", "RewardRange",
    ),
    "repro.core.columns": (
        "ContextColumns", "DatasetColumns", "DecisionBatch",
    ),
    "repro.core.features": ("FeatureEncoder", "Featurizer"),
    "repro.core.policies": (
        "ConstantPolicy", "DeterministicFunctionPolicy", "EpsilonGreedyPolicy",
        "GreedyRegressorPolicy", "HashPolicy", "LinearThresholdPolicy",
        "MixturePolicy", "Policy", "PolicyClass", "SoftmaxPolicy",
        "UniformRandomPolicy", "sample_from_probabilities",
    ),
    "repro.core.estimators": (
        "ClippedIPSEstimator", "ConfidenceInterval", "DirectMethodEstimator",
        "DoublyRobustEstimator", "EstimatorResult", "FallbackEstimator",
        "IPSEstimator", "PerDecisionISEstimator", "SNIPSEstimator",
        "TrajectoryISEstimator", "ab_testing_error_bound",
        "ab_testing_sample_size", "ips_error_bound", "ips_sample_size",
    ),
    "repro.core.diagnostics": (
        "DiagnosticThresholds", "ReliabilityDiagnostics", "diagnose",
        "effective_sample_size",
    ),
    "repro.core.validation": (
        "Quarantine", "RecordValidator", "RejectedRecord",
        "validated_interactions",
    ),
    "repro.core.learners": (
        "CBLearner", "EpochGreedyLearner", "EpsilonGreedyLearner",
        "PolicyClassOptimizer", "RidgeRegressor", "SGDRegressor",
        "SupervisedTrainer",
    ),
    "repro.core.propensity": (
        "DeclaredPropensityModel", "EmpiricalPropensityModel",
        "PropensityModel", "RegressionPropensityModel",
    ),
    "repro.core.harvest": (
        "HarvestPipeline", "LogScavenger", "harvest_columns",
        "harvest_dataset",
    ),
    "repro.core.ab_testing": ("ABTest", "ABTestReport"),
    "repro.core.comparison": (
        "BoundedEstimate", "PairedComparison", "compare_policies",
        "evaluate_with_bound", "sufficient_log_size",
    ),
    "repro.core.streaming": (
        "StreamingEvaluationBoard", "StreamingIPS", "StreamingSnapshot",
        "ValidatedInteractionStream",
    ),
    "repro.core.design": (
        "ExplorationPlan", "epsilon_for_deadline", "exploration_plan",
        "wasted_potential",
    ),
    "repro.core.reporting": (
        "dataset_summary", "diagnostics_table", "estimator_table",
        "offline_online_table", "quarantine_table",
    ),
    "repro.core.bootstrap": (
        "bootstrap_interval_from_terms", "bootstrap_ips_interval",
        "bootstrap_snips_interval",
    ),
})
