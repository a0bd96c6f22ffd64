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

from repro.core.types import (
    ActionSpace,
    Dataset,
    Interaction,
    RewardRange,
)
from repro.core.columns import ContextColumns, DatasetColumns, DecisionBatch
from repro.core.engine import use_engine
from repro.core.features import FeatureEncoder, Featurizer
from repro.core.policies import (
    ConstantPolicy,
    DeterministicFunctionPolicy,
    EpsilonGreedyPolicy,
    GreedyRegressorPolicy,
    HashPolicy,
    LinearThresholdPolicy,
    MixturePolicy,
    Policy,
    PolicyClass,
    SoftmaxPolicy,
    UniformRandomPolicy,
    sample_from_probabilities,
)
from repro.core.estimators import (
    ClippedIPSEstimator,
    ConfidenceInterval,
    DirectMethodEstimator,
    DoublyRobustEstimator,
    EstimatorResult,
    FallbackEstimator,
    IPSEstimator,
    PerDecisionISEstimator,
    SNIPSEstimator,
    TrajectoryISEstimator,
    ab_testing_error_bound,
    ab_testing_sample_size,
    ips_error_bound,
    ips_sample_size,
)
from repro.core.diagnostics import (
    DiagnosticThresholds,
    ReliabilityDiagnostics,
    diagnose,
    effective_sample_size,
)
from repro.core.validation import (
    Quarantine,
    RecordValidator,
    RejectedRecord,
    validated_interactions,
)
from repro.core.learners import (
    CBLearner,
    EpochGreedyLearner,
    EpsilonGreedyLearner,
    PolicyClassOptimizer,
    RidgeRegressor,
    SGDRegressor,
    SupervisedTrainer,
)
from repro.core.propensity import (
    DeclaredPropensityModel,
    EmpiricalPropensityModel,
    PropensityModel,
    RegressionPropensityModel,
)
from repro.core.harvest import (
    HarvestPipeline,
    LogScavenger,
    harvest_columns,
    harvest_dataset,
)
from repro.core.ab_testing import ABTest, ABTestReport
from repro.core.comparison import (
    BoundedEstimate,
    PairedComparison,
    compare_policies,
    evaluate_with_bound,
    sufficient_log_size,
)
from repro.core.streaming import (
    StreamingEvaluationBoard,
    StreamingIPS,
    StreamingSnapshot,
    ValidatedInteractionStream,
)
from repro.core.design import (
    ExplorationPlan,
    epsilon_for_deadline,
    exploration_plan,
    wasted_potential,
)
from repro.core.reporting import (
    dataset_summary,
    diagnostics_table,
    estimator_table,
    offline_online_table,
    quarantine_table,
)
from repro.core.bootstrap import (
    bootstrap_interval_from_terms,
    bootstrap_ips_interval,
    bootstrap_snips_interval,
)

__all__ = [
    "ActionSpace",
    "ContextColumns",
    "Dataset",
    "DatasetColumns",
    "DecisionBatch",
    "Interaction",
    "RewardRange",
    "use_engine",
    "FeatureEncoder",
    "Featurizer",
    "Policy",
    "ConstantPolicy",
    "DeterministicFunctionPolicy",
    "UniformRandomPolicy",
    "EpsilonGreedyPolicy",
    "SoftmaxPolicy",
    "GreedyRegressorPolicy",
    "HashPolicy",
    "LinearThresholdPolicy",
    "MixturePolicy",
    "PolicyClass",
    "sample_from_probabilities",
    "IPSEstimator",
    "ClippedIPSEstimator",
    "SNIPSEstimator",
    "TrajectoryISEstimator",
    "PerDecisionISEstimator",
    "DirectMethodEstimator",
    "DoublyRobustEstimator",
    "EstimatorResult",
    "FallbackEstimator",
    "ReliabilityDiagnostics",
    "DiagnosticThresholds",
    "diagnose",
    "effective_sample_size",
    "Quarantine",
    "RecordValidator",
    "RejectedRecord",
    "validated_interactions",
    "ConfidenceInterval",
    "ips_error_bound",
    "ips_sample_size",
    "ab_testing_error_bound",
    "ab_testing_sample_size",
    "CBLearner",
    "EpsilonGreedyLearner",
    "EpochGreedyLearner",
    "PolicyClassOptimizer",
    "RidgeRegressor",
    "SGDRegressor",
    "SupervisedTrainer",
    "PropensityModel",
    "DeclaredPropensityModel",
    "EmpiricalPropensityModel",
    "RegressionPropensityModel",
    "HarvestPipeline",
    "LogScavenger",
    "harvest_columns",
    "harvest_dataset",
    "ABTest",
    "ABTestReport",
    "BoundedEstimate",
    "PairedComparison",
    "compare_policies",
    "evaluate_with_bound",
    "sufficient_log_size",
    "StreamingIPS",
    "StreamingEvaluationBoard",
    "StreamingSnapshot",
    "ValidatedInteractionStream",
    "ExplorationPlan",
    "exploration_plan",
    "epsilon_for_deadline",
    "wasted_potential",
    "dataset_summary",
    "diagnostics_table",
    "estimator_table",
    "offline_online_table",
    "quarantine_table",
    "bootstrap_interval_from_terms",
    "bootstrap_ips_interval",
    "bootstrap_snips_interval",
]
