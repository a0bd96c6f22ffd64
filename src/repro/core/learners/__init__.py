"""Policy learning (the *optimize* half of step 3).

- :mod:`~repro.core.learners.regression` — importance-weighted linear
  regression oracles (batch ridge and online SGD), the workhorse the
  CB learners reduce to.
- :mod:`~repro.core.learners.cb` — contextual-bandit learners:
  epsilon-greedy with a regression oracle, epoch-greedy, and brute
  policy-class optimization via IPS.
- :mod:`~repro.core.learners.supervised` — the full-feedback
  (supervised) baseline used as ground truth in Figs. 3–4.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
    "repro.core.learners.regression": ("RidgeRegressor", "SGDRegressor"),
    "repro.core.learners.cb": (
        "BaggingLearner", "CBLearner", "EpochGreedyLearner",
        "EpsilonGreedyLearner", "PerActionFeaturesLearner",
        "PolicyClassOptimizer",
    ),
    "repro.core.learners.supervised": ("SupervisedTrainer",),
})
