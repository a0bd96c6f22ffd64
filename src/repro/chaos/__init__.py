"""Fault injection for exploration coverage (§5).

"Reliability testing in distributed systems can trigger uneven traffic
and extreme conditions that lead to broader exploration.  As an
example, we could leverage Netflix's open-source Chaos Monkey ...
Such randomized failures, and the systems' responses, would generate
valuable exploration data."

:class:`~repro.chaos.monkey.ChaosMonkey` injects latency spikes and
(effective) crashes into the load-balancer simulation; the
`abl-chaos` benchmark measures how much the injected faults broaden
the context coverage of harvested logs.
:class:`~repro.chaos.corruption.LogCorruptor` extends the chaos idea
to the *data path*: it injects truncated lines, dropped fields, and
broken propensities into JSONL exploration logs so the validation and
quarantine layer (:mod:`repro.core.validation`) can be tested end to
end against realistic damage.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
    "repro.chaos.corruption": ("LogCorruptor",),
    "repro.chaos.drift": ("ChainedHooks", "EnvironmentDrift"),
    "repro.chaos.monkey": ("ChaosMonkey", "FaultSpec", "InjectedFault"),
})
