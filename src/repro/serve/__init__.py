"""Online policy serving: the paper's §5 loop as a live service.

Everything else in this repo is batch: harvest a log, evaluate it,
pick a policy.  :mod:`repro.serve` closes the loop — a long-running
asyncio service answers ``act()`` requests with the incumbent policy,
streams every decision through the audit path
(:class:`~repro.audit.streams.StreamRNG` +
:class:`~repro.audit.ledger.DecisionLedger`) into a log that
``Dataset.load_jsonl`` ingests unchanged, periodically re-evaluates
candidate policies offline against that log, and hot-swaps to a
winner with zero dropped requests.

Layering (each importable and testable without the one above it):

- :mod:`~repro.serve.registry` — versioned policies, the atomic swap;
- :mod:`~repro.serve.gate` — the DR + diagnostics promotion gate, run
  in a killable subprocess;
- :mod:`~repro.serve.service` — the synchronous decision core
  (act/log/shadow/canary/gate/swap);
- :mod:`~repro.serve.batcher` — asyncio request coalescing;
- :mod:`~repro.serve.server` — the JSON-lines TCP front end
  (``python -m repro serve``).

See ``docs/serving.md`` for the operator's guide and
``docs/adr-0003-online-serving.md`` for the swap-safety design.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
    "repro.serve.batcher": ("RequestBatcher",),
    "repro.serve.gate": (
        "GateConfig", "GateDecision", "GateRunner", "evaluate_candidate",
    ),
    "repro.serve.registry": ("PolicyRegistry", "PolicyVersion"),
    "repro.serve.server": ("PolicyServer",),
    "repro.serve.service": (
        "DecisionService", "DecisionSlice", "ShadowReport",
    ),
})
