"""``repro.audit`` — audit-grade randomness and verifiable decision logs.

The paper's premise is that harvested randomness is only as valuable
as its provenance: an off-policy estimate is unbiased only when every
logged propensity can be traced to the exact random draw that produced
it.  This package is the provenance layer:

- :mod:`repro.audit.streams` — HKDF-SHA256 stream derivation from one
  master seed, keyed ``(scenario, component, stream, ordinal)``.  Any
  shard of a harvested log re-derives its generator in isolation (fork
  equivalence), so auditing a shard needs no RNG state beyond the
  master seed.
- :mod:`repro.audit.ledger` — a hash-chained decision ledger: every
  harvested decision records ``(prev_hash, stream key, ordinal,
  context digest, action, propensity)``, so corrupted, reordered, or
  truncated log segments are detected — and localized — by chain
  verification.
- :mod:`repro.audit.shards` — shard planning and splice verification
  for sharded harvests: partition ``(rows, shard_size)`` into
  stream-keyed shard specs, splice per-shard digests into one
  serial-equivalent chain, and verify sharded manifests shard by
  shard.
- :mod:`repro.audit.lint` — static analysis that finds *ambient* RNG
  (module-level ``random.*`` / ``np.random.*`` calls, argless
  ``default_rng()``) so no hot path can draw randomness that escapes
  the provenance record.

The design follows the production pattern of Adventorator's ADR-0008
(single master seed, HKDF per-stream derivation, rolls tied to ledger
ordering, no ambient RNG in the executor path); see
``docs/adr-0001-rng-streams.md`` for the migration story from the old
CRC32 seed mix.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
    "repro.audit.ledger": (
        "GENESIS", "LEDGER_SCHEMA_VERSION", "ChainFollower", "ChainIssue",
        "ChainVerification", "DecisionLedger", "LedgerEntry", "context_digest",
        "entry_hash", "rechain", "verify_jsonl", "verify_records",
    ),
    "repro.audit.lint": (
        "LintFinding", "scan_file", "scan_package", "scan_source",
    ),
    "repro.audit.shards": (
        "ShardPlan", "ShardSpec", "ShardedVerification", "SpliceError",
        "splice_payloads", "verify_sharded_jsonl", "verify_sharded_records",
    ),
    "repro.audit.streams": (
        "ShardedNormal", "StreamKey", "StreamRegistry", "StreamRNG",
        "derive_generator", "derive_key_bytes", "derive_seed", "hkdf_sha256",
    ),
})
