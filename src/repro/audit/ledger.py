"""The hash-chained decision ledger: tamper-evident exploration logs.

Off-policy evaluation trusts a log's every row: a flipped action, a
rescaled propensity, a dropped segment — all silently bias the
estimate while remaining perfectly *valid-looking* data, invisible to
value-level validation.  The ledger closes that gap.  Every harvested
decision event carries a chained record::

    hash_i = SHA256(prev=hash_{i-1} | stream | ordinal_i |
                    context_sha_i | action_i | propensity_i)

so that

- **tampering** with any field (context, action, propensity, or the
  ledger metadata itself) breaks that record's hash binding;
- **deletion, insertion, or reordering** breaks the ``prev`` linkage
  of the surrounding records — verification localizes the damage to a
  segment instead of merely failing;
- **truncation** is caught by comparing the final head against the
  head recorded in the run manifest
  (:meth:`repro.obs.manifest.RunManifest.build`'s ``ledger`` section);
- together with :mod:`repro.audit.streams`, any shard of the log
  regenerates bit-identically in isolation (fork equivalence): derive
  the stream at the shard's start ordinal, replay the rows, and anchor
  the chain at the shard's recorded ``prev``.

Hot-path cost discipline: hashing a record costs ~1 µs, which is the
*entire* per-row budget of the batched harvest engine.
:meth:`DecisionLedger.extend_batch` therefore only keeps references to
the batch arrays (O(1) per batch) and the chain is **sealed lazily** —
computed when the head is read or the rows are handed over to the
writer that stores them (:meth:`DecisionLedger.seal`), i.e. at
serialization time, before the log ever leaves the process.  The
at-rest artifact is always covered; the sampling loop pays nothing.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.audit.streams import StreamKey
from repro.obs.tracing import get_tracer

__all__ = [
    "GENESIS",
    "LEDGER_SCHEMA_VERSION",
    "ChainFollower",
    "ChainIssue",
    "ChainVerification",
    "DecisionLedger",
    "LedgerEntry",
    "SealedRows",
    "StreamingLedgerWriter",
    "context_digest",
    "entry_hash",
    "rechain",
    "verify_jsonl",
    "verify_records",
]

#: Bump when the ledger record layout changes incompatibly.
LEDGER_SCHEMA_VERSION = 1

#: The chain anchor before any record: 64 hex zeros.
GENESIS = "0" * 64

#: Validation reason code for ledger rejections (mirrored into
#: :mod:`repro.core.validation`'s reason vocabulary).
LEDGER = "ledger"

_PACK_DOUBLE = struct.Struct("<d").pack
_sha256 = hashlib.sha256


def context_digest(context: Mapping) -> str:
    """128-bit hex digest of a context, canonical across round trips.

    Features are folded in sorted key order with length-prefixed keys
    and exact little-endian float64 values, so the digest is invariant
    under dict ordering and JSON serialization (which round-trips
    float64 exactly) but changes for any altered feature name or value.
    """
    parts = []
    for key in sorted(context):
        raw = str(key).encode("utf-8")
        parts += (len(raw).to_bytes(4, "big"), raw, _PACK_DOUBLE(float(context[key])))
    return _sha256(b"".join(parts)).hexdigest()[:32]


def entry_hash(
    prev: str,
    stream: str,
    ordinal: int,
    context_sha: str,
    action: int,
    propensity: float,
) -> str:
    """The chained hash of one decision event.

    The message is an unambiguous ``|``-joined canonical form (stream
    names exclude ``|`` by construction, floats use ``float.hex()``
    for bit-exactness), prefixed by the previous record's hash — so
    every hash commits to the entire log prefix.
    """
    message = "|".join(
        (
            prev,
            stream,
            str(int(ordinal)),
            context_sha,
            str(int(action)),
            float(propensity).hex(),
        )
    )
    return hashlib.sha256(message.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class LedgerEntry:
    """One sealed ledger record for one harvested decision."""

    stream: str
    ordinal: int
    prev: str
    context_sha: str
    action: int
    propensity: float
    hash: str

    def to_metadata(self) -> dict:
        """The dict embedded at ``interaction.metadata["ledger"]``."""
        return {
            "v": LEDGER_SCHEMA_VERSION,
            "stream": self.stream,
            "ordinal": self.ordinal,
            "prev": self.prev,
            "context_sha": self.context_sha,
            "hash": self.hash,
        }


@dataclass(frozen=True)
class SealedRows:
    """Sealed chain columns of consecutive ordinals, as the log stores them.

    Row ``i`` is ordinal ``start + i``; its predecessor hash is ``prev``
    for the first row and ``hashes[i - 1]`` after it.  This is what
    :meth:`DecisionLedger.seal` hands over (no per-row
    :class:`LedgerEntry`), what the log writers of
    :mod:`repro.core.codec` stamp into ``metadata.ledger``, and what
    :meth:`annotate` stamps into interactions.
    """

    stream: str
    start: int
    prev: str
    context_shas: Sequence[str]
    actions: Sequence[int]
    propensities: Sequence[float]
    hashes: Sequence[str]

    def __len__(self) -> int:
        return len(self.hashes)

    def entry(self, row: int) -> LedgerEntry:
        """Row ``row`` as a :class:`LedgerEntry`."""
        return LedgerEntry(
            stream=self.stream,
            ordinal=self.start + row,
            prev=self.hashes[row - 1] if row else self.prev,
            context_sha=self.context_shas[row],
            action=self.actions[row],
            propensity=self.propensities[row],
            hash=self.hashes[row],
        )

    def entries(self) -> list[LedgerEntry]:
        """Every row as a :class:`LedgerEntry`, in ordinal order."""
        return [self.entry(row) for row in range(len(self))]

    def annotate(self, interactions: Iterable) -> None:
        """Stamp row ``i``'s entry into ``interactions[i]``'s
        ``metadata["ledger"]`` (one interaction per row, in order)."""
        interactions = list(interactions)
        if len(interactions) != len(self):
            raise ValueError(
                f"{len(self)} sealed rows for {len(interactions)} interactions"
            )
        for row, interaction in enumerate(interactions):
            interaction.metadata["ledger"] = self.entry(row).to_metadata()


def _int_list(values) -> list:
    return np.asarray(values).astype(np.int64, copy=False).tolist()


def _float_list(values) -> list:
    return np.asarray(values, dtype=np.float64).tolist()


class DecisionLedger:
    """Build the hash chain over a stream of harvested decisions.

    ``stream`` names the decision stream (a
    :class:`~repro.audit.streams.StreamKey` or its ``name`` form);
    ``shard_size`` records the derivation shard of the paired
    :class:`~repro.audit.streams.StreamRNG` so verification tooling can
    re-derive shards; ``genesis`` anchors the chain (override it with a
    predecessor's head to extend a log, or with a shard's recorded
    ``prev`` to rebuild that shard in isolation); ``start_ordinal``
    offsets the entry ordinals for the same shard-rebuild case, so an
    isolated rebuild reproduces the full log's records bit-identically.

    :meth:`extend_batch` is O(1) per batch: it stashes references to
    the batch's contexts (or context ids), actions and propensities and
    defers hashing until the chain is observed (:attr:`head`,
    :meth:`seal`, :meth:`annotate`).  This is what the batched harvest
    engine and the decision service call, keeping ledger overhead off
    the sampling hot path.

    Sealing digests every row's context through the ledger's
    :class:`~repro.core.codec.ContextTable` (:attr:`contexts`) by its
    id, so each distinct context is digested once.  :meth:`seal` hands
    every row sealed since the previous ``seal`` to its caller (the
    writer that stores it), after which the ledger keeps only its head,
    its count, its context table and the rows queued since.
    """

    def __init__(
        self,
        stream: Union[StreamKey, str],
        *,
        shard_size: Optional[int] = None,
        genesis: str = GENESIS,
        start_ordinal: int = 0,
        master_fingerprint: Optional[str] = None,
    ) -> None:
        if start_ordinal < 0:
            raise ValueError(f"start_ordinal must be >= 0, got {start_ordinal}")
        self.stream = stream.name if isinstance(stream, StreamKey) else str(stream)
        self.genesis = str(genesis)
        self.start_ordinal = int(start_ordinal)
        self.shard_size = shard_size
        self.master_fingerprint = master_fingerprint
        self._head = self._prev = self.genesis
        # The rows chained since the previous seal(): the first one's
        # ordinal (its predecessor hash is _prev), one column per field.
        self._start = self.start_ordinal
        self._shas: list[str] = []
        self._actions: list[int] = []
        self._propensities: list[float] = []
        self._hashes: list[str] = []
        self._queue: list[tuple] = []
        self._queued = 0
        self._contexts = None

    @property
    def contexts(self):
        """The :class:`~repro.core.codec.ContextTable` that digests the
        sealed rows' contexts (and encodes them, for a writer of this
        ledger's rows)."""
        if self._contexts is None:
            from repro.core.codec import ContextTable

            self._contexts = ContextTable()
        return self._contexts

    # -- appending -----------------------------------------------------------

    def extend_batch(
        self,
        contexts: Sequence[Mapping],
        actions: np.ndarray,
        propensities: np.ndarray,
        context_ids: Optional[np.ndarray] = None,
    ) -> None:
        """Queue one harvested batch; hashing is deferred until sealed.

        Row ``i``'s context is ``contexts[context_ids[i]]``, where
        ``contexts`` holds each distinct context once (pass the same
        sequence object with every batch, so that each context is
        digested once); without ids, each row has its own context.  The
        arrays are kept by reference — callers hand over slices the
        harvest engine has finished writing (each output position is
        written exactly once, so the views are stable).
        """
        if context_ids is None:
            context_ids = np.arange(len(contexts))
        n = len(context_ids)
        if len(actions) != n or len(propensities) != n:
            raise ValueError(
                f"batch length mismatch: {n} contexts, {len(actions)} "
                f"actions, {len(propensities)} propensities"
            )
        if n:
            self._queue.append((contexts, context_ids, actions, propensities))
            self._queued += n

    def extend_digests(
        self,
        context_shas: Sequence[str],
        actions: Sequence[int],
        propensities: Sequence[float],
    ) -> None:
        """Seal decisions whose context digests are already computed.

        The splice path of :func:`repro.audit.shards.splice_payloads`:
        each shard's digests are chained here against the true
        predecessor head — every entry hash still commits to the full
        log prefix, but no context is hashed twice.  Seals immediately
        (there is nothing left to defer).
        """
        n = len(context_shas)
        if len(actions) != n or len(propensities) != n:
            raise ValueError(
                f"batch length mismatch: {n} digests, {len(actions)} "
                f"actions, {len(propensities)} propensities"
            )
        self._drain()
        self._chain(
            [str(sha) for sha in context_shas],
            _int_list(actions),
            _float_list(propensities),
        )

    def _chain(
        self, shas: list, actions: list, propensities: list
    ) -> None:
        """Chain digested decisions (Python ints and floats) onto the head.

        Each hash is :func:`entry_hash` of the row, inlined.
        """
        stream = self.stream
        ordinal = self._start + len(self._hashes)
        head = self._head
        hashes = self._hashes
        for sha, action, propensity in zip(shas, actions, propensities):
            head = _sha256(
                f"{head}|{stream}|{ordinal}|{sha}|{action}|"
                f"{propensity.hex()}".encode("ascii")
            ).hexdigest()
            hashes.append(head)
            ordinal += 1
        self._shas.extend(shas)
        self._actions.extend(actions)
        self._propensities.extend(propensities)
        self._head = head

    def _drain(self) -> None:
        """Chain every queued batch onto the head."""
        if not self._queue:
            return
        queue, self._queue = self._queue, []
        self._queued = 0
        table = self.contexts
        hits = table.hits
        rows = 0
        with get_tracer().span("ledger.seal") as span:
            for contexts, ids, actions, propensities in queue:
                self._chain(
                    table.digests(contexts, ids),
                    _int_list(actions),
                    _float_list(propensities),
                )
                rows += len(ids)
            span.set(
                rows=rows, distinct_contexts=len(table),
                memo_hits=table.hits - hits,
            )

    def seal(self, n: Optional[int] = None) -> SealedRows:
        """Chain the queued decisions and hand over every row sealed
        since the previous ``seal``, keeping none of them.

        With ``n``, a count other than :attr:`pending` raises
        ``ValueError`` and seals nothing.
        """
        if n is not None and n != self.pending:
            raise ValueError(f"{n} rows for {self.pending} unsealed ledger rows")
        self._drain()
        rows = SealedRows(
            self.stream, self._start, self._prev, self._shas,
            self._actions, self._propensities, self._hashes,
        )
        self._start += len(rows)
        self._prev = self._head
        self._shas, self._actions = [], []
        self._propensities, self._hashes = [], []
        return rows

    # -- observation ---------------------------------------------------------

    def __len__(self) -> int:
        return self._start - self.start_ordinal + self.pending

    @property
    def pending(self) -> int:
        """Decisions the next :meth:`seal` hands over."""
        return len(self._hashes) + self._queued

    @property
    def head(self) -> str:
        """The chain head — seals any queued batches first."""
        self._drain()
        return self._head

    def annotate(self, interactions: Iterable) -> None:
        """Seal, and stamp the rows :meth:`seal` hands over into the
        matching ``interactions`` (one per row, in order — what a
        harvest that fed both produces; a count mismatch seals
        nothing)."""
        interactions = list(interactions)
        self.seal(len(interactions)).annotate(interactions)

    def manifest_entry(self) -> dict:
        """Manifest section proving this ledger's provenance."""
        out = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "stream": self.stream,
            "n": len(self),
            "genesis": self.genesis,
            "head": self.head,
        }
        if self.shard_size is not None:
            out["shard_size"] = self.shard_size
        if self.master_fingerprint is not None:
            out["master_fingerprint"] = self.master_fingerprint
        return out

    def __repr__(self) -> str:
        return f"DecisionLedger(stream={self.stream!r}, n={len(self)})"


class StreamingLedgerWriter:
    """Incrementally persist a growing ledgered decision stream as JSONL.

    The batch pipeline seals its whole chain once, at serialization
    time.  A *long-running* producer (the online decision service of
    :mod:`repro.serve`) instead flushes periodically: each
    :meth:`flush` seals exactly the decisions recorded since the last
    flush (:meth:`DecisionLedger.seal`) and appends them to ``path``
    through the log codec (:func:`repro.core.codec.write_columns`), in
    the exact byte format of :meth:`repro.core.types.Dataset.save_jsonl`
    — so the at-rest log is always a verifiable chain prefix, and
    ``Dataset.load_jsonl(path, verify_ledger="require")`` ingests it
    unchanged at any point in the service's lifetime.  The ledger
    keeps no written row, so memory does not grow with the log.  Rows
    name their
    contexts by id, as the ledger sealed them, and the writer encodes
    through the ledger's context table, so each distinct context the
    table keeps is encoded once over the writer's lifetime.

    The caller owns the pairing discipline: the columns passed to
    :meth:`flush` must align one-to-one, in order, with the ledger
    decisions recorded since the previous flush (the service guarantees
    this by feeding both from the same decide loop).
    """

    def __init__(self, ledger: DecisionLedger, path: str) -> None:
        self.ledger = ledger
        self.path = str(path)
        self._file = open(self.path, "a", encoding="utf-8")

    @property
    def size(self) -> int:
        """Bytes of :attr:`path` on disk after the last :meth:`flush`."""
        return os.fstat(self._file.fileno()).st_size

    def flush(
        self,
        contexts: Sequence[Mapping],
        context_ids,
        actions,
        rewards,
        propensities,
        timestamps,
    ) -> SealedRows:
        """Seal and append one block of decision columns.

        Row ``i``'s context is ``contexts[context_ids[i]]``, with the
        distinct ``contexts`` the ledger's batches were extended with.
        Returns the block's :class:`SealedRows`.  Raises ``ValueError``,
        sealing nothing, if the row count does not match the ledger's
        :attr:`~DecisionLedger.pending` rows, which would mean the
        caller's buffer and the ledger have diverged — better to fail
        loudly than to persist a misaligned chain.
        """
        from repro.core.codec import write_columns

        fresh = self.ledger.seal(len(context_ids))
        write_columns(
            self._file, self.ledger.contexts, contexts, context_ids,
            actions, rewards, propensities, timestamps, fresh,
        )
        self._file.flush()
        return fresh

    def close(self) -> None:
        """Close the underlying file handle (flush first)."""
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "StreamingLedgerWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"StreamingLedgerWriter(path={self.path!r}, {self.ledger!r})"


def rechain(
    interactions: Iterable,
    stream: Union[StreamKey, str, None] = None,
    **ledger_kwargs,
) -> DecisionLedger:
    """Rebuild a fresh chain over surviving interactions (the repair).

    After quarantine drops corrupted records the old chain necessarily
    shows gaps at every removal; ``rechain`` seals a new chain over
    what survived (re-annotating each interaction's ledger metadata)
    so the repaired log verifies clean end to end.  ``stream`` defaults
    to the stream named by the first interaction's existing metadata.
    """
    interactions = list(interactions)
    if stream is None:
        for interaction in interactions:
            meta = interaction.metadata.get("ledger") if interaction.metadata else None
            if meta and meta.get("stream"):
                stream = meta["stream"]
                break
        else:
            raise ValueError("no ledger metadata to take the stream name from")
    ledger = DecisionLedger(stream, **ledger_kwargs)
    ledger.extend_batch(
        [interaction.context for interaction in interactions],
        [interaction.action for interaction in interactions],
        [interaction.propensity for interaction in interactions],
    )
    ledger.annotate(interactions)
    return ledger


# -- verification ------------------------------------------------------------


@dataclass(frozen=True)
class ChainIssue:
    """One verification defect, localized to a record."""

    line: int  #: 1-based line/record number in the source.
    reason: str  #: ``"ledger"`` (binding broken) or ``"ledger-gap"``.
    detail: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.reason}: {self.detail}"


@dataclass
class ChainVerification:
    """The outcome of walking a log's chain end to end.

    ``segments`` are the maximal runs of internally-consistent,
    correctly-linked records — corruption *localizes*: the first bad
    record is named, and an intact suffix shows up as its own verified
    segment rather than poisoning everything after the break.
    """

    n: int  #: Records examined (blank lines excluded).
    n_ledgered: int  #: Records carrying ledger metadata.
    head: Optional[str]  #: Final stored head (None when nothing ledgered).
    issues: list[ChainIssue] = field(default_factory=list)
    gaps: list[ChainIssue] = field(default_factory=list)
    segments: list[dict] = field(default_factory=list)
    expected_head: Optional[str] = None
    expected_n: Optional[int] = None

    @property
    def ok(self) -> bool:
        """True iff the chain is unbroken and matches the expectations."""
        if self.issues or self.gaps:
            return False
        if self.expected_head is not None and self.head != self.expected_head:
            return False
        if self.count_mismatch:
            return False
        return self.n_ledgered > 0

    @property
    def first_bad(self) -> Optional[int]:
        """1-based line of the first defect (binding break or gap)."""
        lines = [issue.line for issue in self.issues + self.gaps]
        return min(lines) if lines else None

    @property
    def truncated(self) -> bool:
        """Whether the final head differs from the expected head."""
        return (
            self.expected_head is not None and self.head != self.expected_head
        )

    @property
    def count_mismatch(self) -> bool:
        """Whether fewer/more records are chained than the manifest says."""
        return self.expected_n is not None and self.n_ledgered != self.expected_n

    def report(self) -> dict:
        """JSON-serializable summary."""
        return {
            "ok": self.ok,
            "n": self.n,
            "n_ledgered": self.n_ledgered,
            "expected_n": self.expected_n,
            "count_mismatch": self.count_mismatch,
            "head": self.head,
            "expected_head": self.expected_head,
            "truncated": self.truncated,
            "first_bad": self.first_bad,
            "issues": [str(issue) for issue in self.issues],
            "gaps": [str(issue) for issue in self.gaps],
            "segments": list(self.segments),
        }

    def summary_text(self) -> str:
        """Human-readable verification report for terminals."""
        status = "OK" if self.ok else "BROKEN"
        lines = [
            f"ledger: {status} — {self.n_ledgered}/{self.n} record(s) "
            f"chained, {len(self.segments)} verified segment(s)"
        ]
        if self.head is not None:
            lines.append(f"  head {self.head}")
        if self.truncated:
            lines.append(
                f"  TRUNCATED/MODIFIED: expected head {self.expected_head}"
            )
        if self.count_mismatch:
            lines.append(
                f"  COUNT MISMATCH: manifest records {self.expected_n} "
                f"ledgered decision(s), log carries {self.n_ledgered}"
            )
        for issue in self.issues[:5]:
            lines.append(f"  corrupt  {issue}")
        for gap in self.gaps[:5]:
            lines.append(f"  gap      {gap}")
        for segment in self.segments:
            lines.append(
                f"  segment  lines {segment['start_line']}–"
                f"{segment['stop_line']} ({segment['n']} records) verified"
            )
        return "\n".join(lines)


class ChainFollower:
    """Stateful verifier: feed parsed records in file order.

    Separation of duties mirrors
    :class:`repro.core.validation.RecordValidator`: :meth:`check` is
    pure (returns the record's binding defects), :meth:`observe`
    advances the chain head.  The head always advances to the record's
    *stored* hash — chain verification judges log integrity as
    written, independently of whether value-level validation accepts
    the record — so a quarantined-but-authentic record does not open a
    spurious gap at its successor.

    ``strict_links`` makes linkage breaks (gaps) show up as issues
    from :meth:`check` (strict loading); otherwise gaps are tolerated
    and only tallied (quarantine/repair loading, where a gap is the
    expected shadow of an already-rejected predecessor).
    """

    REQUIRED_FIELDS = ("stream", "ordinal", "prev", "context_sha", "hash")

    def __init__(self, genesis: str = GENESIS, strict_links: bool = False) -> None:
        self.genesis = genesis
        self.strict_links = strict_links
        self.head: str = genesis
        self.engaged = False  #: Set once the first ledgered record is seen.
        self.n_ledgered = 0
        self.n_gaps = 0

    @staticmethod
    def metadata_of(record: Mapping) -> Optional[Mapping]:
        """The record's ledger metadata block, if any."""
        metadata = record.get("metadata")
        if not isinstance(metadata, Mapping):
            return None
        ledger = metadata.get("ledger")
        return ledger if isinstance(ledger, Mapping) else None

    def check(self, record: Mapping) -> list[Tuple[str, str]]:
        """Binding defects of one record (empty = authentic).

        Verifies (1) the ledger metadata is complete, (2) the recorded
        context digest matches the record's context, and (3) the
        recorded hash recomputes from the record's own fields — so any
        tampering with context, action, propensity, or the metadata
        itself is caught.  Linkage to the previous record is reported
        only under ``strict_links``; otherwise gaps are :meth:`observe`
        bookkeeping.
        """
        meta = self.metadata_of(record)
        if meta is None:
            return [_UNLEDGERED_MID_CHAIN] if self.engaged else []
        return _binding_issues(
            record, meta, self.head if self.strict_links else None
        )

    def observe(self, record: Mapping) -> bool:
        """Advance the head past ``record``; True if it opened a gap.

        The head starts at ``genesis``, so the *first* ledgered record
        opens a gap too when its ``prev`` is not the genesis anchor —
        that is how deleting a log's leading records (front truncation)
        is detected.  To verify a shard in isolation, anchor the
        follower at the shard's recorded ``prev`` via ``genesis``.
        """
        return self._advance(self.metadata_of(record))

    def _advance(self, meta: Optional[Mapping]) -> bool:
        """:meth:`observe` for a record whose ledger block is ``meta``."""
        if meta is None or "hash" not in meta:
            return False
        return self._link(meta.get("prev"), str(meta["hash"]))

    def _link(self, prev, digest: str) -> bool:
        """:meth:`_advance` for a block whose ``prev`` and ``hash`` are
        already read."""
        self.engaged = True
        self.n_ledgered += 1
        gap = prev != self.head
        if gap:
            self.n_gaps += 1
        self.head = digest
        return gap


_UNLEDGERED_MID_CHAIN = (LEDGER, "record carries no ledger metadata mid-chain")


def _binding_issues(
    record: Mapping, meta: Mapping, head: Optional[str] = None
) -> list[Tuple[str, str]]:
    """:meth:`ChainFollower.check` of a record whose ledger block is ``meta``.

    Without ``head`` the result depends on the record alone, so one
    check serves every walk the record takes part in; ``head`` (strict
    links) adds the linkage check against it.
    """
    missing = [f for f in ChainFollower.REQUIRED_FIELDS if f not in meta]
    if missing:
        return [(LEDGER, f"ledger metadata missing field(s) {missing}")]
    issues: list[Tuple[str, str]] = []
    context = record.get("context")
    if not isinstance(context, Mapping):
        # The ledger committed to a context digest; a record whose
        # context is gone (or no longer a mapping) cannot honour
        # that commitment — deleting the field is tampering too.
        issues.append(
            (LEDGER, "ledgered record's context is missing or not a mapping")
        )
    else:
        try:
            recomputed_sha = context_digest(context)
        except (TypeError, ValueError):
            recomputed_sha = None
        if recomputed_sha != meta["context_sha"]:
            issues.append(
                (LEDGER, "context digest mismatch (context tampered)")
            )
    try:
        recomputed = entry_hash(
            str(meta["prev"]),
            str(meta["stream"]),
            int(meta["ordinal"]),
            str(meta["context_sha"]),
            int(record["action"]),
            float(record["propensity"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        return issues + [(LEDGER, f"record hash not recomputable: {error}")]
    if recomputed != meta["hash"]:
        issues.append(
            (
                LEDGER,
                f"record hash mismatch at ordinal {meta['ordinal']} "
                "(action/propensity/metadata tampered)",
            )
        )
    if head is not None and meta["prev"] != head:
        issues.append(
            (
                LEDGER,
                f"chain break at ordinal {meta['ordinal']}: prev "
                f"{str(meta['prev'])[:12]}… does not match head "
                f"{head[:12]}…",
            )
        )
    return issues


#: ``(line number, ledger block or None, binding issues)`` of one record.
_CheckedRecord = Tuple[int, Optional[Mapping], list]


def _checked_records(
    records: Iterable[Tuple[int, Mapping]],
) -> Iterator[_CheckedRecord]:
    """Look up each record's ledger block and check its binding, once."""
    for line_number, record in records:
        meta = ChainFollower.metadata_of(record)
        issues = [] if meta is None else _binding_issues(record, meta)
        yield line_number, meta, issues


def verify_records(
    records: Iterable[Tuple[int, Mapping]],
    expected_head: Optional[str] = None,
    genesis: str = GENESIS,
    expected_n: Optional[int] = None,
) -> ChainVerification:
    """Walk ``(line_number, record)`` pairs and verify the full chain.

    The driver behind :func:`verify_jsonl` — also usable over parsed
    in-memory records.  Builds the verified-segment map: a segment
    closes at every binding failure or linkage gap, and a new one opens
    at the next record whose own binding verifies (anchored at its
    stored ``prev``), which is exactly how an intact suffix re-verifies
    after the corrupted stretch is repaired or excised.

    The chain is anchored at ``genesis``: a first ledgered record whose
    ``prev`` differs opens a gap, so deleting a log's leading records
    (front truncation) fails verification just like any interior
    deletion.  Pass a shard's recorded ``prev`` as ``genesis`` to
    verify that shard in isolation.  ``expected_n`` (e.g. the
    manifest's ``ledger.n``) additionally pins the ledgered record
    count.
    """
    return _verify_checked(
        _checked_records(records),
        expected_head=expected_head,
        genesis=genesis,
        expected_n=expected_n,
    )


class _ChainWalk:
    """The state of one verify walk: feed checked records in file order
    (:meth:`step`), then read the :class:`ChainVerification`
    (:meth:`finish`).

    A segment closes at every binding failure or linkage gap, and a new
    one opens at the next record whose own binding verifies.
    """

    def __init__(
        self,
        genesis: str,
        expected_head: Optional[str],
        expected_n: Optional[int],
    ) -> None:
        self.follower = ChainFollower(genesis=genesis)
        self.result = ChainVerification(
            n=0,
            n_ledgered=0,
            head=None,
            expected_head=expected_head,
            expected_n=expected_n,
        )
        self._segment_start: Optional[int] = None
        self._segment_n = 0
        self._last_line = 0

    def _close_segment(self, stop_line: int) -> None:
        if self._segment_start is not None and self._segment_n > 0:
            self.result.segments.append(
                {
                    "start_line": self._segment_start,
                    "stop_line": stop_line,
                    "n": self._segment_n,
                    "head": self.follower.head,
                }
            )
        self._segment_start = None
        self._segment_n = 0

    def step(
        self, line_number: int, meta: Optional[Mapping], issues: list
    ) -> None:
        """Walk past one checked record."""
        result = self.result
        follower = self.follower
        result.n += 1
        self._last_line = line_number
        if meta is None:
            if not follower.engaged:
                return
            issues, gap = [_UNLEDGERED_MID_CHAIN], False
        else:
            gap = follower._advance(meta)
        if issues:
            for reason, detail in issues:
                result.issues.append(ChainIssue(line_number, reason, detail))
            self._close_segment(line_number - 1)
            return
        if gap:
            detail = (
                f"prev does not match the genesis anchor — leading "
                f"record(s) deleted? (ordinal {meta['ordinal']})"
                if follower.n_ledgered == 1
                else f"prev does not match the previous record's hash "
                f"(ordinal {meta['ordinal']})"
            )
            result.gaps.append(
                ChainIssue(line_number, "ledger-gap", detail)
            )
            self._close_segment(line_number - 1)
        if self._segment_start is None:
            self._segment_start = line_number
        self._segment_n += 1

    def finish(self) -> ChainVerification:
        """The verification of every record walked."""
        self._close_segment(self._last_line)
        result = self.result
        follower = self.follower
        result.head = follower.head if follower.engaged else None
        result.n_ledgered = follower.n_ledgered
        return result


def _verify_checked(
    checked: Iterable[_CheckedRecord],
    expected_head: Optional[str],
    genesis: str,
    expected_n: Optional[int],
) -> ChainVerification:
    """:func:`verify_records` over records already checked by
    :func:`_checked_records`."""
    walk = _ChainWalk(genesis, expected_head, expected_n)
    step = walk.step
    for line_number, meta, issues in checked:
        step(line_number, meta, issues)
    return walk.finish()


def verify_jsonl(
    path: str,
    expected_head: Optional[str] = None,
    genesis: str = GENESIS,
    expected_n: Optional[int] = None,
) -> ChainVerification:
    """Verify the ledger chain of a JSONL exploration log.

    Walks the file once in O(line) memory.  ``expected_head`` (e.g.
    from the harvest manifest's ``ledger.head``) additionally proves
    the log was not truncated or extended, and ``expected_n`` (the
    manifest's ``ledger.n``) pins the ledgered record count.
    Lines that are not UTF-8, unparseable lines, and lines that are not
    JSON objects count as binding failures at their line number.  Lines
    are parsed and their bindings checked by
    :func:`repro.core.codec.checked_lines`, which splits each line the
    codec wrote by its template and digests each distinct context once.
    """
    from repro.core.codec import checked_read

    with checked_read(path) as lines:
        return _verify_checked(
            lines,
            expected_head=expected_head,
            genesis=genesis,
            expected_n=expected_n,
        )
