"""Shard planning and splice verification for sharded harvests.

The sharded harvest story rests on two audit primitives: any shard
of a stream re-derives in isolation from ``(master seed, stream key,
start ordinal)`` (:class:`repro.audit.streams.StreamRNG`), and a
ledger shard anchored at its predecessor's head reproduces the full
log's hashes (:class:`repro.audit.ledger.DecisionLedger` with
``genesis``/``start_ordinal``).  This module supplies the remaining
bookkeeping:

- :class:`ShardPlan` partitions ``(rows, shard_size)`` into
  stream-keyed :class:`ShardSpec` entries — each spec is a complete
  re-derivation descriptor (together with the master fingerprint and
  stream key), no RNG state needs to travel;
- :func:`splice_payloads` seals ordered per-shard decision digests
  into ONE ledger whose entries and head are bit-identical to a
  one-pass harvest, recording the per-shard ``prev``/``head``
  boundary hashes (the shard map published in the run manifest);
- :func:`verify_sharded_jsonl` walks a sharded log the way
  ``repro verify-ledger --manifest`` needs to, in one pass: the whole
  chain end to end and, record by record, each shard in isolation
  against its recorded ``prev``/``head``/``n`` (so ``count_mismatch``
  pins to a shard), plus the splice anchoring.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.audit.ledger import GENESIS, ChainVerification, DecisionLedger
from repro.audit.ledger import _ChainWalk, _checked_records
from repro.audit.streams import StreamKey

__all__ = [
    "ShardPlan",
    "ShardSpec",
    "ShardedVerification",
    "SpliceError",
    "splice_payloads",
    "verify_sharded_jsonl",
    "verify_sharded_records",
]


class SpliceError(ValueError):
    """A shard payload set cannot be spliced into one coherent chain."""


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a harvest: rows ``[start, stop)`` of the plan.

    ``start`` is simultaneously the ledger ordinal of the shard's
    first decision and the stream-derivation ordinal an isolated
    re-derivation anchors its :class:`~repro.audit.streams.StreamRNG`
    at — the whole descriptor is ``(master fingerprint, stream key,
    start, n rows)``.
    """

    index: int
    start: int
    stop: int

    @property
    def n(self) -> int:
        """Rows in this shard."""
        return self.stop - self.start

    def to_dict(self) -> dict:
        """JSON-serializable form (manifest shard-map skeleton)."""
        return {"index": self.index, "start": self.start, "n": self.n}


@dataclass(frozen=True)
class ShardPlan:
    """Partition of ``n_rows`` harvest rows into aligned shards.

    Shard ``k`` covers rows ``[k·S, min(n, (k+1)·S))`` — the same grid
    :class:`~repro.audit.streams.StreamRNG` derives generators on, so
    every shard's stream is derivable at exactly its own start ordinal
    and an isolated shard touches no derivation outside itself.
    """

    n_rows: int
    shard_size: int
    shards: Tuple[ShardSpec, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {self.n_rows}")
        if self.shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {self.shard_size}")
        specs = tuple(
            ShardSpec(
                index=index,
                start=start,
                stop=min(self.n_rows, start + self.shard_size),
            )
            for index, start in enumerate(range(0, self.n_rows, self.shard_size))
        )
        object.__setattr__(self, "shards", specs)

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self) -> Iterator[ShardSpec]:
        return iter(self.shards)

    def __getitem__(self, index: int) -> ShardSpec:
        return self.shards[index]

    def to_dict(self) -> dict:
        """JSON-serializable description of the partition."""
        return {
            "n_rows": self.n_rows,
            "shard_size": self.shard_size,
            "n_shards": len(self.shards),
        }


def splice_payloads(
    stream: Union[StreamKey, str],
    payloads: Sequence[Mapping],
    *,
    shard_size: Optional[int] = None,
    master_fingerprint: Optional[str] = None,
    genesis: str = GENESIS,
) -> Tuple[DecisionLedger, list]:
    """Seal ordered shard payloads into one serial-equivalent ledger.

    Each payload carries ``start``, ``context_shas``, ``actions`` and
    ``propensities`` for one shard; they must arrive sorted by
    ``start`` and contiguous from row 0.  The splice chains every
    entry against the true predecessor head (only the ``prev`` linkage
    depends on the neighbours, the digests are reused), so the result
    is bit-identical to a one-pass ledger of the same decisions.
    Returns the ledger plus the shard map: per shard ``{index, start,
    n, prev, head}`` — the boundary hashes that let ``verify-ledger``
    check each shard in isolation later.
    """
    ledger = DecisionLedger(
        stream,
        shard_size=shard_size,
        genesis=genesis,
        master_fingerprint=master_fingerprint,
    )
    shard_map: list[dict] = []
    expected_start = 0
    for index, payload in enumerate(payloads):
        start = int(payload["start"])
        if start != expected_start:
            raise SpliceError(
                f"shard {index} starts at row {start}, expected "
                f"{expected_start} — payloads must be contiguous from row 0"
            )
        context_shas = payload["context_shas"]
        prev = ledger.head
        ledger.extend_digests(
            context_shas, payload["actions"], payload["propensities"]
        )
        shard_map.append(
            {
                "index": index,
                "start": start,
                "n": len(context_shas),
                "prev": prev,
                "head": ledger.head,
            }
        )
        expected_start = start + len(context_shas)
    return ledger, shard_map


@dataclass
class ShardedVerification:
    """Outcome of verifying a sharded log: per shard, splice, overall.

    ``shards`` pairs each manifest shard-map entry with the
    :class:`~repro.audit.ledger.ChainVerification` of exactly that
    shard's records, anchored at the shard's recorded ``prev`` and
    pinned to its recorded ``head`` and ``n`` — a missing or extra
    record therefore shows up as that shard's ``count_mismatch``, not
    as a diffuse whole-log failure.  ``splice_issues`` cover the
    shard-map geometry itself (anchoring, contiguity, head linkage);
    ``overall`` is the plain end-to-end walk of the full chain.
    """

    overall: ChainVerification
    shards: list = field(default_factory=list)
    splice_issues: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every shard, the splice, and the full chain verify."""
        return (
            self.overall.ok
            and not self.splice_issues
            and all(entry["verification"].ok for entry in self.shards)
        )

    def report(self) -> dict:
        """JSON-serializable summary (nests per-shard reports)."""
        return {
            "ok": self.ok,
            "overall": self.overall.report(),
            "splice_issues": list(self.splice_issues),
            "shards": [
                {
                    "index": entry["index"],
                    "start": entry["start"],
                    "n": entry["n"],
                    "prev": entry["prev"],
                    "head": entry["head"],
                    "ok": entry["verification"].ok,
                    "count_mismatch": entry["verification"].count_mismatch,
                    "report": entry["verification"].report(),
                }
                for entry in self.shards
            ],
        }

    def summary_text(self) -> str:
        """Human-readable verification report for terminals."""
        status = "OK" if self.ok else "BROKEN"
        lines = [
            f"sharded ledger: {status} — {len(self.shards)} shard(s)",
        ]
        for entry in self.shards:
            verification = entry["verification"]
            shard_status = "OK" if verification.ok else "BROKEN"
            detail = ""
            if verification.count_mismatch:
                detail = (
                    f" (count mismatch: expected {verification.expected_n}, "
                    f"got {verification.n_ledgered})"
                )
            elif not verification.ok and verification.first_bad is not None:
                detail = f" (first bad line {verification.first_bad})"
            lines.append(
                f"  shard {entry['index']} rows [{entry['start']}, "
                f"{entry['start'] + entry['n']}): {shard_status}{detail}"
            )
        for issue in self.splice_issues:
            lines.append(f"  splice   {issue}")
        lines.append("overall " + self.overall.summary_text())
        return "\n".join(lines)


def _splice_geometry_issues(
    shards: Sequence[Mapping], genesis: str, expected_head: Optional[str]
) -> list:
    issues: list[str] = []
    expected_start = 0
    prev_head = str(genesis)
    for position, shard in enumerate(shards):
        index = shard.get("index", position)
        start = int(shard["start"])
        if start != expected_start:
            issues.append(
                f"shard {index} starts at row {start}, expected {expected_start}"
            )
        if str(shard["prev"]) != prev_head:
            issues.append(
                f"shard {index} prev {str(shard['prev'])[:12]}… does not "
                f"match the preceding head {prev_head[:12]}…"
            )
        prev_head = str(shard["head"])
        expected_start = start + int(shard["n"])
    if expected_head is not None and shards and prev_head != str(expected_head):
        issues.append(
            f"final shard head {prev_head[:12]}… does not match the "
            f"recorded spliced head {str(expected_head)[:12]}…"
        )
    return issues


def verify_sharded_records(
    records: Iterable[Tuple[int, Mapping]],
    shards: Sequence[Mapping],
    expected_head: Optional[str] = None,
    expected_n: Optional[int] = None,
    genesis: str = GENESIS,
) -> ShardedVerification:
    """Verify a sharded log: shard map entries, splice, full chain.

    ``shards`` is the manifest's shard map (``{index, start, n, prev,
    head}`` per shard, as written by :func:`splice_payloads`).
    Records are routed to shards by their ledgered ordinal, each shard
    is verified in isolation (anchored at its recorded ``prev``,
    pinned to its ``head`` and ``n`` so ``count_mismatch`` localizes),
    the shard-map geometry is checked (anchoring at ``genesis``,
    contiguity, head-to-prev linkage, final head vs the spliced
    head), and the whole chain is walked end to end.

    The records are read once, in one walk: each record's binding is
    checked once, and the record then steps the whole-log walk and its
    shard's walk, so no record is kept once it has passed.
    """
    return _verify_sharded(
        _checked_records(records),
        shards,
        expected_head=expected_head,
        expected_n=expected_n,
        genesis=genesis,
    )


def _verify_sharded(
    checked: Iterable,
    shards: Sequence[Mapping],
    expected_head: Optional[str],
    expected_n: Optional[int],
    genesis: str,
) -> ShardedVerification:
    """:func:`verify_sharded_records` over already-checked records."""
    ordered = sorted(shards, key=lambda shard: int(shard["start"]))
    overall = _ChainWalk(genesis, expected_head, expected_n)
    splice_issues = _splice_geometry_issues(ordered, genesis, expected_head)
    walks = [
        _ChainWalk(str(shard["prev"]), str(shard["head"]), int(shard["n"]))
        for shard in ordered
    ]
    starts = [int(shard["start"]) for shard in ordered]
    stops = [int(shard["start"]) + int(shard["n"]) for shard in ordered]
    # The running maximum of the stops is sorted, and its first entry
    # past an ordinal is the first shard (in start order) that ends past
    # it; that shard holds the ordinal iff it starts at or before it.
    # This is the shard a scan in start order finds, even when a
    # malformed map overlaps.
    reach = list(accumulate(stops, max))
    step = overall.step
    for line_number, meta, issues in checked:
        step(line_number, meta, issues)
        if meta is None or "ordinal" not in meta:
            continue
        try:
            ordinal = int(meta["ordinal"])
        except (TypeError, ValueError):
            continue
        position = bisect_right(reach, ordinal)
        if position < len(ordered) and starts[position] <= ordinal:
            walks[position].step(line_number, meta, issues)
        else:
            splice_issues.append(
                f"line {line_number}: ledgered ordinal {ordinal} falls "
                f"outside every manifest shard"
            )

    result = ShardedVerification(
        overall=overall.finish(), splice_issues=splice_issues
    )
    for position, (shard, walk) in enumerate(zip(ordered, walks)):
        result.shards.append(
            {
                "index": int(shard.get("index", position)),
                "start": int(shard["start"]),
                "n": int(shard["n"]),
                "prev": str(shard["prev"]),
                "head": str(shard["head"]),
                "verification": walk.finish(),
            }
        )
    return result


def verify_sharded_jsonl(
    path: str,
    shards: Sequence[Mapping],
    expected_head: Optional[str] = None,
    expected_n: Optional[int] = None,
    genesis: str = GENESIS,
) -> ShardedVerification:
    """:func:`verify_sharded_records` over a JSONL exploration log.

    Lines are parsed and their bindings checked by
    :func:`repro.core.codec.checked_lines` (each distinct context
    digested once), as the one walk reads them; a line that is not
    UTF-8 or not a JSON object fails its binding at its line number.
    """
    from repro.core.codec import checked_read

    with checked_read(path) as lines:
        return _verify_sharded(
            lines,
            shards,
            expected_head=expected_head,
            expected_n=expected_n,
            genesis=genesis,
        )
