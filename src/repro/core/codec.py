"""The v1 log codec: each distinct context sealed, encoded and parsed once.

Every decision the system harvests or serves becomes one JSONL line::

    {"context": {...}, "action": 4, "reward": 41.28, "propensity": 0.1,
     "timestamp": 0.0, "metadata": {"ledger": {"v": 1, "stream": "...",
     "ordinal": 0, "prev": "...", "context_sha": "...", "hash": "..."}}}

byte for byte what ``json.dumps(interaction.to_dict()) + "\\n"`` writes
(``metadata`` only on ledgered logs).  A log reuses a few thousand
contexts across hundreds of thousands of rows, so every row names its
context by an id, and this module does the per-context work — the
ledger digest, the JSON text, the parsed dict — once per *distinct*
context, and everything else in columns:

- :class:`ContextTable` computes each distinct context's digest and
  JSON text on first request, for rows named as ``(contexts, ids)``: a
  scenario builder's distinct contexts and ids, the serving pool's, a
  columnar view's.  Per-row contexts that arrive without ids get theirs
  by value (:class:`ContextKeys`), under an exact key
  (:func:`context_key`): equal keys guarantee identical
  :func:`~repro.audit.ledger.context_digest` and ``json.dumps`` output.
- :func:`write_columns` (rows named by id) and
  :func:`write_interactions` (rows keyed by value) fill a fixed-schema
  line template and fall back to ``json.dumps`` for any record outside
  it (extra fields, ``full_rewards``, non-float values, non-finite
  numbers, unusual metadata).
- The readers invert that template: one compiled pattern splits every
  line it wrote into its fields, and the context is parsed once per
  distinct text (:meth:`ContextTable.text_entry`).
  :class:`LogReader` admits such a row straight into columns when its
  values pass the validator's bounds and, on ledgered logs, its hash
  binding verifies through the memo; each block lists its distinct
  contexts once and names every row's by id.  Every other line — one
  the pattern does not match, or whose row fails a check — goes through
  ``json.loads`` and :func:`repro.core.validation.admit_record` in
  line order, so strict errors and quarantine reports are those of the
  per-record path.  :func:`checked_lines` is the parse and binding
  check behind :func:`~repro.audit.ledger.verify_jsonl`, on the same
  two paths.

Logs are read line by line; a line that is not UTF-8 is an unparseable
line at its own number.  The ``ledger.seal``, ``jsonl.write`` and
``jsonl.read`` spans record ``rows``, ``distinct_contexts`` (the
table's size: the contexts whose digest or text it keeps, plus the
texts a reader keeps, at most ``TABLE_CAP`` of each) and ``memo_hits``
(rows whose digest, JSON text or parsed text was already there) per
batch; ``jsonl.read`` also records ``template_rows``, the
rows read through the template.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import struct
from contextlib import contextmanager
from itertools import repeat
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.audit.ledger import (
    ChainFollower,
    SealedRows,
    _binding_issues,
    context_digest,
)
from repro.core.types import Interaction
from repro.core.validation import (
    UNPARSEABLE,
    Quarantine,
    RecordValidator,
    admit_record,
)
from repro.obs.monitors import NULL_MONITORS, get_monitors
from repro.obs.tracing import get_tracer

__all__ = [
    "TABLE_CAP",
    "WRITE_BLOCK",
    "ContextKeys",
    "ContextTable",
    "LogReader",
    "RowBlock",
    "checked_lines",
    "checked_read",
    "context_key",
    "write_columns",
    "write_interactions",
]

#: Distinct contexts one table memoizes.  Past the cap, contexts already
#: in the table still hit and new ones are computed directly, so every
#: reader, writer and ledger holds O(cap) memo memory whatever the log's
#: size.
TABLE_CAP = 4096

#: Lines encoded and written per ``writelines`` call.
WRITE_BLOCK = 4096

_sha256 = hashlib.sha256
_PACKERS: dict = {}

# The record's members in ``Interaction.to_dict`` order, with
# ``json.dumps``'s default separators; numbers arrive pre-rendered.
_HEAD = (
    '{"context": %s, "action": %d, "reward": %s, "propensity": %s, '
    '"timestamp": %s'
)
_LEDGER_BLOCK = (
    ', "metadata": {"ledger": {"v": %d, "stream": %s, "ordinal": %d, '
    '"prev": "%s", "context_sha": "%s", "hash": "%s"}}'
)
_LINE = _HEAD + "%s}\n"
_LEDGERED_LINE = _HEAD + _LEDGER_BLOCK + "}\n"
_LEDGER_KEYS = ("v", "stream", "ordinal", "prev", "context_sha", "hash")


def _holes(template: str) -> str:
    """``template`` as a regular expression whose ``%`` holes take groups."""
    return re.escape(template).replace("%d", "%s")


# Groups that hold exactly what ``json.loads`` returns for their text:
# an int; a number with a fraction or an exponent, which ``repr``
# writes for every float and ``json.loads`` reads as one (it reads any
# other number as an int); a string body with no escape and no control
# character, whose text is its value.
_INT = r"(0|-?[1-9][0-9]*)"
_FLOAT = (
    r"(-?(?:0|[1-9][0-9]*)"
    r"(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
)
_STRING = r'([^"\\\x00-\x1f]*)'

#: The inverse of ``_LINE`` and ``_LEDGERED_LINE``: the fields of a
#: stripped line the template wrote, as ``(context text, action,
#: reward, propensity, timestamp, v, stream, ordinal, prev,
#: context_sha, hash)``, the ledger fields ``None`` on a plain line.
#: A line matches only when it is exactly the JSON object the groups
#: spell.  The context group ends at its first ``}``: when that text
#: parses as a JSON object, the object ends there in the line too, so
#: a nested context or a ``}`` inside a key fails to parse or to match.
_TEMPLATE = re.compile(
    _holes(_HEAD)
    % (r"(\{[^}]*\})", "(0|[1-9][0-9]*)", _FLOAT, _FLOAT, _FLOAT)
    + "(?:"
    + _holes(_LEDGER_BLOCK)
    % (_INT, f'"{_STRING}"', _INT, _STRING, _STRING, _STRING)
    + r")?\}"
).fullmatch


def context_key(context: dict) -> Optional[tuple]:
    """The exact memo key of a context dict, or ``None`` if it has none.

    ``(keys, values, value types, packed float64 bits)``.  Plain value
    tuples are not enough: ``0.0 == -0.0`` and ``1 == 1.0 == True``
    compare and hash equal, yet their digests (packed float bits) or
    JSON text differ.  The types separate ints, floats and bools, the
    packed bits separate signed zeros, and the values themselves keep
    ints beyond 2**53 apart.  Contexts with a value that does not
    convert to a float (strings, nesting) have no key.
    """
    values = tuple(context.values())
    bits = _float_bits(values)
    if bits is None:
        return None
    return (tuple(context), values, tuple(map(type, values)), bits)


def _float_bits(values: tuple) -> Optional[bytes]:
    """The packed float64 bits of ``values``; ``None`` if one does not
    convert to a float."""
    pack = _PACKERS.get(len(values))
    if pack is None:
        pack = _PACKERS.setdefault(
            len(values), struct.Struct(f"<{len(values)}d").pack
        )
    try:
        return pack(*values)
    except (struct.error, TypeError, ValueError, OverflowError):
        return None


class ContextTable:
    """Each distinct context's digest and JSON text, computed once.

    Rows name their contexts as ``(contexts, ids)``: row ``i``'s context
    is ``contexts[ids[i]]``, where the *source* ``contexts`` holds each
    distinct context once (a scenario builder's, the serving pool's, a
    columnar view's).  :meth:`digests` and :meth:`texts` compute a
    context's ledger digest and JSON text on its first request and keep
    them under its ``(source, index)``, so every other row costs a
    lookup.  At most ``cap`` contexts are kept: past the cap, contexts
    already kept still hit and new ones are computed directly (once per
    call), so the memo stays O(cap) whatever the log's size.  The table
    holds each source it keeps a context of, whose items must not
    change.

    Readers look contexts up by their JSON text (:meth:`text_entry`),
    at most ``cap`` texts.  ``len`` counts kept contexts and texts, and
    ``hits`` the rows whose digest, text or text entry was already
    there.
    """

    def __init__(self, cap: int = TABLE_CAP) -> None:
        self.cap = int(cap)
        self.hits = 0
        self._kept = 0
        # id(source) -> (source, {index: digest}, {index: text})
        self._sources: dict = {}
        self._by_text: dict = {}

    def __len__(self) -> int:
        return self._kept + len(self._by_text)

    def digests(self, contexts: Sequence, ids) -> list[str]:
        """``context_digest`` of each row's context ``contexts[id]``."""
        return self._memo(contexts, ids, 1, context_digest)

    def texts(self, contexts: Sequence, ids) -> list[str]:
        """``json.dumps(dict(context))`` of each row's context
        ``contexts[id]``."""
        return self._memo(contexts, ids, 2, _context_text)

    def _memo(self, contexts: Sequence, ids, kind: int, compute) -> list:
        ids = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
        source = self._sources.get(id(contexts))
        out = list(map(source[kind].get, ids)) if source else [None] * len(ids)
        computed: dict = {}
        if None in out:
            for row, value in enumerate(out):
                if value is None:
                    index = ids[row]
                    value = computed.get(index)
                    if value is None:
                        value = computed[index] = compute(contexts[index])
                    out[row] = value
            self._keep(contexts, kind, computed)
        self.hits += len(ids) - len(computed)
        return out

    def _keep(self, contexts: Sequence, kind: int, computed: dict) -> None:
        """Keep ``computed`` values of ``contexts`` while under the cap."""
        source = self._sources.get(id(contexts))
        if source is None:
            if self._kept >= self.cap:
                return
            source = self._sources[id(contexts)] = (contexts, {}, {})
        memo, other = source[kind], source[3 - kind]
        for index, value in computed.items():
            if index in other:
                memo[index] = value
            elif self._kept < self.cap:
                memo[index] = value
                self._kept += 1

    def text_entry(self, text: str) -> Optional[list]:
        """The reader's memo entry ``[digest, context, block, slot]`` of
        the context whose JSON text is ``text``.

        Equal texts parse to equal dicts, so the text itself is the key,
        with no type tags or float bits: ``json.loads`` runs once per
        distinct text, on a miss, and past the cap on every lookup of a
        text not yet kept.  ``None`` when the text is not a JSON object
        or its context has no :func:`context_key` (string, null or
        nested values).  The digest is filled on first request; the
        last two slots are the reader's (:meth:`LogReader.blocks`).
        """
        entry = self._by_text.get(text)
        if entry is not None:
            self.hits += 1
            return entry
        try:
            context = json.loads(text)
        except ValueError:
            return None
        if type(context) is not dict or (
            _float_bits(tuple(context.values())) is None
        ):
            return None
        entry = [None, context, None, 0]
        if len(self._by_text) < self.cap:
            self._by_text[text] = entry
        return entry

    def __repr__(self) -> str:
        return f"ContextTable(distinct={len(self)}, hits={self.hits})"


class ContextKeys:
    """Context ids for per-row contexts that arrive without any.

    The one step that groups contexts by value: :meth:`ids` names each
    row's context by its position in :attr:`contexts`, and rows whose
    exact keys (:func:`context_key`) are equal share one, so their
    digests and JSON texts are equal too.  Only ``dict`` contexts with
    string keys are keyed, at most ``cap`` of them; any other context,
    and every new one past the cap, joins :attr:`contexts` as its own.
    """

    def __init__(self, cap: int = TABLE_CAP) -> None:
        self.cap = int(cap)
        #: The distinct contexts the ids index.
        self.contexts: list = []
        self._keys: dict = {}

    def ids(self, contexts: Sequence) -> np.ndarray:
        """The id of each of ``contexts``, in order."""
        keys = self._keys
        distinct = self.contexts
        out = []
        for context in contexts:
            key = context_key(context) if type(context) is dict else None
            if key is not None:
                found = keys.get(key)
                if found is not None:
                    out.append(found)
                    continue
                if len(keys) < self.cap and all(
                    type(name) is str for name in key[0]
                ):
                    keys[key] = len(distinct)
            out.append(len(distinct))
            distinct.append(context)
        return np.array(out, dtype=np.int64)


def _context_text(context) -> str:
    return json.dumps(context if type(context) is dict else dict(context))


# -- encode ------------------------------------------------------------------


def _finite(value: float) -> bool:
    return value - value == 0.0


def _plain(text: object) -> bool:
    """Whether a string JSON-encodes as itself between quotes."""
    return type(text) is str and text.isascii() and text.isalnum()


def _ledger_tail(metadata: dict, streams: dict) -> Optional[str]:
    """The template's metadata member for ``metadata``; ``None`` if
    the block is not exactly the v1 ledger layout."""
    if type(metadata) is not dict or len(metadata) != 1:
        return None
    block = metadata.get("ledger")
    if type(block) is not dict or tuple(block) != _LEDGER_KEYS:
        return None
    version, stream, ordinal = block["v"], block["stream"], block["ordinal"]
    prev, sha, digest = block["prev"], block["context_sha"], block["hash"]
    if not (
        type(version) is int and type(stream) is str
        and type(ordinal) is int
        and _plain(prev) and _plain(sha) and _plain(digest)
    ):
        return None
    stream_text = streams.get(stream)
    if stream_text is None:
        stream_text = streams[stream] = json.dumps(stream)
    return _LEDGER_BLOCK % (version, stream_text, ordinal, prev, sha, digest)


def _encode_interaction(
    interaction: Interaction, text: str, streams: dict
) -> str:
    """One v1 line; ``text`` is the JSON text of the row's context."""
    action, reward = interaction.action, interaction.reward
    propensity, timestamp = interaction.propensity, interaction.timestamp
    if (
        type(action) is int and type(reward) is float
        and type(propensity) is float and type(timestamp) is float
        and interaction.full_rewards is None
        and _finite(reward) and _finite(propensity) and _finite(timestamp)
    ):
        metadata = interaction.metadata
        tail = _ledger_tail(metadata, streams) if metadata else ""
        if tail is not None:
            return _LINE % (
                text, action, repr(reward), repr(propensity),
                repr(timestamp), tail,
            )
    return json.dumps(interaction.to_dict()) + "\n"


def _write_span(handle, table: ContextTable, encode_blocks) -> None:
    """Write the blocks ``encode_blocks`` yields under a ``jsonl.write``
    span recording rows, bytes, distinct contexts and memo hits."""
    hits = table.hits
    rows = size = 0
    with get_tracer().span("jsonl.write") as span:
        for lines in encode_blocks:
            handle.writelines(lines)
            rows += len(lines)
            size += sum(map(len, lines))
        span.set(
            rows=rows, bytes=size, distinct_contexts=len(table),
            memo_hits=table.hits - hits,
        )


def write_interactions(handle, interactions: Sequence[Interaction]) -> None:
    """Append ``interactions`` to ``handle`` as v1 lines.

    Byte-identical to writing ``json.dumps(i.to_dict()) + "\\n"`` for
    each; records the template does not cover take exactly that path.
    The rows' contexts get their ids by value (:class:`ContextKeys`),
    so each distinct context is encoded once.
    """
    table = ContextTable()
    keys = ContextKeys()
    streams: dict = {}

    def blocks():
        for start in range(0, len(interactions), WRITE_BLOCK):
            block = interactions[start : start + WRITE_BLOCK]
            texts = table.texts(
                keys.contexts,
                keys.ids([interaction.context for interaction in block]),
            )
            yield [
                _encode_interaction(interaction, text, streams)
                for interaction, text in zip(block, texts)
            ]

    _write_span(handle, table, blocks())


def _float_texts(column: np.ndarray, memo: Optional[dict] = None) -> list:
    """``repr`` of each float of ``column``, as ``json.dumps`` renders it.

    Integral columns (no ``-0.0``, magnitudes below 1e16, where ``repr``
    is the integer and ``.0``) format as integers; with ``memo``, each
    distinct positive value is rendered once (positive floats that
    compare equal have identical bits).
    """
    if (
        (column == np.trunc(column)).all()
        and (np.abs(column) < 1e16).all()
        and not np.signbit(column[column == 0.0]).any()
    ):
        return [f"{value}.0" for value in column.astype(np.int64).tolist()]
    values = column.tolist()
    if memo is None:
        return list(map(repr, values))
    out = []
    for value in values:
        text = memo.get(value) if value > 0.0 else None
        if text is None:
            text = repr(value)
            if value > 0.0 and len(memo) < TABLE_CAP:
                memo[value] = text
        out.append(text)
    return out


def _column_lines(
    table: ContextTable,
    contexts: Sequence,
    ids: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    propensities: np.ndarray,
    timestamps: np.ndarray,
    sealed: Optional[SealedRows],
    offset: int,
    memo: dict,
) -> list[str]:
    """Encode one block of rows whose contexts are ``contexts[ids]``,
    through ``table``; ``offset`` is the block's first row and ``memo``
    renders the propensities of every block of one write."""
    n = len(ids)
    finite = (
        np.isfinite(rewards) & np.isfinite(propensities)
        & np.isfinite(timestamps)
    )
    rows = [
        table.texts(contexts, ids),
        actions.tolist(),
        _float_texts(rewards),
        _float_texts(propensities, memo),
        _float_texts(timestamps),
    ]
    if sealed is None:
        lines = [_LINE % (*row, "") for row in zip(*rows)]
    else:
        hashes = sealed.hashes[offset : offset + n]
        prevs = [sealed.prev if offset == 0 else sealed.hashes[offset - 1]]
        prevs.extend(hashes[:-1])
        first = sealed.start + offset
        rows += [
            repeat(1, n),
            repeat(json.dumps(sealed.stream), n),
            range(first, first + n),
            prevs,
            sealed.context_shas[offset : offset + n],
            hashes,
        ]
        lines = [_LEDGERED_LINE % row for row in zip(*rows)]
    if not finite.all():
        for row in np.flatnonzero(~finite).tolist():
            record = {
                "context": dict(contexts[ids[row]]),
                "action": int(actions[row]),
                "reward": float(rewards[row]),
                "propensity": float(propensities[row]),
                "timestamp": float(timestamps[row]),
            }
            if sealed is not None:
                record["metadata"] = {
                    "ledger": sealed.entry(offset + row).to_metadata()
                }
            lines[row] = json.dumps(record) + "\n"
    return lines


def write_columns(
    handle,
    table: ContextTable,
    contexts: Sequence,
    context_ids,
    actions,
    rewards,
    propensities,
    timestamps,
    sealed: Optional[SealedRows] = None,
) -> None:
    """Append columnar rows to ``handle`` as v1 lines, in blocks.

    Row ``i``'s context is ``contexts[context_ids[i]]``, where
    ``contexts`` holds each distinct context once, so each is encoded
    once (through ``table``), on its first row.  ``sealed``
    (aligned with the rows) stamps each line's ``metadata.ledger``.
    The bytes equal ``json.dumps`` of the record
    :meth:`~repro.core.columns.DatasetColumns.to_dataset` would build,
    annotated from ``sealed``; rows with a non-finite number take
    exactly that path.
    """
    ids = np.asarray(context_ids, dtype=np.int64)
    actions = np.asarray(actions).astype(np.int64, copy=False)
    rewards = np.asarray(rewards, dtype=np.float64)
    propensities = np.asarray(propensities, dtype=np.float64)
    timestamps = np.asarray(timestamps, dtype=np.float64)
    n = len(ids)
    for name, column in (
        ("actions", actions), ("rewards", rewards),
        ("propensities", propensities), ("timestamps", timestamps),
    ):
        if len(column) != n:
            raise ValueError(f"{n} contexts but {len(column)} {name}")
    if sealed is not None and len(sealed) != n:
        raise ValueError(f"{n} rows but {len(sealed)} sealed ledger rows")
    memo: dict = {}

    def blocks():
        for start in range(0, n, WRITE_BLOCK):
            stop = min(n, start + WRITE_BLOCK)
            yield _column_lines(
                table,
                contexts,
                ids[start:stop],
                actions[start:stop],
                rewards[start:stop],
                propensities[start:stop],
                timestamps[start:stop],
                sealed,
                start,
                memo,
            )

    _write_span(handle, table, blocks())


# -- parse -------------------------------------------------------------------


class _Prefix(io.RawIOBase):
    """The first ``size`` bytes of a binary file, as a raw stream."""

    def __init__(self, handle, size: int) -> None:
        self._handle = handle
        self._left = size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._handle.readinto(memoryview(buffer)[: self._left])
        self._left -= count
        return count

    def close(self) -> None:
        self._handle.close()
        super().close()


def _open_lines(path: str, prefix_bytes: Optional[int] = None):
    """``path`` as UTF-8 text, read line by line.

    Each byte that does not decode becomes a lone surrogate, so one bad
    byte spoils only its own line (:func:`_undecodable` names it) and
    every line keeps the number text mode gives it.  With
    ``prefix_bytes`` only the file's first ``prefix_bytes`` bytes are
    read.
    """
    if prefix_bytes is None:
        return open(path, "r", encoding="utf-8", errors="surrogateescape")
    prefix = _Prefix(open(path, "rb", buffering=0), prefix_bytes)
    return io.TextIOWrapper(
        io.BufferedReader(prefix), encoding="utf-8", errors="surrogateescape"
    )


def _undecodable(line: str) -> Optional[str]:
    """Why a line from :func:`_open_lines` is not UTF-8; ``None`` if it is."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as error:
        return str(error)
    return None


def _readable(raw: str) -> str:
    """``raw`` with each undecodable byte shown as U+FFFD."""
    return raw.encode("utf-8", "surrogateescape").decode("utf-8", "replace")


class RowBlock(NamedTuple):
    """One block of admitted rows, in line order.

    A reader that keeps rows (``keep_rows=True``) returns them as
    ``interactions`` and leaves the columns empty; otherwise
    ``interactions`` is ``None`` and the columns carry every row: row
    ``i``'s context is ``contexts[context_ids[i]]``, where ``contexts``
    holds each distinct context of the block once.
    """

    contexts: list
    context_ids: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    propensities: np.ndarray
    timestamps: np.ndarray
    interactions: Optional[list]

    @property
    def n(self) -> int:
        """Rows in the block."""
        if self.interactions is not None:
            return len(self.interactions)
        return len(self.actions)


def _fast_checks(validator: RecordValidator) -> Optional[tuple]:
    """``(n_actions, reward_range)`` bounds of the template path, or
    ``None`` when ``validator`` has rules only its own ``check`` can
    apply."""
    if type(validator) is not RecordValidator or validator.extra_rules:
        return None
    if validator.monotone_timestamps:
        return None
    space = validator.action_space
    if space is not None and space.restricted:
        return None
    return (space.n_actions if space is not None else None,
            validator.reward_range)


class LogReader:
    """Parse and admit JSONL log lines into columns.

    Takes the arguments of :func:`repro.core.validation.
    validated_interactions` and accepts exactly the rows it accepts, in
    the same order, with the same strict errors, quarantine entries,
    repairs, chain state and monitor feed.  A line the codec's template
    wrote goes straight into the columns when its context has a memo
    entry, its values lie inside the validator's bounds, and (when
    ``chain`` is given) its hash binding verifies through the digest
    memo; any other line goes through ``json.loads`` and
    ``admit_record``.  A line that is not UTF-8 is unparseable.

    ``keep_rows=True`` also builds each row's :class:`Interaction`
    (with its own context dict and its ``metadata``), which
    :meth:`repro.core.types.Dataset.load_jsonl` returns; otherwise each
    block lists its distinct contexts once and names each row's by id
    (:class:`RowBlock`), and no per-row object is kept.  A template row
    takes the id of its memo entry; a row admitted through
    ``json.loads`` is keyed by value (:func:`context_key`).  Readers of one log can share a ``table``, so a second
    pass parses and digests no context twice.  ``prefix_bytes`` reads
    only the file's first ``prefix_bytes`` bytes (the gate reads the
    prefix its flush made durable).
    """

    def __init__(
        self,
        path: str,
        *,
        mode: str = "strict",
        validator: Optional[RecordValidator] = None,
        quarantine: Optional[Quarantine] = None,
        chain: Optional[ChainFollower] = None,
        keep_rows: bool = False,
        table: Optional[ContextTable] = None,
        prefix_bytes: Optional[int] = None,
    ) -> None:
        self.path = path
        self.mode = mode
        self.validator = validator or RecordValidator()
        self.quarantine = quarantine if quarantine is not None else Quarantine()
        self.chain = chain
        self.keep_rows = keep_rows
        self.table = table if table is not None else ContextTable()
        self.prefix_bytes = prefix_bytes
        self._unreported = 0  # accepted rows not yet fed to the monitors

    def read(self) -> RowBlock:
        """Admit every line of the log into one block."""
        (block,) = self.blocks(None)
        return block

    def blocks(self, block_rows: Optional[int]) -> Iterator[RowBlock]:
        """Admit the log in blocks of ``block_rows`` rows (``None``: one).

        Each block is read under its own ``jsonl.read`` span; nothing
        is yielded while a span is open, so a consumer's spans never
        nest inside the read.  The whole-file form always yields one
        (possibly empty) block.
        """
        self.validator.reset()
        monitors = (
            get_monitors() if self.quarantine.record_metrics else NULL_MONITORS
        )
        tracer = get_tracer()
        with _open_lines(self.path, self.prefix_bytes) as handle:
            lines = enumerate(handle, start=1)
            while True:
                hits = self.table.hits
                with tracer.span("jsonl.read") as span:
                    block, size, template_rows, done = self._read_block(
                        lines, block_rows, monitors
                    )
                    span.set(
                        rows=block.n, bytes=size,
                        distinct_contexts=len(self.table),
                        memo_hits=self.table.hits - hits,
                        template_rows=template_rows,
                    )
                if done and self._unreported:
                    monitors.observe_rows(self._unreported)
                    self._unreported = 0
                if block.n or block_rows is None:
                    yield block
                if done:
                    return

    def _read_block(self, lines, limit, monitors):
        """Admit lines until ``limit`` rows are in;
        ``(block, bytes, template rows, eof)``."""
        mode = self.mode
        strict = mode == "strict"
        source = self.path
        validator = self.validator
        quarantine = self.quarantine
        chain = self.chain
        keep_rows = self.keep_rows
        fast = _fast_checks(validator)
        n_actions, bounds = fast if fast is not None else (None, None)
        text_entry = self.table.text_entry
        template = _TEMPLATE
        loads = json.loads
        # The block's distinct contexts: a memo entry records its slot
        # here under the block's token, and a row read through
        # ``json.loads`` is keyed by value.
        token: list = []
        contexts: list = []
        keyed: dict = {}
        ids: list = []
        actions: list = []
        rewards: list = []
        propensities: list = []
        timestamps: list = []
        interactions: Optional[list] = [] if keep_rows else None
        size = template_rows = 0
        count_rows = monitors.enabled
        done = True
        for line_number, line in lines:
            size += len(line)
            raw = line.strip()
            if not raw:
                continue
            if not line.isascii():
                detail = _undecodable(line)
                if detail is not None:
                    if strict:
                        raise ValueError(
                            f"{source}: invalid UTF-8 at line {line_number}: "
                            f"{detail}"
                        )
                    quarantine.add(
                        line_number, UNPARSEABLE, detail, _readable(raw)
                    )
                    continue
            found = template(raw) if fast is not None else None
            entry = None
            if found is not None:
                fields = found.groups()
                entry = text_entry(fields[0])
            admitted = False
            if entry is not None:
                action = int(fields[1])
                reward = float(fields[2])
                propensity = float(fields[3])
                timestamp = float(fields[4])
                ledger = fields[5:]
                admitted = (
                    0.0 < propensity <= 1.0
                    and reward - reward == 0.0
                    and (n_actions is None or action < n_actions)
                    and (bounds is None or bounds.low <= reward <= bounds.high)
                    and (
                        chain is None
                        or _bound(chain, entry, ledger, action, propensity)
                    )
                )
            if admitted:
                template_rows += 1
                if keep_rows:
                    stamped = _ledger_block(ledger)
                    interactions.append(
                        Interaction(
                            dict(entry[1]), action, reward, propensity,
                            timestamp, None,
                            {} if stamped is None else {"ledger": stamped},
                        )
                    )
                else:
                    if entry[2] is not token:
                        entry[2] = token
                        entry[3] = len(contexts)
                        contexts.append(entry[1])
                    ids.append(entry[3])
            else:
                try:
                    record = loads(raw)
                except json.JSONDecodeError as error:
                    if strict:
                        raise ValueError(
                            f"{source}: invalid JSON at line {line_number}: "
                            f"{error.msg}"
                        ) from error
                    quarantine.add(line_number, UNPARSEABLE, error.msg, raw)
                    continue
                interaction = admit_record(
                    record, raw, line_number, mode, validator, quarantine,
                    source, chain,
                )
                if interaction is None:
                    continue
                if keep_rows:
                    interactions.append(interaction)
                else:
                    context = interaction.context
                    key = (
                        context_key(context) if type(context) is dict
                        else None
                    )
                    slot = keyed.get(key) if key is not None else None
                    if slot is None:
                        slot = len(contexts)
                        contexts.append(context)
                        if key is not None:
                            keyed[key] = slot
                    ids.append(slot)
                action = interaction.action
                reward = interaction.reward
                propensity = interaction.propensity
                timestamp = interaction.timestamp
            if not keep_rows:
                actions.append(action)
                rewards.append(reward)
                propensities.append(propensity)
                timestamps.append(timestamp)
            if count_rows:
                # Batched so quarantine-rate denominators cost one fold
                # per 1024 accepted rows, as validated_interactions does.
                self._unreported += 1
                if self._unreported >= 1024:
                    monitors.observe_rows(self._unreported)
                    self._unreported = 0
            if limit is not None and (
                len(interactions) if keep_rows else len(actions)
            ) >= limit:
                done = False
                break
        block = RowBlock(
            contexts,
            np.array(ids, dtype=np.int64),
            np.array(actions, dtype=np.int64),
            np.array(rewards, dtype=np.float64),
            np.array(propensities, dtype=np.float64),
            np.array(timestamps, dtype=np.float64),
            interactions,
        )
        return block, size, template_rows, done


def _ledger_block(ledger: tuple) -> Optional[dict]:
    """The ``metadata.ledger`` dict of a template line's ledger fields
    (``v`` to ``hash``), in v1 key order; ``None`` on a plain line."""
    version, stream, ordinal, prev, sha, digest = ledger
    if version is None:
        return None
    return {
        "v": int(version), "stream": stream, "ordinal": int(ordinal),
        "prev": prev, "context_sha": sha, "hash": digest,
    }


def _bound(
    chain: ChainFollower,
    entry: list,
    ledger: tuple,
    action: int,
    propensity: float,
) -> bool:
    """Check one template row's ledger binding and advance the chain.

    ``True`` when the row is authentic (or legitimately unledgered); the
    chain has then moved past it exactly as ``ChainFollower.observe``
    moves.  ``False`` leaves the chain untouched, for ``admit_record``
    to report the defect.
    """
    version, _stream, _ordinal, prev, _sha, digest = ledger
    if version is None:
        return not chain.engaged
    if chain.strict_links and prev != chain.head:
        return False
    if not _authentic(entry, ledger, action, propensity):
        return False
    chain._link(prev, digest)
    return True


def _authentic(
    entry: list, ledger: tuple, action: int, propensity: float
) -> bool:
    """Whether a template line's ledger fields bind its record: the
    memoized context digest and the recomputed entry hash both match.

    The ordinal is the text the template wrote, which is the decimal
    form ``entry_hash`` hashes.
    """
    _version, stream, ordinal, prev, sha, digest = ledger
    context_sha = entry[0]
    if context_sha is None:
        try:
            context_sha = entry[0] = context_digest(entry[1])
        except (TypeError, ValueError):
            return False
    if context_sha != sha:
        return False
    try:
        message = (
            f"{prev}|{stream}|{ordinal}|{sha}|{action}|{propensity.hex()}"
        ).encode("ascii")
    except UnicodeEncodeError:
        return False
    return _sha256(message).hexdigest() == digest


# -- verify ------------------------------------------------------------------

#: What an unparseable or non-object line verifies as: a ledger block
#: with no fields, so it fails its binding at its own line number.
_NO_BLOCK_ISSUES = tuple(_binding_issues({}, {}))


class _LineStats:
    """Counters :func:`checked_lines` fills for its caller's span."""

    def __init__(self, table: ContextTable) -> None:
        self.table = table
        self.rows = 0
        self.bytes = 0
        self.template_rows = 0


def checked_lines(path: str, stats: Optional[_LineStats] = None) -> Iterator:
    """``(line number, ledger block or None, binding issues)`` per record.

    The verify walk's reader: every non-blank line is a record.  A line
    that is not UTF-8, is unparseable, or is not a JSON object carries
    an empty ledger block and so fails its binding at its line number.
    A line the codec's template wrote, whose context has a memo entry,
    is unledgered as it stands when plain and checked through the digest
    memo when ledgered.  Every other line, and every ledgered template
    line whose check fails, is parsed by ``json.loads`` and checked by
    the per-record ``_binding_issues``, whose messages the template path
    never has to reproduce.
    """
    stats = stats if stats is not None else _LineStats(ContextTable())
    text_entry = stats.table.text_entry
    template = _TEMPLATE
    loads = json.loads
    with _open_lines(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            stats.bytes += len(line)
            raw = line.strip()
            if not raw:
                continue
            stats.rows += 1
            if not line.isascii() and _undecodable(line) is not None:
                yield line_number, {}, _NO_BLOCK_ISSUES
                continue
            found = template(raw)
            entry = None
            if found is not None:
                fields = found.groups()
                entry = text_entry(fields[0])
            if entry is not None:
                ledger = fields[5:]
                block = _ledger_block(ledger)
                if block is None or _authentic(
                    entry, ledger, int(fields[1]), float(fields[3])
                ):
                    stats.template_rows += 1
                    yield line_number, block, []
                    continue
            try:
                record = loads(raw)
            except json.JSONDecodeError:
                yield line_number, {}, _NO_BLOCK_ISSUES
                continue
            if not isinstance(record, dict):
                yield line_number, {}, _NO_BLOCK_ISSUES
                continue
            block = ChainFollower.metadata_of(record)
            yield line_number, block, (
                [] if block is None else _binding_issues(record, block)
            )


@contextmanager
def checked_read(path: str) -> Iterator[Iterator]:
    """:func:`checked_lines` of ``path`` under one ``jsonl.read`` span.

    The span covers whatever the ``with`` body does with the lines and
    records the rows, bytes, distinct contexts, memo hits and template
    rows read.
    """
    stats = _LineStats(ContextTable())
    with get_tracer().span("jsonl.read") as span:
        try:
            yield checked_lines(path, stats)
        finally:
            span.set(
                rows=stats.rows, bytes=stats.bytes,
                distinct_contexts=len(stats.table),
                memo_hits=stats.table.hits,
                template_rows=stats.template_rows,
            )
