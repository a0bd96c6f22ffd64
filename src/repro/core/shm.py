"""Zero-copy shared-memory transport for columnar evaluation data.

The parallel paths used to ship *data* to worker processes by value:
every chunk fold pickled its interaction rows and every bootstrap shard
pickled the full term vector.  On a multi-megabyte log the serialization
dwarfs the arithmetic, which is how ``BENCH_ope.json`` ended up showing
parallel runs *losing* to serial ones.  This module replaces the data
plane:

- :class:`SharedArrayBlock` packs a set of named NumPy arrays into one
  ``multiprocessing.shared_memory`` segment and hands out a compact,
  picklable :class:`BlockDescriptor` (segment name + per-array
  dtype/shape/offset).  Workers :func:`attach_arrays` zero-copy — the
  payload that crosses the fork boundary is a few hundred bytes no
  matter how large the log is.
- :func:`pack_columns` / :func:`attach_columns` extend that to a whole
  :class:`~repro.core.columns.DatasetColumns` view: actions, rewards,
  propensities, timestamps, the eligibility mask, and the context
  features (packed as a dense ``(N, C)`` float matrix over the sorted
  key vocabulary plus an insertion-order map so worker-side dicts
  rebuild *exactly*, preserving hashed-feature summation order).
  :func:`pack_chunk` is the streaming variant used by the JSONL
  driver, which packs each chunk straight from interaction rows.
- Lifecycle: the creating process owns every segment.  Owners are
  tracked in a registry; :meth:`SharedArrayBlock.release` is
  idempotent, engine/bootstrap callers release in ``finally`` blocks,
  and an ``atexit`` hook unlinks anything still owned at interpreter
  shutdown, so segments never outlive the process even on exceptions
  or worker crashes.  Attaching suppresses ``resource_tracker``
  registration (the owner's registration is the canonical one; a
  second registration per attach would make the tracker double-count
  and spew spurious leak warnings at exit).

``REPRO_NO_SHM=1`` disables the whole module — every caller falls back
to the legacy pickled-payload paths, which remain bit-identical.
"""

from __future__ import annotations

import atexit
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.columns import DatasetColumns
from repro.core.types import RewardRange
from repro.obs.metrics import get_metrics

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing.shared_memory import SharedMemory as _SharedMemory
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    _resource_tracker = None
    _SharedMemory = None

#: Byte alignment for each array inside a segment (cache-line friendly).
_ALIGN = 64

#: Refuse to pack context matrices wider than this many distinct keys —
#: a dense (N, C) layout over a huge sparse vocabulary would waste more
#: memory than pickling saves.  Callers fall back to pickled payloads.
MAX_CONTEXT_KEYS = 1024

#: Attached segments cached per process (workers reuse one mapping for
#: every task that references the same block).  Small: long-lived blocks
#: are one per dataset / bootstrap call.
_ATTACH_CACHE_SIZE = 4


class SharedMemoryUnsupported(RuntimeError):
    """Raised when data cannot be placed in shared memory.

    Callers treat this as "use the legacy pickled path": contexts with
    non-numeric values, oversized key vocabularies, non-canonical
    eligibility orders, platforms without POSIX shared memory, or an
    explicit ``REPRO_NO_SHM=1`` opt-out all land here.
    """


def available() -> bool:
    """Whether shared-memory transport can be used in this process."""
    if _SharedMemory is None:
        return False
    return os.environ.get("REPRO_NO_SHM", "") != "1"


@dataclass(frozen=True)
class BlockDescriptor:
    """Compact picklable handle for one shared segment.

    ``arrays`` holds ``(name, dtype_str, shape, offset)`` for each
    packed array; ``meta`` carries small picklable facts the attaching
    side needs to rebuild higher-level views (see
    :func:`attach_columns`).  A descriptor pickles to a few hundred
    bytes regardless of the segment's size — this is the whole payload
    a worker receives instead of the data.
    """

    segment: str
    nbytes: int
    arrays: tuple
    meta: tuple

    def meta_dict(self) -> dict:
        """The ``meta`` key/value pairs as a dict."""
        return dict(self.meta)


# ---------------------------------------------------------------------------
# owner side: create / release

#: Segments owned (created) by this process, keyed by segment name.
_OWNED: "OrderedDict[str, SharedArrayBlock]" = OrderedDict()
_OWNED_LOCK = threading.Lock()


class SharedArrayBlock:
    """A set of named NumPy arrays living in one shared segment.

    Created (and therefore owned) by exactly one process via
    :meth:`create`; other processes attach read-only views through the
    :attr:`descriptor`.  The owner must call :meth:`release` (idempotent)
    when done — engine and bootstrap do so in ``finally`` blocks, and a
    process-exit hook releases anything that slips through.
    """

    def __init__(self, shm, descriptor: BlockDescriptor) -> None:
        self._shm = shm
        self.descriptor = descriptor
        self.released = False

    @classmethod
    def create(
        cls, arrays: "OrderedDict[str, np.ndarray] | dict", meta: Optional[dict] = None
    ) -> "SharedArrayBlock":
        """Copy ``arrays`` into a fresh shared segment and own it.

        ``meta`` must contain only small picklable values; it travels
        inside the descriptor, not the segment.
        """
        if not available():
            raise SharedMemoryUnsupported(
                "shared memory is unavailable (REPRO_NO_SHM or platform)"
            )
        specs = []
        offset = 0
        prepared = []
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = -(-offset // _ALIGN) * _ALIGN
            specs.append((name, array.dtype.str, array.shape, offset))
            prepared.append((array, offset))
            offset += array.nbytes
        total = max(offset, 1)
        try:
            shm = _SharedMemory(create=True, size=total)
        except OSError as error:  # pragma: no cover - /dev/shm exhausted
            raise SharedMemoryUnsupported(
                f"could not create a {total}-byte shared segment: {error}"
            ) from error
        for array, start in prepared:
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=shm.buf, offset=start
            )
            view[...] = array
        descriptor = BlockDescriptor(
            segment=shm.name,
            nbytes=total,
            arrays=tuple(specs),
            meta=tuple(sorted((meta or {}).items())),
        )
        block = cls(shm, descriptor)
        with _OWNED_LOCK:
            _OWNED[shm.name] = block
        metrics = get_metrics()
        metrics.counter("shm.segments_created").inc()
        metrics.counter("shm.bytes_shared").inc(total)
        return block

    def arrays(self) -> dict:
        """Owner-side zero-copy views of the packed arrays."""
        if self.released:
            raise ValueError("block already released")
        return _views(self._shm, self.descriptor)

    def release(self) -> None:
        """Close and unlink the segment (idempotent, exception-safe)."""
        if self.released:
            return
        self.released = True
        with _OWNED_LOCK:
            _OWNED.pop(self.descriptor.segment, None)
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - exported views
            pass
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass
        get_metrics().counter("shm.segments_released").inc()

    def __enter__(self) -> "SharedArrayBlock":
        """Context-manager entry: the block itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: release the segment."""
        self.release()


def owned_segments() -> tuple:
    """Names of segments this process currently owns (for tests)."""
    with _OWNED_LOCK:
        return tuple(_OWNED)


def release_all() -> None:
    """Release every segment this process still owns.

    Runs at interpreter exit so no segment outlives the process; safe
    to call any time (releases are idempotent).
    """
    with _OWNED_LOCK:
        blocks = list(_OWNED.values())
    for block in blocks:
        block.release()


atexit.register(release_all)


# ---------------------------------------------------------------------------
# attach side: map an existing segment without re-registering it

_ATTACH_LOCK = threading.Lock()
_ATTACHED: "OrderedDict[str, tuple]" = OrderedDict()


def _attach_segment(name: str):
    """Open an existing segment without resource-tracker registration.

    Only the creating process may register a segment: a second
    registration from an attacher makes the shared resource tracker
    double-count the name, producing either spurious "leaked
    shared_memory" warnings or a tracker ``KeyError`` when both sides
    clean up.  Python 3.13 exposes ``track=False``; on earlier versions
    the registration hook is suppressed for the duration of the call.
    """
    if _SharedMemory is None:  # pragma: no cover - guarded by available()
        raise SharedMemoryUnsupported("shared memory is unavailable")
    try:
        return _SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    with _ATTACH_LOCK:
        original = _resource_tracker.register
        _resource_tracker.register = lambda *args, **kwargs: None
        try:
            return _SharedMemory(name=name)
        finally:
            _resource_tracker.register = original


def _views(shm, descriptor: BlockDescriptor) -> dict:
    """Build the named array views over a mapped segment."""
    out = {}
    for name, dtype, shape, offset in descriptor.arrays:
        out[name] = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
        )
    return out


def _close_mapping(shm) -> None:
    """Close one mapping, tolerating exported-view refusals."""
    try:
        shm.close()
    except (OSError, BufferError):  # pragma: no cover - views still live
        pass


def attach_arrays(descriptor: BlockDescriptor, cache: bool = True) -> dict:
    """Zero-copy views of a block created by another process.

    With ``cache=True`` the mapping is kept open and reused for later
    attaches of the same segment (bootstrap shards and chunk folds hit
    the same block repeatedly); a small LRU closes old mappings.  With
    ``cache=False`` the mapping is tracked but never reused — workers
    call :func:`detach` once the one-shot views are dead.
    """
    key = descriptor.segment if cache else f"!{descriptor.segment}"
    if cache:
        with _ATTACH_LOCK:
            entry = _ATTACHED.get(key)
            if entry is not None:
                _ATTACHED.move_to_end(key)
                return entry[1]
    shm = _attach_segment(descriptor.segment)
    views = _views(shm, descriptor)
    evicted = []
    with _ATTACH_LOCK:
        _ATTACHED[key] = [shm, views, None]
        while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
            evicted.append(_ATTACHED.popitem(last=False)[1][0])
    for old in evicted:
        _close_mapping(old)
    return views


def detach(descriptor: BlockDescriptor) -> None:
    """Close this process's mapping of ``descriptor``'s segment.

    Views into the mapping must no longer be referenced.  Used by
    workers for one-shot chunk segments; cached mappings are evicted
    automatically.
    """
    with _ATTACH_LOCK:
        entries = [
            _ATTACHED.pop(key, None)
            for key in (descriptor.segment, f"!{descriptor.segment}")
        ]
    for entry in entries:
        if entry is not None:
            _close_mapping(entry[0])


def detach_all() -> None:
    """Close every cached attachment in this process (for tests)."""
    with _ATTACH_LOCK:
        entries = list(_ATTACHED.values())
        _ATTACHED.clear()
    for entry in entries:
        _close_mapping(entry[0])


# ---------------------------------------------------------------------------
# columnar packing: DatasetColumns <-> shared block


def _numeric(value) -> bool:
    """Whether a context value packs losslessly into a float64 cell."""
    return isinstance(value, (int, float, np.integer, np.floating)) and (
        not isinstance(value, bool)
    )


def _pack_context_rows(contexts, key_to_col: dict, n_keys: int):
    """Dense ``(N, C)`` value matrix + 1-based insertion-order map.

    The order map is what makes worker-side reconstruction *exact*:
    rebuilt dicts iterate in the original insertion order, so hashed
    featurization (whose per-slot sums depend on iteration order when
    names collide) is bit-identical to the parent's.
    """
    n = len(contexts)
    values = np.zeros((n, n_keys), dtype=np.float64)
    order = np.zeros((n, n_keys), dtype=np.int32)
    for row, context in enumerate(contexts):
        position = 0
        for key, value in context.items():
            if not _numeric(value):
                raise SharedMemoryUnsupported(
                    f"context value {key}={value!r} is not numeric"
                )
            column = key_to_col.get(key)
            if column is None:
                raise SharedMemoryUnsupported(
                    f"context key {key!r} missing from the packed vocabulary"
                )
            position += 1
            values[row, column] = float(value)
            order[row, column] = position
    return values, order


class PackedContexts(Sequence):
    """Lazy sequence view over contexts packed as dense matrices.

    Behaves like the tuple of context dicts a
    :class:`~repro.core.columns.DatasetColumns` normally holds, but
    each dict is rebuilt on demand from the shared ``(N, C)`` value
    matrix — the common batch paths (named feature matrices) never
    materialize a single dict.  Slicing returns another lazy view.
    """

    __slots__ = ("_values", "_order", "_keys")

    def __init__(self, values, order, keys) -> None:
        self._values = values
        self._order = order
        self._keys = keys

    def __len__(self) -> int:
        """Number of packed context rows."""
        return self._values.shape[0]

    def __getitem__(self, index):
        """One rebuilt context dict, or a lazy view for slices."""
        if isinstance(index, slice):
            return PackedContexts(
                self._values[index], self._order[index], self._keys
            )
        order_row = self._order[index]
        present = np.nonzero(order_row)[0]
        present = present[np.argsort(order_row[present], kind="stable")]
        values_row = self._values[index]
        return {
            self._keys[col]: float(values_row[col]) for col in present
        }


class SharedDatasetColumns(DatasetColumns):
    """A :class:`DatasetColumns` attached zero-copy to a shared block.

    Construction bypasses the per-row ``__init__`` entirely: every
    column is a view into the segment, contexts are a
    :class:`PackedContexts` lazy sequence, and :meth:`feature_matrix`
    gathers named features straight from the packed value matrix.
    Instances are what workers fold; they never own the segment.
    """

    def __getattr__(self, name: str):
        """Lazily derive ``eligible_lists`` from the mask on first use.

        Only the per-row loop fallbacks touch ``eligible_lists``; the
        batch paths use the mask, so attached views skip building the
        tuples until (unless) a loop path asks.
        """
        if name == "eligible_lists":
            if self.uniform_eligibility:
                lists = (self._shared_eligible,) * self.n
            else:
                lists = tuple(
                    tuple(int(a) for a in np.nonzero(row)[0])
                    for row in self.eligible_mask
                )
            self.eligible_lists = lists
            return lists
        raise AttributeError(name)

    def feature_matrix(self, feature_names) -> np.ndarray:
        """Named-feature matrix gathered from the packed value matrix.

        Bit-identical to the per-row dict loop: each cell is the same
        ``float(context.get(name, 0.0))`` the parent stored at pack
        time, and absent names (or names outside the vocabulary) are
        exactly ``0.0``.
        """
        key = tuple(feature_names)
        cached = self._feature_matrices.get(key)
        if cached is None:
            packed: PackedContexts = self.contexts
            cached = np.empty((self.n, len(key) + 1))
            for col, name in enumerate(key):
                index = self._ctx_key_index.get(name)
                if index is None:
                    cached[:, col] = 0.0
                else:
                    values = packed._values[:, index]
                    present = packed._order[:, index] > 0
                    cached[:, col] = np.where(present, values, 0.0)
            cached[:, -1] = 1.0
            self._feature_matrices[key] = cached
        return cached


def _eligibility_payload(columns: DatasetColumns):
    """Split eligibility into ``(shared_tuple, mask_arrays)`` for packing.

    Uniform logs ship one tuple in the descriptor (order preserved
    verbatim, so non-canonical-but-uniform orders stay exact); per-row
    logs ship the boolean mask, which only reconstructs sorted eligible
    lists — exact iff the order was canonical, hence the gate.
    """
    if columns.uniform_eligibility:
        shared = columns.eligible_lists[0] if columns.n else (0,)
        return tuple(int(a) for a in shared), {}
    if not columns.canonical_order:
        raise SharedMemoryUnsupported(
            "per-row eligibility in non-canonical order cannot be packed"
        )
    return None, {
        "eligible_mask": columns.eligible_mask,
        "eligible_counts": columns.eligible_counts,
    }


def pack_columns(columns: DatasetColumns) -> SharedArrayBlock:
    """Pack a whole columnar view into one shared segment.

    Raises :class:`SharedMemoryUnsupported` when the view cannot be
    represented (non-numeric context values, oversized vocabulary,
    non-canonical per-row eligibility) — callers fall back to the
    legacy pickled paths, which remain bit-identical.
    """
    keys = sorted({key for context in columns.contexts for key in context})
    if len(keys) > MAX_CONTEXT_KEYS:
        raise SharedMemoryUnsupported(
            f"{len(keys)} context keys exceed MAX_CONTEXT_KEYS"
        )
    key_to_col = {key: col for col, key in enumerate(keys)}
    values, order = _pack_context_rows(columns.contexts, key_to_col, len(keys))
    shared_eligible, mask_arrays = _eligibility_payload(columns)
    arrays = OrderedDict(
        actions=columns.actions,
        rewards=columns.rewards,
        propensities=columns.propensities,
        timestamps=columns.timestamps,
        ctx_values=values,
        ctx_order=order,
    )
    arrays.update(mask_arrays)
    reward_range = columns.reward_range
    meta = {
        "n": columns.n,
        "n_actions": columns.n_actions,
        "ctx_keys": tuple(keys),
        "eligible_shared": shared_eligible,
        "canonical_order": columns.canonical_order,
        "reward_range": (
            None
            if reward_range is None
            else (reward_range.low, reward_range.high, reward_range.maximize)
        ),
    }
    return SharedArrayBlock.create(arrays, meta)


def pack_chunk(
    chunk,
    key_to_col: dict,
    eligible_shared: tuple,
    n_actions: int,
) -> SharedArrayBlock:
    """Pack one chunk of parsed log rows straight into a segment.

    The JSONL driver's path: ``chunk`` is a
    :class:`~repro.core.codec.RowBlock` of the log reader's columns,
    and no ``Dataset`` or ``DatasetColumns`` is built parent-side.  ``key_to_col`` comes from
    the discovery pass's global vocabulary and ``eligible_shared`` from
    the pinned action space, so worker-side views agree with the
    whole-log reconstruction exactly.  The context vocabulary itself
    rides in the once-pickled job blob, not in each descriptor.
    """
    n = chunk.n
    values, order = _pack_context_rows(
        chunk.contexts, key_to_col, len(key_to_col)
    )
    meta = {
        "n": n,
        "n_actions": int(n_actions),
        "ctx_keys": None,  # shipped once via the job blob
        "eligible_shared": tuple(int(a) for a in eligible_shared),
        "canonical_order": all(
            a < b for a, b in zip(eligible_shared, eligible_shared[1:])
        ),
        "reward_range": None,  # shipped once via the job blob
    }
    return SharedArrayBlock.create(
        OrderedDict(
            actions=chunk.actions,
            rewards=chunk.rewards,
            propensities=chunk.propensities,
            timestamps=chunk.timestamps,
            ctx_values=values,
            ctx_order=order,
        ),
        meta,
    )


def attach_columns(
    descriptor: BlockDescriptor,
    *,
    vocab: Optional[tuple] = None,
    reward_range: Optional[RewardRange] = None,
    cache: bool = True,
) -> SharedDatasetColumns:
    """Rebuild a :class:`SharedDatasetColumns` view over a shared block.

    ``vocab``/``reward_range`` override the descriptor's meta for chunk
    blocks, whose vocabulary travels once in the job blob.  With
    ``cache=True`` both the mapping *and* the built view (with its
    memoized feature matrices) are reused across tasks that reference
    the same segment — attach-once-per-worker is what makes pool reuse
    cheap.
    """
    if cache:
        with _ATTACH_LOCK:
            entry = _ATTACHED.get(descriptor.segment)
            if entry is not None and entry[2] is not None:
                _ATTACHED.move_to_end(descriptor.segment)
                return entry[2]
    views = attach_arrays(descriptor, cache=cache)
    meta = descriptor.meta_dict()
    keys = vocab if vocab is not None else meta.get("ctx_keys") or ()
    if reward_range is None and meta.get("reward_range") is not None:
        low, high, maximize = meta["reward_range"]
        reward_range = RewardRange(low, high, maximize)
    columns = _build_columns(views, meta, tuple(keys), reward_range)
    if cache:
        with _ATTACH_LOCK:
            entry = _ATTACHED.get(descriptor.segment)
            if entry is not None:
                entry[2] = columns
    return columns


def _build_columns(
    views: dict, meta: dict, keys: tuple, reward_range
) -> SharedDatasetColumns:
    """Assemble the attached view object from mapped arrays + meta."""
    n = int(meta["n"])
    n_actions = int(meta["n_actions"])
    shared_eligible = meta.get("eligible_shared")
    columns = SharedDatasetColumns.__new__(SharedDatasetColumns)
    columns.n = n
    columns.n_actions = n_actions
    columns.contexts = PackedContexts(
        views["ctx_values"], views["ctx_order"], keys
    )
    columns._ctx_key_index = {key: col for col, key in enumerate(keys)}
    if shared_eligible is not None:
        mask = np.zeros((n, n_actions), dtype=bool)
        if n:
            mask[:, list(shared_eligible)] = True
        columns.eligible_mask = mask
        columns.eligible_counts = mask.sum(axis=1).astype(float)
        columns.uniform_eligibility = True
        columns._shared_eligible = tuple(shared_eligible)
    else:
        columns.eligible_mask = views["eligible_mask"]
        columns.eligible_counts = views["eligible_counts"]
        columns.uniform_eligibility = False
        columns._shared_eligible = None
    columns.canonical_order = bool(meta["canonical_order"])
    columns._row_index = np.arange(n)
    columns._feature_matrices = {}
    columns._hashed_matrices = {}
    columns.actions = views["actions"]
    columns.rewards = views["rewards"]
    columns.propensities = views["propensities"]
    columns.timestamps = views["timestamps"]
    columns.action_space = None
    columns.reward_range = reward_range
    columns._observed_actions = None
    columns._identity_error = None
    columns._shared_block = None
    columns._ips_weight_cache = {}
    columns._default_model = None
    return columns
