"""Audit-grade RNG streams: HKDF-SHA256 derivation from one master seed.

The old scheme (``RandomSource.child``) mixed the parent seed with a
CRC32 of the child name — fast, but CRC32 is a 32-bit linear code with
*findable* collisions (``crc32(b"plumless") == crc32(b"buckeroo")``),
so two differently-named streams could silently share a seed and the
"independent draws" assumption behind every propensity would be wrong
with no way to notice.  This module replaces it with the scheme from
Adventorator's ADR-0008:

- one **master seed** per run (any int; 128 bits of key material);
- per-stream seeds derived with **HKDF-SHA256** (RFC 5869) over a
  length-prefixed info string ``(protocol, scenario, component,
  stream) + ordinal`` — collision resistance inherited from SHA-256,
  and unambiguous: no concatenation of segment names can alias
  another (``("a.b",)`` ≠ ``("a", "b")``);
- the **ordinal** ties a derivation to a position in the decision
  ledger: rows ``[k·S, (k+1)·S)`` of a harvest draw from the
  generator derived at ordinal ``k·S`` (*S* = shard size), so any
  shard regenerates bit-identically in isolation from
  ``(master seed, stream key, start ordinal)`` — fork equivalence,
  with no coordinated RNG state between distributed harvesters.

:class:`StreamRegistry` is the façade: it owns the master seed, hands
out derived generators, and records every derivation so a run manifest
can prove provenance end to end.  :class:`StreamRNG` adapts a stream
to the batch harvest engine (:func:`repro.core.harvest.harvest_columns`),
splitting batches at shard boundaries so the harvested log is
bit-identical for any batch size *and* re-derivable per shard.
"""

from __future__ import annotations

import hashlib
import hmac
import re
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "PROTOCOL",
    "ShardedNormal",
    "StreamKey",
    "StreamRegistry",
    "StreamRNG",
    "derive_generator",
    "derive_key_bytes",
    "derive_seed",
    "encode_segments",
    "hkdf_sha256",
    "master_key_bytes",
]

#: Protocol tag folded into every derivation (bump on scheme changes).
PROTOCOL = "REPRO1"

#: Default rows per derivation shard in :class:`StreamRNG`.
DEFAULT_SHARD_SIZE = 8192

#: Domain-separation salt for stream derivations.
_STREAM_SALT = b"repro.audit.streams"

_HASH_LEN = hashlib.sha256().digest_size

#: Legal characters for a stream-key segment — keeps the canonical
#: ``scenario/component/stream#ordinal`` form parseable and the ledger
#: message format (``|``-joined) unambiguous.
_SEGMENT_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def hkdf_sha256(
    key_material: bytes,
    info: bytes,
    salt: bytes = b"",
    length: int = 32,
) -> bytes:
    """RFC 5869 HKDF-SHA256 (extract-then-expand), stdlib only.

    ``key_material`` is the input keying material (here: the master
    seed), ``info`` the context string that separates streams, and
    ``salt`` an optional domain separator.  Returns ``length`` bytes of
    output keying material.
    """
    if not 0 < length <= 255 * _HASH_LEN:
        raise ValueError(f"length must be in [1, {255 * _HASH_LEN}], got {length}")
    pseudo_random_key = hmac.new(
        salt or b"\x00" * _HASH_LEN, key_material, hashlib.sha256
    ).digest()
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac.new(
            pseudo_random_key, block + info + bytes([counter]), hashlib.sha256
        ).digest()
        output += block
        counter += 1
    return output[:length]


def encode_segments(segments: Iterable[str]) -> bytes:
    """Length-prefixed UTF-8 encoding of name segments.

    The prefix makes concatenation injective: ``("a.b",)`` and
    ``("a", "b")`` encode to different byte strings, so no pair of
    distinct key paths can alias the same derivation info.
    """
    out = bytearray()
    for segment in segments:
        raw = str(segment).encode("utf-8")
        out += len(raw).to_bytes(4, "big")
        out += raw
    return bytes(out)


def master_key_bytes(master_seed: int) -> bytes:
    """The 128-bit key material a master seed contributes to HKDF."""
    return (int(master_seed) % (1 << 128)).to_bytes(16, "big")


@dataclass(frozen=True)
class StreamKey:
    """Identity of one randomness stream: who draws, and where.

    ``scenario`` names the workload (``machinehealth`` …),
    ``component`` the subsystem (``harvest``, ``workload``, ``chaos``),
    ``stream`` the purpose (``decisions``, ``latency-noise``), and
    ``ordinal`` the position in the decision ledger the derivation is
    anchored at (0 for whole-stream derivations; a shard's start row
    for sharded harvests).
    """

    scenario: str
    component: str
    stream: str
    ordinal: int = 0

    def __post_init__(self) -> None:
        for label, segment in (
            ("scenario", self.scenario),
            ("component", self.component),
            ("stream", self.stream),
        ):
            if not _SEGMENT_RE.match(segment):
                raise ValueError(
                    f"stream-key {label} {segment!r} must match "
                    f"{_SEGMENT_RE.pattern}"
                )
        if self.ordinal < 0:
            raise ValueError(f"ordinal must be non-negative, got {self.ordinal}")

    @property
    def segments(self) -> Tuple[str, str, str]:
        """The three name segments, without the ordinal."""
        return (self.scenario, self.component, self.stream)

    def info(self) -> bytes:
        """The HKDF info string: length-prefixed segments + ordinal."""
        return encode_segments((PROTOCOL,) + self.segments) + int(
            self.ordinal
        ).to_bytes(8, "big")

    def canonical(self) -> str:
        """``scenario/component/stream#ordinal`` — the ledgered form."""
        return f"{self.scenario}/{self.component}/{self.stream}#{self.ordinal}"

    @property
    def name(self) -> str:
        """``scenario/component/stream`` — the stream identity, no ordinal."""
        return f"{self.scenario}/{self.component}/{self.stream}"

    @classmethod
    def parse(cls, text: str) -> "StreamKey":
        """Inverse of :meth:`canonical` (ordinal defaults to 0)."""
        body, _, ordinal = text.partition("#")
        parts = body.split("/")
        if len(parts) != 3:
            raise ValueError(
                f"stream key {text!r} is not scenario/component/stream[#ordinal]"
            )
        return cls(parts[0], parts[1], parts[2], int(ordinal) if ordinal else 0)

    def with_ordinal(self, ordinal: int) -> "StreamKey":
        """The same stream anchored at a different ledger ordinal."""
        return replace(self, ordinal=int(ordinal))


def derive_key_bytes(
    master_seed: int, key: StreamKey, length: int = 32
) -> bytes:
    """``length`` bytes of keying material for one stream derivation."""
    return hkdf_sha256(
        master_key_bytes(master_seed),
        info=key.info(),
        salt=_STREAM_SALT,
        length=length,
    )


def derive_seed(master_seed: int, key: StreamKey) -> int:
    """The 256-bit integer seed of one stream derivation."""
    return int.from_bytes(derive_key_bytes(master_seed, key), "big")


def derive_generator(master_seed: int, key: StreamKey) -> np.random.Generator:
    """A fresh, independent generator for ``key`` under ``master_seed``."""
    return np.random.default_rng(
        np.random.SeedSequence(derive_seed(master_seed, key))
    )


def derive_child_seed(parent_seed: int, name: str) -> int:
    """63-bit child seed for :meth:`repro.simsys.random_source.RandomSource.child`.

    HKDF over the parent seed with the (length-prefixed) child name as
    info — the drop-in replacement for the CRC32 mix, collision-
    resistant across sibling and nested names.  63 bits keeps the
    legacy integer-seed API intact.  The parent seed is reduced to 128
    bits exactly like :func:`master_key_bytes` (two's-complement
    compatible, so negative seeds keep their original encoding), which
    accepts arbitrarily large ints just as the legacy CRC32 mix did.
    """
    material = hkdf_sha256(
        master_key_bytes(parent_seed),
        info=encode_segments((PROTOCOL, "random-source", name)),
        salt=b"repro.simsys.random_source",
        length=8,
    )
    return int.from_bytes(material, "big") % (1 << 63)


def _fingerprint(data: bytes) -> str:
    """Short (64-bit hex) identification digest for manifests."""
    return hashlib.sha256(data).hexdigest()[:16]


class StreamRegistry:
    """One master seed, every derived stream, and the derivation log.

    The registry is the provenance authority of a run: everything
    random derives from its master seed through :meth:`generator` /
    :meth:`derive`, and every derivation is recorded (stream key,
    derived-seed fingerprint) so the run manifest can list exactly
    which streams were consumed.  The master seed itself never appears
    in the log — only its fingerprint — so a published manifest does
    not hand out the ability to forge the run's randomness.
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._derivations: list[dict] = []
        self._seen: set[str] = set()

    @property
    def master_fingerprint(self) -> str:
        """64-bit hex fingerprint of the master key material."""
        return _fingerprint(master_key_bytes(self.master_seed))

    def generator(self, key: StreamKey) -> np.random.Generator:
        """Derive (and record) the generator for ``key``.

        The same generator :func:`derive_generator` returns, from one
        derivation of the key bytes that also give the fingerprint.
        """
        material = derive_key_bytes(self.master_seed, key)
        canonical = key.canonical()
        if canonical not in self._seen:
            self._seen.add(canonical)
            self._derivations.append(
                {"key": canonical, "seed_fingerprint": _fingerprint(material)}
            )
        return np.random.default_rng(
            np.random.SeedSequence(int.from_bytes(material, "big"))
        )

    def derive(
        self, scenario: str, component: str, stream: str, ordinal: int = 0
    ) -> np.random.Generator:
        """Convenience: :meth:`generator` from bare key parts."""
        return self.generator(StreamKey(scenario, component, stream, ordinal))

    def stream(
        self,
        scenario: str,
        component: str,
        stream: str,
        shard_size: int = DEFAULT_SHARD_SIZE,
        start_ordinal: int = 0,
    ) -> "StreamRNG":
        """A sharded harvest stream (see :class:`StreamRNG`)."""
        return StreamRNG(
            self,
            StreamKey(scenario, component, stream),
            shard_size=shard_size,
            start_ordinal=start_ordinal,
        )

    def derivations(self) -> list[dict]:
        """The derivation log (one entry per distinct stream key)."""
        return [dict(entry) for entry in self._derivations]

    def manifest_entry(self) -> dict:
        """Manifest section: master fingerprint + derivation log."""
        return {
            "protocol": PROTOCOL,
            "master_fingerprint": self.master_fingerprint,
            "derivations": self.derivations(),
        }

    def __repr__(self) -> str:
        return (
            f"StreamRegistry(master_fingerprint={self.master_fingerprint!r}, "
            f"derivations={len(self._derivations)})"
        )


class StreamRNG:
    """Shard-deterministic generator supply for the harvest engine.

    Row ``i`` of a harvest draws from the generator derived at ordinal
    ``(i // shard_size) * shard_size`` — one derivation per
    ``shard_size`` rows, consumed strictly in row order within the
    shard.  :meth:`segments` splits a batch ``[start, stop)`` at shard
    boundaries, so :func:`repro.core.harvest.harvest_columns` keeps its
    determinism contract (bit-identical output for any batch size)
    *and* any shard regenerates in isolation: derive the same stream at
    the shard's start ordinal and replay its rows.

    ``start_ordinal`` offsets local row indices into ledger ordinals —
    that is exactly the fork-equivalence hook: to regenerate rows
    ``[k·S, (k+1)·S)`` of a log, harvest the same contexts slice with
    ``StreamRNG(registry, key, shard_size=S, start_ordinal=k·S)``.
    Must be shard-aligned, because a generator's state mid-shard is not
    derivable without replaying the shard prefix.
    """

    def __init__(
        self,
        registry: StreamRegistry,
        key: StreamKey,
        shard_size: int = DEFAULT_SHARD_SIZE,
        start_ordinal: int = 0,
    ) -> None:
        if shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        if start_ordinal % shard_size != 0:
            raise ValueError(
                f"start_ordinal {start_ordinal} is not aligned to "
                f"shard_size {shard_size}"
            )
        self.registry = registry
        self.key = key.with_ordinal(0)
        self.shard_size = int(shard_size)
        self.start_ordinal = int(start_ordinal)
        self._current_shard: Optional[int] = None
        self._current_generator: Optional[np.random.Generator] = None

    def generator_for_row(self, row: int) -> np.random.Generator:
        """The (cached) generator of the shard containing local ``row``.

        Rows must be visited in non-decreasing order: moving backwards
        would need a fresh derivation mid-stream and silently fork the
        draw sequence, so it raises instead.
        """
        ordinal = self.start_ordinal + int(row)
        shard = ordinal // self.shard_size
        if self._current_shard is not None and shard < self._current_shard:
            raise ValueError(
                f"stream rows must be consumed in order: row {row} is in "
                f"shard {shard}, already past shard {self._current_shard}"
            )
        if shard != self._current_shard:
            self._current_shard = shard
            self._current_generator = self.registry.generator(
                self.key.with_ordinal(shard * self.shard_size)
            )
        assert self._current_generator is not None
        return self._current_generator

    def segments(
        self, start: int, stop: int
    ) -> Iterator[Tuple[int, int, np.random.Generator]]:
        """Split local rows ``[start, stop)`` at shard boundaries.

        Yields ``(seg_start, seg_stop, generator)`` with each segment
        fully inside one shard; consecutive segments of the same shard
        share the same generator instance (state carries over).
        """
        if start < 0 or stop < start:
            raise ValueError(f"bad segment range [{start}, {stop})")
        while start < stop:
            ordinal = self.start_ordinal + start
            shard_end = (ordinal // self.shard_size + 1) * self.shard_size
            seg_stop = min(stop, start + (shard_end - ordinal))
            yield start, seg_stop, self.generator_for_row(start)
            start = seg_stop

    def manifest_entry(self) -> dict:
        """Manifest section describing this stream's derivation scheme."""
        return {
            "key": self.key.name,
            "shard_size": self.shard_size,
            "start_ordinal": self.start_ordinal,
            "master_fingerprint": self.registry.master_fingerprint,
        }

    def __repr__(self) -> str:
        return (
            f"StreamRNG(key={self.key.name!r}, shard_size={self.shard_size}, "
            f"start_ordinal={self.start_ordinal})"
        )


class ShardedNormal:
    """Random-access Gaussian noise keyed by global row, derived per shard.

    :class:`StreamRNG` is forward-only — the right shape for decision
    sampling, which consumes draws strictly in row order.  Auxiliary
    noise (e.g. the loadbalance latency jitter) needs the opposite
    access pattern: *value of row i*, addressable from any shard
    without replaying a prefix.  ``ShardedNormal`` gives each global
    row a fixed value: shard ``k`` (rows ``[k·S, (k+1)·S)``) is one
    ``normal(loc, scale, size=S)`` draw from the generator derived at
    ordinal ``k·S``, memoized on first touch.  Row values therefore
    depend only on ``(master seed, stream key, shard_size)`` — not on
    batch grid or access order — so a harvest and any re-derivation of
    one shard in isolation see bit-identical noise, and touching rows
    ``[k·S, (k+1)·S)`` derives exactly that one shard.
    """

    def __init__(
        self,
        registry: StreamRegistry,
        key: StreamKey,
        shard_size: int = DEFAULT_SHARD_SIZE,
        loc: float = 0.0,
        scale: float = 1.0,
    ) -> None:
        if shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        if scale < 0:
            raise ValueError(f"scale must be non-negative, got {scale}")
        self.registry = registry
        self.key = key.with_ordinal(0)
        self.shard_size = int(shard_size)
        self.loc = float(loc)
        self.scale = float(scale)
        self._shards: dict[int, np.ndarray] = {}

    def _shard_values(self, shard: int) -> np.ndarray:
        cached = self._shards.get(shard)
        if cached is None:
            generator = self.registry.generator(
                self.key.with_ordinal(shard * self.shard_size)
            )
            cached = generator.normal(self.loc, self.scale, size=self.shard_size)
            self._shards[shard] = cached
        return cached

    def values(self, rows) -> np.ndarray:
        """The noise values of ``rows`` (global row indices, any order)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and int(rows.min()) < 0:
            raise ValueError("row indices must be non-negative")
        out = np.empty(rows.shape, dtype=np.float64)
        from repro.core.columns import distinct_actions

        shards = rows // self.shard_size
        for shard in distinct_actions(shards).tolist():
            mask = shards == shard
            out[mask] = self._shard_values(shard)[
                rows[mask] - shard * self.shard_size
            ]
        return out

    def manifest_entry(self) -> dict:
        """Manifest section describing this noise stream's derivation."""
        return {
            "key": self.key.name,
            "shard_size": self.shard_size,
            "loc": self.loc,
            "scale": self.scale,
            "master_fingerprint": self.registry.master_fingerprint,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedNormal(key={self.key.name!r}, shard_size={self.shard_size}, "
            f"loc={self.loc}, scale={self.scale})"
        )
