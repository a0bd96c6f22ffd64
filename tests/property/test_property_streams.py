"""Property-based tests for audit stream derivation.

The property the HKDF scheme buys over the legacy CRC32 mix: derived
keys are collision-free in practice for *any* pair of distinct stream
identities, not just the ones we happen to use.  The CRC32 mix fails
this concretely — ``crc32(b"plumless") == crc32(b"buckeroo")`` — so
under it two siblings with those names shared one RNG stream (the
mix is gone; ``docs/adr-0001-rng-streams.md`` records why).
"""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.ledger import context_digest, entry_hash
from repro.audit.streams import (
    StreamKey,
    derive_child_seed,
    derive_key_bytes,
    encode_segments,
)
from repro.simsys.random_source import RandomSource

segment = st.from_regex(r"[A-Za-z0-9._-]{1,12}", fullmatch=True)
ordinal = st.integers(min_value=0, max_value=2**40)
key = st.builds(StreamKey, segment, segment, segment, ordinal)


class TestDerivationInjectivity:
    @given(key, key)
    @settings(max_examples=200, deadline=None)
    def test_distinct_keys_distinct_bytes(self, a, b):
        if a == b:
            assert derive_key_bytes(7, a) == derive_key_bytes(7, b)
        else:
            assert derive_key_bytes(7, a) != derive_key_bytes(7, b)

    @given(st.lists(segment, min_size=1, max_size=4),
           st.lists(segment, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_encode_segments_injective(self, a, b):
        if tuple(a) != tuple(b):
            assert encode_segments(tuple(a)) != encode_segments(tuple(b))

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1),
           segment, segment)
    @settings(max_examples=200, deadline=None)
    def test_sibling_children_never_collide(self, seed, name_a, name_b):
        if name_a != name_b:
            assert derive_child_seed(seed, name_a) != derive_child_seed(
                seed, name_b
            )

    @given(st.integers(min_value=0, max_value=2**63 - 1), segment, segment)
    @settings(max_examples=100, deadline=None)
    def test_nested_paths_never_collide(self, seed, a, b):
        # Two-step derivation child(child(root, a), b) and one-step
        # child(root, "a.b") are distinct paths — the dotted name is a
        # single segment, not a traversal — so their seeds must differ.
        root = RandomSource(seed)
        nested = root.child(a).child(b)
        flat = root.child(f"{a}.{b}")
        assert nested.seed != flat.seed


class TestLegacyCollisionWitness:
    def test_crc32_collides_on_known_pair(self):
        assert zlib.crc32(b"plumless") == zlib.crc32(b"buckeroo")

    def test_hkdf_derivation_separates_them(self):
        root = RandomSource(42)
        assert root.child("plumless").seed != root.child("buckeroo").seed

    @given(st.integers(min_value=0, max_value=2**62))
    @settings(max_examples=50, deadline=None)
    def test_hkdf_separates_for_every_parent_seed(self, seed):
        root = RandomSource(seed)
        assert root.child("plumless").seed != root.child("buckeroo").seed


class TestLedgerCanonicality:
    @given(st.dictionaries(
        st.from_regex(r"[a-z_]{1,8}", fullmatch=True),
        st.floats(allow_nan=False, allow_infinity=False),
        max_size=6,
    ))
    @settings(max_examples=200, deadline=None)
    def test_context_digest_order_invariant(self, context):
        shuffled = dict(reversed(list(context.items())))
        assert context_digest(context) == context_digest(shuffled)

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_entry_hash_separates_propensities(self, p, q):
        a = entry_hash("0" * 64, "s", 0, "c" * 32, 0, p)
        b = entry_hash("0" * 64, "s", 0, "c" * 32, 0, q)
        assert (a == b) == (p == q)
