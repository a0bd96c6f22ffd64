"""Property-based tests: the log codec is exact.

The codec memoizes each distinct context's digest and JSON text and
writes lines from a fixed template; these properties pin both to the
per-record references, ``context_digest`` and ``json.dumps``, over
contexts built to defeat a careless memo key: signed zeros, ints next
to equal floats and bools, subnormals, ints beyond 2**53, and keys
that need JSON escapes.
"""

import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.ledger import DecisionLedger, context_digest
from repro.core.codec import ContextTable, write_columns, write_interactions
from repro.core.types import Interaction

keys = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=0,
    max_size=8,
) | st.sampled_from(['"', "\\", "\n", "é", "ключ", " ", "a/b"])

values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308]),
    st.integers(-(2**63), 2**63),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1]),
    st.booleans(),
)

contexts = st.dictionaries(keys, values, max_size=5)

#: Members of one class compare and hash equal but must not share a
#: memo entry: their digests or JSON texts differ.
COLLIDING = (
    [{"x": 0.0}, {"x": -0.0}],
    [{"x": 1}, {"x": 1.0}, {"x": True}],
    [{"x": 0}, {"x": 0.0}, {"x": False}, {"x": -0.0}],
)

stamps = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0]),
)

ledger_blocks = st.fixed_dictionaries(
    {
        "v": st.just(1),
        "stream": st.sampled_from(["mh/harvest/decisions", 'q"uote']),
        "ordinal": st.integers(0, 2**40),
        "prev": st.sampled_from(["0" * 64, "ab" * 32, "not hex!"]),
        "context_sha": st.sampled_from(["f" * 32, "é" * 4]),
        "hash": st.sampled_from(["1" * 64]),
    }
)

metadata = st.one_of(
    st.just({}),
    st.builds(lambda block: {"ledger": block}, ledger_blocks),
    st.dictionaries(st.sampled_from(["note", "ledger", "x"]),
                    st.integers(0, 3), max_size=2),
)


@st.composite
def interactions(draw):
    return Interaction(
        context=draw(contexts),
        action=draw(st.integers(0, 2**60)),
        reward=draw(st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-5, 5),
        )),
        propensity=draw(st.one_of(
            st.floats(min_value=5e-324, max_value=1.0),
            st.just(1),
        )),
        timestamp=draw(stamps),
        full_rewards=draw(st.one_of(
            st.none(), st.lists(st.floats(-10, 10), max_size=3),
        )),
        metadata=draw(metadata),
    )


def reference_lines(rows) -> str:
    return "".join(json.dumps(row.to_dict()) + "\n" for row in rows)


class TestContextTable:
    @given(st.lists(contexts, max_size=12), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_memoized_digests_and_texts_equal_the_references(
        self, drawn, random
    ):
        # Repeats (same object and equal copies) exercise hits; the
        # colliding classes are shuffled in so either member comes first.
        rows = drawn + [dict(c) for c in drawn]
        for members in COLLIDING:
            rows.extend(dict(member) for member in members)
        random.shuffle(rows)
        table = ContextTable()
        assert table.digests(rows) == [context_digest(c) for c in rows]
        assert table.texts(rows) == [json.dumps(c) for c in rows]

    def test_colliding_contexts_in_both_orders(self):
        for members in COLLIDING:
            for order in (members, members[::-1]):
                table = ContextTable()
                for context in order * 2:
                    assert table.digest(context) == context_digest(context)
                    assert table.texts([context]) == [json.dumps(context)]

    def test_cap_bounds_the_memo(self):
        table = ContextTable(cap=4)
        rows = [{"x": float(i)} for i in range(10)] * 2
        assert table.digests(rows) == [context_digest(c) for c in rows]
        assert len(table) == 4
        assert table.hits == 4


class TestEncoder:
    @given(st.lists(interactions(), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_interaction_lines_equal_json_dumps(self, rows):
        handle = io.StringIO()
        write_interactions(handle, rows)
        assert handle.getvalue() == reference_lines(rows)

    @given(
        st.lists(
            st.tuples(
                contexts,
                st.integers(0, 9),
                st.one_of(stamps, st.floats(-1e6, 1e6)),
                st.floats(min_value=1e-6, max_value=1.0),
                stamps,
            ),
            max_size=10,
        ),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_column_lines_equal_json_dumps(self, rows, sealed):
        columns = list(zip(*rows)) if rows else [[], [], [], [], []]
        ctxs, actions, rewards, props, stamps_ = columns
        ledger = None
        if sealed:
            ledger = DecisionLedger("s/c/decisions", genesis="ab" * 32)
            ledger.extend_batch(list(ctxs), np.array(actions, dtype=np.int64),
                                np.array(props, dtype=np.float64))
        handle = io.StringIO()
        write_columns(
            handle, ContextTable(), list(ctxs), actions, rewards, props,
            stamps_, ledger.sealed() if ledger is not None else None,
        )
        expected = []
        entries = ledger.entries() if ledger is not None else [None] * len(rows)
        for (ctx, action, reward, prop, stamp), entry in zip(rows, entries):
            record = {
                "context": dict(ctx),
                "action": action,
                "reward": float(reward),
                "propensity": prop,
                "timestamp": float(stamp),
            }
            if entry is not None:
                record["metadata"] = {"ledger": entry.to_metadata()}
            expected.append(json.dumps(record) + "\n")
        assert handle.getvalue() == "".join(expected)
