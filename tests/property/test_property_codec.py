"""Property-based tests: the log codec is exact.

The codec memoizes each distinct context's digest and JSON text and
writes lines from a fixed template; these properties pin both to the
per-record references, ``context_digest`` and ``json.dumps``, over
contexts built to defeat a careless memo key: signed zeros, ints next
to equal floats and bools, subnormals, ints beyond 2**53, and keys
that need JSON escapes.  The readers parse by the same template; the
read-side properties pin :class:`~repro.core.codec.LogReader` to
``validated_interactions`` and :func:`~repro.core.codec.checked_lines`
to ``_binding_issues``, both over ``json.loads``, on written logs with
lines rewritten to defeat a careless pattern.
"""

import io
import json
import os
import re
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.audit.ledger import (
    ChainFollower,
    DecisionLedger,
    _binding_issues,
    context_digest,
)
from repro.core.codec import (
    ContextKeys,
    ContextTable,
    LogReader,
    checked_lines,
    write_columns,
    write_interactions,
)
from repro.core.types import ActionSpace, Interaction, RewardRange
from repro.core.validation import (
    MODES,
    Quarantine,
    RecordValidator,
    validated_interactions,
)

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
        digests = [context_digest(c) for c in rows]
        texts = [json.dumps(c) for c in rows]
        table = ContextTable()
        keys = ContextKeys()
        ids = keys.ids(rows)
        assert table.digests(keys.contexts, ids) == digests
        assert table.texts(keys.contexts, ids) == texts
        # The same rows as a source of their own: each row its own id.
        source = tuple(rows)
        given_ids = np.arange(len(rows))
        assert table.digests(source, given_ids) == digests
        assert table.texts(source, given_ids) == texts

    def test_colliding_contexts_in_both_orders(self):
        for members in COLLIDING:
            for order in (members, members[::-1]):
                table = ContextTable()
                keys = ContextKeys()
                for context in order * 2:
                    ids = keys.ids([context])
                    assert table.digests(keys.contexts, ids) == [
                        context_digest(context)
                    ]
                    assert table.texts(keys.contexts, ids) == [
                        json.dumps(context)
                    ]

    def test_cap_bounds_the_memo(self):
        table = ContextTable(cap=4)
        rows = [{"x": float(i)} for i in range(10)] * 2
        source, ids = tuple(rows[:10]), np.arange(20) % 10
        assert table.digests(source, ids) == [context_digest(c) for c in rows]
        # Four contexts are kept; the other six are computed once in the
        # call, and their repeats hit nothing kept.
        assert len(table) == 4
        assert table.hits == 20 - 10
        assert table.texts(source, ids) == [json.dumps(c) for c in rows]
        assert len(table) == 4  # the texts of the four kept contexts
        assert table.digests(source, ids[:10]) == [
            context_digest(c) for c in rows[:10]
        ]
        assert table.hits == 10 + 10 + 4
        # A source first seen past the cap is not kept either.
        other = tuple({"y": float(i)} for i in range(3))
        assert table.texts(other, [0, 1, 2]) == [json.dumps(c) for c in other]
        assert len(table) == 4

    def test_keys_group_by_value_under_the_cap(self):
        keys = ContextKeys(cap=4)
        rows = [{"x": float(i)} for i in range(10)] * 2
        ids = keys.ids(rows)
        assert [keys.contexts[i] for i in ids.tolist()] == rows
        # Four contexts are keyed; every other row gets an id of its own.
        assert len(keys.contexts) == 4 + 12

    def test_text_entries_parse_each_text_once_under_the_cap(self):
        table = ContextTable(cap=2)
        texts = ['{"x": 1.0}', '{"x": 1.0}', '{"y": 2}', '{"z": -0.0}',
                 '{"z": -0.0}']
        entries = [table.text_entry(text) for text in texts]
        assert [json.dumps(entry[1]) for entry in entries] == texts
        assert entries[0] is entries[1]
        assert entries[3] is not entries[4]  # past the cap: parsed again
        assert (len(table), table.hits) == (2, 1)
        for text in ('{"s": "a"}', '{"n": null}', '{"d": {"e": 1.0}}',
                     '{"x": 1.0', "{}}", "[1.0]"):
            assert table.text_entry(text) is None


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
        ledger = sealed_rows = None
        if sealed:
            ledger = DecisionLedger("s/c/decisions", genesis="ab" * 32)
            ledger.extend_batch(list(ctxs), np.array(actions, dtype=np.int64),
                                np.array(props, dtype=np.float64))
            sealed_rows = ledger.seal()
        handle = io.StringIO()
        keys = ContextKeys()
        ids = keys.ids(list(ctxs))
        write_columns(
            handle, ContextTable(), keys.contexts, ids, actions, rewards,
            props, stamps_, sealed_rows,
        )
        expected = []
        entries = (
            sealed_rows.entries() if ledger is not None else [None] * len(rows)
        )
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


# -- read side ----------------------------------------------------------------


def _member(name: str, value: str):
    """Replace the first number of member ``name`` with ``value``."""
    pattern = re.compile(rf'("{name}": ?)(-?[0-9][0-9.eE+-]*|NaN|-?Infinity)')
    return lambda line: pattern.sub(lambda m: m.group(1) + value, line, 1)


def _escape_first(name: str):
    """``\\u``-escape the first character of string member ``name``: the
    same value, spelled with a backslash."""
    pattern = re.compile(rf'("{name}": ")([^"\\])')
    return lambda line: pattern.sub(
        lambda m: m.group(1) + "\\u%04x" % ord(m.group(2)), line, 1
    )


def _prefix_string(name: str, text: str):
    """Prepend raw ``text`` to the body of string member ``name``."""
    return lambda line: line.replace(f'"{name}": "', f'"{name}": "{text}', 1)


def _reordered(line: str) -> str:
    return json.dumps(dict(reversed(list(json.loads(line).items()))))


#: Textual rewrites of one written line, each aimed at a careless
#: pattern: separators, escapes, nesting, duplicates, numbers JSON reads
#: as ints or as non-finite floats, ledger strings a regex could
#: misread, member order, and damage.
VARIANTS = {
    "compact": lambda line: json.dumps(
        json.loads(line), separators=(",", ":")
    ),
    "whitespace": lambda line: " " + line.replace(
        '"action": ', '"action" :\t ', 1
    ) + " ",
    "escaped-key": lambda line: line.replace(
        '"context": {"', '"context": {"\\u0041', 1
    ),
    "brace-key": lambda line: line.replace(
        '"context": {', '"context": {"}\\"": 0.5, ', 1
    ),
    "brace-key-tail": lambda line: line.replace(
        '"context": {', '"context": {"k}, ": 0.5, ', 1
    ),
    "nested": lambda line: line.replace(
        '"context": {', '"context": {"nest": {"a": 1.0}, ', 1
    ),
    "duplicate-key": lambda line: line.replace(
        '"context": {', '"context": {"dup": 1.0, "dup": -0.0, ', 1
    ),
    "duplicate-member": lambda line: line[:-1] + ', "reward": 0.25}',
    "leading-zero-action": lambda line: line.replace(
        '"action": ', '"action": 0', 1
    ),
    "leading-zero-ordinal": lambda line: line.replace(
        '"ordinal": ', '"ordinal": 0', 1
    ),
    "huge-reward": _member("reward", "1E400"),
    "huge-stamp": _member("timestamp", "1E400"),
    "int-zero-reward": _member("reward", "-0"),
    "int-zero-stamp": _member("timestamp", "-0"),
    "float-zero-reward": _member("reward", "-0.0"),
    "int-reward": _member("reward", "5"),
    "int-propensity": _member("propensity", "1"),
    "zero-propensity": _member("propensity", "0.0"),
    "over-propensity": _member("propensity", "1.5"),
    "exponent-propensity": _member("propensity", "5E-1"),
    "escaped-stream": _escape_first("stream"),
    "escaped-prev": _escape_first("prev"),
    "escaped-hash": _escape_first("hash"),
    "backslash-prev": _prefix_string("prev", "\\\\"),
    "control-prev": _prefix_string("prev", "\x01"),
    "control-stream": _prefix_string("stream", "\t"),
    "reordered": _reordered,
    "truncated": lambda line: line[: len(line) // 2],
    "not-an-object": lambda line: "[1, 2]",
    "blank": lambda line: "   ",
}


column_rows = st.lists(
    st.tuples(
        contexts,
        st.integers(0, 5),
        st.one_of(stamps, st.floats(-2.0, 2.0)),
        st.floats(min_value=1e-6, max_value=1.0),
        stamps,
    ),
    min_size=1,
    max_size=8,
)


def _written_lines(draw) -> list:
    """Lines the codec's writers produce for drawn rows."""
    handle = io.StringIO()
    if draw(st.booleans()):
        rows = draw(column_rows)
        if draw(st.booleans()):
            # Repeat a context so the memo is hit.
            rows.append((rows[0][0],) + rows[-1][1:])
        ctxs, actions, rewards, props, stamps_ = map(list, zip(*rows))
        sealed = None
        if draw(st.booleans()):
            ledger = DecisionLedger("s/c/decisions")
            ledger.extend_batch(
                ctxs, np.array(actions, dtype=np.int64),
                np.array(props, dtype=np.float64),
            )
            sealed = ledger.seal()
        keys = ContextKeys()
        ids = keys.ids(ctxs)
        write_columns(
            handle, ContextTable(), keys.contexts, ids, actions, rewards,
            props, stamps_, sealed,
        )
    else:
        write_interactions(
            handle, draw(st.lists(interactions(), min_size=1, max_size=6))
        )
    return handle.getvalue().splitlines()


@st.composite
def logs(draw):
    """A log's text: written lines, some rewritten, in one of two line
    endings."""
    lines = _written_lines(draw)
    names = sorted(VARIANTS)
    for index in draw(
        st.lists(st.integers(0, len(lines) - 1), min_size=1, unique=True)
    ):
        lines[index] = VARIANTS[draw(st.sampled_from(names))](lines[index])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + newline for line in lines)


validators = st.sampled_from([(), (ActionSpace(4), RewardRange(-1.0, 1.0))])


def _sealed_line() -> str:
    """One authentic ledgered line, as the codec writes it."""
    ledger = DecisionLedger("s/c/decisions")
    ledger.extend_batch([{"a": 1.0}], np.array([1]), np.array([0.5]))
    handle = io.StringIO()
    write_columns(
        handle, ContextTable(), [{"a": 1.0}], [0], [1], [0.25], [0.5],
        [0.0], ledger.seal(),
    )
    return handle.getvalue().strip()


#: Rewrites of an authentic line that a careless pattern misreads while
#: the row stays admissible: ledger strings spelled with escapes or
#: holding a backslash, and zeros JSON reads as ints.
PINNED = [
    VARIANTS[name](_sealed_line()) + "\n"
    for name in (
        "escaped-stream", "escaped-prev", "backslash-prev",
        "int-zero-reward", "int-zero-stamp",
    )
]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _row_outcome(rows, contexts_, actions, rewards, propensities, timestamps):
    if rows is not None:
        assert len({id(row.context) for row in rows}) == len(rows)
        return [json.dumps(row.to_dict()) for row in rows]
    return (
        [json.dumps(context) for context in contexts_],
        list(actions), _bits(rewards), _bits(propensities), _bits(timestamps),
    )


def _chain_state(chain):
    if chain is None:
        return None
    return (chain.head, chain.engaged, chain.n_ledgered, chain.n_gaps)


def read_reference(path, mode, validator_args, keep_rows, chained):
    """What ``validated_interactions`` over ``json.loads`` gives."""
    quarantine = Quarantine()
    chain = ChainFollower(strict_links=mode == "strict") if chained else None
    with open(path, encoding="utf-8") as handle:
        try:
            rows = list(validated_interactions(
                handle, mode=mode, validator=RecordValidator(*validator_args),
                quarantine=quarantine, source_name=path, chain=chain,
            ))
        except ValueError as error:
            return "raised", str(error)
    outcome = _row_outcome(
        rows if keep_rows else None,
        [row.context for row in rows], [row.action for row in rows],
        [row.reward for row in rows], [row.propensity for row in rows],
        [row.timestamp for row in rows],
    )
    return outcome, quarantine.report(), _chain_state(chain)


def read_codec(path, mode, validator_args, keep_rows, chained):
    """The same outcome through :class:`LogReader`."""
    quarantine = Quarantine()
    chain = ChainFollower(strict_links=mode == "strict") if chained else None
    reader = LogReader(
        path, mode=mode, validator=RecordValidator(*validator_args),
        quarantine=quarantine, chain=chain, keep_rows=keep_rows,
    )
    try:
        block = reader.read()
    except ValueError as error:
        return "raised", str(error)
    outcome = _row_outcome(
        block.interactions,
        [block.contexts[i] for i in block.context_ids.tolist()],
        block.actions.tolist(), block.rewards, block.propensities,
        block.timestamps,
    )
    return outcome, quarantine.report(), _chain_state(chain)


def checked_reference(path):
    """``_binding_issues`` of every record, over ``json.loads``."""
    out = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            raw = line.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError:
                record = None
            if not isinstance(record, dict):
                out.append((number, "{}", _binding_issues({}, {})))
                continue
            block = ChainFollower.metadata_of(record)
            issues = [] if block is None else _binding_issues(record, block)
            out.append((number, json.dumps(block), issues))
    return out


def _pinned(test):
    for text in PINNED:
        test = example(text, ())(test)
    return test


class TestReader:
    @_pinned
    @given(logs(), validators)
    @settings(max_examples=250, deadline=None)
    def test_reader_equals_validated_interactions(self, text, validator_args):
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "log.jsonl")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            for mode in MODES:
                for keep_rows in (True, False):
                    for chained in (True, False):
                        args = (path, mode, validator_args, keep_rows, chained)
                        assert read_codec(*args) == read_reference(*args)

    @given(logs())
    @settings(max_examples=250, deadline=None)
    def test_checked_lines_equal_binding_issues(self, text):
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "log.jsonl")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            got = [
                (number, json.dumps(block), list(issues))
                for number, block, issues in checked_lines(path)
            ]
            assert got == checked_reference(path)
