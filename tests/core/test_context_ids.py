"""Context ids against the by-value codec: the same bytes, keyed once.

Every write path names a row's context by id: a scenario builder hands
over each distinct context once plus one id per row, the ledger seals
by those ids, the writers encode by them, and a dataset built row by
row gets its ids by value.  ``tests/oracles.py`` keeps the by-value
codec (every row's context keyed by value, as the ledger sealed and the
writers wrote before rows carried ids); the logs and chain heads here
must equal it byte for byte.
"""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.audit.ledger import context_digest, rechain
from repro.audit.streams import StreamRegistry
from repro.core import codec
from repro.core.columns import DatasetColumns, distinct_actions, distinct_rows
from repro.core.coordinator import HarvestCoordinator, HarvestJob, build_inputs
from repro.core.policies import UniformRandomPolicy
from repro.core.types import Dataset, Interaction
from repro.serve.service import DecisionService
from tests import oracles

#: ``(scenario, rows, config)`` of each harvest compared.
SCENARIOS = [
    ("machinehealth", 3000, {"seed": 3, "n_machines": 200}),
    ("loadbalance", 3000, {"seed": 3}),
    ("cache", 3000, {"seed": 3}),
    ("synthetic", 500, {}),
]


def lb_row_contexts(rows: int, seed: int) -> list:
    """Loadbalance contexts built one row at a time, as the builder did
    before it grouped equal snapshots."""
    from repro.loadbalance.harvest import synthetic_decision_snapshots

    snapshots = synthetic_decision_snapshots(rows, 2, seed=seed)
    out = []
    for row in range(rows):
        context = {
            f"conns_{server}": snapshots.connections[row, server]
            for server in range(2)
        }
        kind = snapshots.kinds[snapshots.kind_index[row]]
        context[f"req_{kind}"] = 1.0
        context["req_weight"] = float(snapshots.weights[row])
        out.append(context)
    return out


def row_contexts(scenario: str, rows: int, config: dict, inputs) -> list:
    """Every harvested row's context, built without the builder's ids
    where a per-row construction exists."""
    if scenario == "machinehealth":
        return oracles.machinehealth_rows(
            rows, config["n_machines"], config["seed"]
        )["contexts"]
    if scenario == "loadbalance":
        return lb_row_contexts(rows, config["seed"])
    # Cache and synthetic contexts are all distinct: one id per row.
    assert inputs.context_ids.tolist() == list(range(inputs.n))
    return list(inputs.contexts)


@pytest.mark.parametrize("sealed", [False, True], ids=["plain", "ledger"])
@pytest.mark.parametrize(
    "scenario,rows,config", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_harvest_log_equals_the_value_reference(
    tmp_path, scenario, rows, config, sealed
):
    job = HarvestJob(
        scenario=scenario, rows=rows, master_seed=11,
        policy=UniformRandomPolicy(), shard_size=1024, config=config,
        sealed=sealed,
    )
    result = HarvestCoordinator(job).run()
    path = tmp_path / "log.jsonl"
    table = result.ledger.contexts if sealed else None
    Dataset.from_columns(result.columns, result.sealed, table).save_jsonl(
        str(path)
    )
    inputs = build_inputs(job, StreamRegistry(job.master_seed))
    contexts = row_contexts(scenario, rows, config, inputs)
    columns = result.columns
    assert len(contexts) == columns.n
    stream = job.stream_key().name if sealed else None
    expected = oracles.value_log(
        contexts, columns.actions, columns.rewards, columns.propensities,
        columns.timestamps, stream=stream,
    )
    assert path.read_text() == expected
    if sealed:
        _, hashes = oracles.value_chain(
            stream, contexts, columns.actions, columns.propensities
        )
        assert result.ledger.head == hashes[-1]
    if scenario in ("machinehealth", "loadbalance"):
        # The ids group rows: far fewer distinct contexts than rows.
        assert len(inputs.contexts) < rows // 2


def test_serve_flushes_equal_the_value_reference(tmp_path):
    path = tmp_path / "served.jsonl"
    service = DecisionService(
        "machinehealth", UniformRandomPolicy(), pool_rows=300, seed=4,
        shard_size=128, log_path=str(path),
    )
    slices = []
    try:
        # Slices that wrap the pool, flushed twice.
        for k in (250, 100, 7):
            slices.append(service.decide(k))
        service.flush()
        for k in (333, 1):
            slices.append(service.decide(k))
        service.flush()
        head = service.ledger.head
    finally:
        service.close()
    inputs = service.inputs
    pool = [inputs.contexts[i] for i in inputs.context_ids.tolist()]
    ordinals = np.concatenate([s.ordinals for s in slices])
    contexts = [pool[t % len(pool)] for t in ordinals.tolist()]
    actions = np.concatenate([s.actions for s in slices])
    propensities = np.concatenate([s.propensities for s in slices])
    stream = service.ledger.stream
    expected = oracles.value_log(
        contexts, actions, np.concatenate([s.rewards for s in slices]),
        propensities, ordinals.astype(np.float64), stream=stream,
    )
    assert path.read_text() == expected
    _, hashes = oracles.value_chain(stream, contexts, actions, propensities)
    assert head == hashes[-1]
    assert len(inputs.contexts) < len(pool)


#: Values that compare equal yet encode differently, a value beyond
#: float precision, and (keyed by nothing) a string.
TRICKY = [
    {"a": 0.0}, {"a": -0.0}, {"a": 1}, {"a": 1.0}, {"a": True},
    {"big": 2**53 + 1}, {"big": 2**53}, {"big": float(2**53)},
    {"s": "text", "a": 1.0},
]


def tricky_dataset(contexts) -> Dataset:
    """Each context three times over, as fresh dicts, row by row."""
    rows = [dict(context) for context in contexts] * 3
    return Dataset(
        [
            Interaction(context, index % 3, 0.25 * index, 0.5, float(index))
            for index, context in enumerate(rows)
        ]
    )


class TestRowByRowDataset:
    def test_ids_group_only_identical_encodings(self):
        rows = [dict(context) for context in TRICKY] * 2
        keys = codec.ContextKeys()
        ids = keys.ids(rows)
        texts = codec.ContextTable().texts(keys.contexts, ids)
        assert texts == [json.dumps(row) for row in rows]
        for first in range(len(rows)):
            for second in range(len(rows)):
                if ids[first] == ids[second]:
                    assert texts[first] == texts[second]
        # Repeats of keyed contexts share an id; the string-valued one
        # has no key, so each of its rows gets an id of its own.
        assert len(set(ids.tolist())) == len(TRICKY) + 1

    @pytest.mark.parametrize("columnar", [False, True], ids=["rows", "columns"])
    def test_saved_bytes_equal_the_value_reference(self, tmp_path, columnar):
        rows = list(tricky_dataset(TRICKY))
        dataset = Dataset(rows)
        if columnar:
            # Written from its columns, whose contexts come without ids.
            dataset = Dataset.from_columns(DatasetColumns(dataset))
        path = tmp_path / "tricky.jsonl"
        dataset.save_jsonl(str(path))
        expected = oracles.value_log(
            [row.context for row in rows], [row.action for row in rows],
            [row.reward for row in rows], [row.propensity for row in rows],
            [row.timestamp for row in rows],
        )
        assert path.read_text() == expected

    def test_rechained_digests_equal_the_value_reference(self, tmp_path):
        numeric = [c for c in TRICKY if "s" not in c]
        dataset = tricky_dataset(numeric)
        for row in dataset:
            row.metadata["ledger"] = {"stream": "t/harvest/decisions"}
        ledger = rechain(dataset)
        rows = list(dataset)
        contexts = [row.context for row in rows]
        shas, hashes = oracles.value_chain(
            ledger.stream, contexts, [row.action for row in rows],
            [row.propensity for row in rows],
        )
        assert [row.metadata["ledger"]["context_sha"] for row in rows] == shas
        assert ledger.head == hashes[-1]
        assert shas == [context_digest(c) for c in contexts]
        path = tmp_path / "rechained.jsonl"
        dataset.save_jsonl(str(path))
        assert path.read_text() == oracles.value_log(
            contexts, [row.action for row in rows],
            [row.reward for row in rows], [row.propensity for row in rows],
            [row.timestamp for row in rows], stream=ledger.stream,
        )


def test_ledgered_cli_harvest_keys_no_row_by_value(tmp_path, monkeypatch):
    """The CLI's ledgered machine-health harvest seals and writes by the
    builder's ids: no by-value key, one digest per distinct context."""
    calls = {"context_key": 0, "context_digest": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    from repro.audit import ledger as ledger_module

    monkeypatch.setattr(
        codec, "context_key", counted("context_key", codec.context_key)
    )
    digest = counted("context_digest", context_digest)
    monkeypatch.setattr(codec, "context_digest", digest)
    monkeypatch.setattr(ledger_module, "context_digest", digest)
    out = tmp_path / "mh.jsonl"
    assert main(
        ["harvest", "machinehealth", str(out), "--rows", "3000",
         "--seed", "5", "--ledger"]
    ) == 0
    assert calls["context_key"] == 0
    job = HarvestJob(
        scenario="machinehealth", rows=3000, master_seed=5,
        policy=UniformRandomPolicy(), config={"seed": 5},
    )
    distinct = len(build_inputs(job, StreamRegistry(5)).contexts)
    assert calls["context_digest"] == distinct < 3000


class TestDistinctRows:
    """The builders' grouping against ``np.unique``."""

    @pytest.mark.parametrize("n", [0, 1, 7, 2000])
    def test_one_key_per_row(self, n):
        keys = np.random.default_rng(n).integers(0, 50, n)
        first, ids = distinct_rows(keys)
        values, index, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        assert keys[first].tolist() == values.tolist()
        assert first.tolist() == index.tolist()
        assert ids.tolist() == inverse.tolist()
        assert distinct_actions(keys).tolist() == values.tolist()

    def test_key_columns_compare_raw_bits(self):
        counts = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [2.0, 0.5]])
        kinds = np.array([1, 1, 1, 0])
        keys = np.column_stack([kinds, counts.view(np.int64)])
        first, ids = distinct_rows(keys)
        _, index, inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        assert first.tolist() == index.tolist()
        assert ids.tolist() == inverse.ravel().tolist()
        # 0.0 and -0.0 compare equal but are different contexts.
        assert ids[0] == ids[2] != ids[1]

