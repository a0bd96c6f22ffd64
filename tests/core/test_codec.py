"""The log codec's reader and writers against the per-record paths.

The columnar reader (:class:`repro.core.codec.LogReader`) must accept
exactly the rows ``validated_interactions`` accepts, with the same
strict errors and the same ``Quarantine.report()``, whether it feeds
``Dataset.load_jsonl``, the whole-log fold or the streamed evaluation.
"""

import functools
import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.audit.ledger import ChainFollower, verify_jsonl
from repro.chaos.corruption import KINDS, LogCorruptor
from repro.core.codec import LogReader
from repro.core.columns import DatasetColumns
from repro.core.engine import evaluate_jsonl_chunked
from repro.core.estimators import IPSEstimator
from repro.core.policies import UniformRandomPolicy
from repro.core.types import Dataset, RewardRange
from repro.core.validation import (
    MODES,
    Quarantine,
    RecordValidator,
    validated_interactions,
)
from repro.obs.manifest import RunManifest
from repro.obs.tracing import Tracer, use_tracer


@pytest.fixture(scope="module")
def clean_logs(tmp_path_factory):
    root = tmp_path_factory.mktemp("codec")
    logs = {}
    for scenario, ledger in (("machinehealth", True), ("loadbalance", False)):
        path = root / f"{scenario}.jsonl"
        argv = ["harvest", scenario, str(path), "--rows", "400",
                "--seed", "5", "--shard-size", "128"]
        assert main(argv + (["--ledger"] if ledger else [])) == 0
        logs[scenario] = path
    return logs


def corrupt(clean, tmp_path, kind):
    path = tmp_path / f"{clean.stem}-{kind}.jsonl"
    LogCorruptor(rate=0.15, kinds=(kind,), seed=3).corrupt_file(
        str(clean), str(path)
    )
    return str(path)


def reference(path, mode):
    """``(interactions, report)`` of the per-record driver, or the
    strict error message."""
    quarantine = Quarantine()
    with open(path, encoding="utf-8") as handle:
        try:
            rows = list(validated_interactions(
                handle, mode=mode, validator=RecordValidator(),
                quarantine=quarantine, source_name=path,
                chain=ChainFollower(strict_links=(mode == "strict")),
            ))
        except ValueError as error:
            return None, str(error)
    return rows, quarantine.report()


def columns_of(rows):
    return (
        [dict(row.context) for row in rows],
        [row.action for row in rows],
        [row.reward for row in rows],
        [row.propensity for row in rows],
        [row.timestamp for row in rows],
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scenario", ["machinehealth", "loadbalance"])
class TestQuarantineIdentity:
    def test_in_memory_load(self, clean_logs, tmp_path, scenario, kind, mode):
        path = corrupt(clean_logs[scenario], tmp_path, kind)
        rows, report = reference(path, mode)

        def column_reader():
            return LogReader(
                path, mode=mode,
                chain=ChainFollower(strict_links=(mode == "strict")),
            )

        def whole_log_fold():
            return evaluate_jsonl_chunked(
                path, [UniformRandomPolicy()], [IPSEstimator()], mode=mode
            )

        if rows is None:
            for read in (
                lambda: Dataset.load_jsonl(path, mode=mode),
                lambda: column_reader().read(),
                whole_log_fold,
            ):
                with pytest.raises(ValueError) as error:
                    read()
                assert str(error.value) == report
            return
        dataset = Dataset.load_jsonl(path, mode=mode)
        assert dataset.quarantine.report() == report
        assert [i.to_dict() for i in dataset] == [i.to_dict() for i in rows]
        reader = column_reader()
        block = reader.read()
        assert reader.quarantine.report() == report
        assert block.n == len(rows)
        assert (
            [dict(block.contexts[i]) for i in block.context_ids.tolist()],
            block.actions.tolist(),
            block.rewards.tolist(),
        ) == columns_of(rows)[:3]
        evaluation = whole_log_fold()
        assert (evaluation.n, evaluation.n_chunks) == (len(rows), 1)
        assert evaluation.quarantine.report() == report

    def test_streamed_read(self, clean_logs, tmp_path, scenario, kind, mode):
        path = corrupt(clean_logs[scenario], tmp_path, kind)
        rows, report = reference(path, mode)
        quarantine = Quarantine()
        reader = LogReader(
            path, mode=mode, quarantine=quarantine,
            chain=ChainFollower(strict_links=(mode == "strict")),
        )
        if rows is None:
            with pytest.raises(ValueError) as error:
                list(reader.blocks(64))
            assert str(error.value) == report
            with pytest.raises(ValueError) as error:
                evaluate_jsonl_chunked(
                    path, [UniformRandomPolicy()], [IPSEstimator()],
                    chunk_size=64, mode=mode,
                )
            assert str(error.value) == report
            return
        blocks = list(reader.blocks(64))
        assert quarantine.report() == report
        got = (
            [
                dict(b.contexts[i]) for b in blocks
                for i in b.context_ids.tolist()
            ],
            [a for b in blocks for a in b.actions.tolist()],
            [r for b in blocks for r in b.rewards.tolist()],
            [p for b in blocks for p in b.propensities.tolist()],
            [t for b in blocks for t in b.timestamps.tolist()],
        )
        assert got == columns_of(rows)
        evaluation = evaluate_jsonl_chunked(
            path, [UniformRandomPolicy()], [IPSEstimator()],
            chunk_size=64, mode=mode,
        )
        assert evaluation.n == len(rows)
        assert evaluation.quarantine.report() == report


class TestReader:
    def test_identical_contexts_share_one_dict(self, clean_logs):
        block = LogReader(str(clean_logs["machinehealth"])).read()
        rows = [block.contexts[i] for i in block.context_ids.tolist()]
        distinct = {id(context) for context in rows}
        assert len(distinct) < block.n
        assert len(distinct) == len(block.contexts)
        texts = {json.dumps(context) for context in rows}
        assert len(texts) == len(distinct)

    def test_round_trip_is_byte_identical(self, clean_logs, tmp_path):
        for clean in clean_logs.values():
            out = tmp_path / "copy.jsonl"
            Dataset.load_jsonl(str(clean)).save_jsonl(str(out))
            assert out.read_bytes() == clean.read_bytes()

    def test_columnar_view_materializes_plain_rows(self, clean_logs):
        path = str(clean_logs["loadbalance"])
        block = LogReader(path).read()
        view = Dataset.from_columns(DatasetColumns.from_log(
            block.contexts, block.actions, block.rewards,
            block.propensities, block.timestamps,
            reward_range=RewardRange(), context_ids=block.context_ids,
        ))
        rows = Dataset.load_jsonl(path)
        assert len(view) == len(rows)
        assert np.array_equal(view.columns().rewards, rows.columns().rewards)
        assert [i.to_dict() for i in view] == [i.to_dict() for i in rows]

    def test_cli_estimators_fold_the_view_without_rows(
        self, clean_logs, monkeypatch
    ):
        from repro.__main__ import (
            ESTIMATOR_NAMES,
            make_estimator,
            parse_policy,
        )
        from repro.core.types import Interaction

        path = str(clean_logs["machinehealth"])
        rows = Dataset.load_jsonl(path)
        specs = ("uniform", "constant:1", "eps:2:0.1")
        policies = [parse_policy(spec) for spec in specs]
        assert len(ESTIMATOR_NAMES) == 7

        def bits(result):
            verdict = result.diagnostics and result.diagnostics.verdict
            return (
                float(result.value).hex(), float(result.std_error).hex(),
                verdict,
            )

        def no_rows(*args, **kwargs):
            raise AssertionError("the fold built a per-row Interaction")

        with monkeypatch.context() as patch:
            patch.setattr(Interaction, "__post_init__", no_rows)
            evaluation = evaluate_jsonl_chunked(
                path, policies,
                [make_estimator(name) for name in ESTIMATOR_NAMES],
            )
        assert evaluation.n_chunks == 1
        for policy, results in zip(policies, evaluation.results):
            for name, got in zip(ESTIMATOR_NAMES, results):
                want = make_estimator(name).estimate(policy, rows)
                assert bits(got) == bits(want), (policy.name, name)

    def test_extra_fields_and_full_rewards_take_the_reference_path(
        self, tmp_path
    ):
        path = tmp_path / "mixed.jsonl"
        records = [
            {"context": {"a": 1.0}, "action": 0, "reward": 0.5,
             "propensity": 0.5, "timestamp": 0.0, "extra": [1, 2]},
            {"context": {"a": 1}, "action": 1, "reward": 1,
             "propensity": 0.5, "full_rewards": [0.1, 0.2]},
            {"context": {"a": "2.5"}, "action": 1, "reward": 0.25,
             "propensity": 1.0, "metadata": {"note": "x"}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        rows, _ = reference(str(path), "strict")
        loaded = Dataset.load_jsonl(str(path))
        assert [i.to_dict() for i in loaded] == [i.to_dict() for i in rows]


class TestPrefixBound:
    """``prefix_bytes`` reads a prefix of the file and nothing past it."""

    @pytest.fixture
    def grown(self, clean_logs, tmp_path):
        """``(prefix log, grown log, prefix length)``: the grown log is
        the prefix plus more rows and a torn last line."""
        lines = clean_logs["machinehealth"].read_bytes().splitlines(True)
        prefix, grown = tmp_path / "prefix.jsonl", tmp_path / "grown.jsonl"
        prefix.write_bytes(b"".join(lines[:250]))
        grown.write_bytes(b"".join(lines) + lines[-1][:40])
        return str(prefix), str(grown), prefix.stat().st_size

    def test_bounded_evaluation_equals_the_prefix(self, grown):
        from repro.core.estimators import DoublyRobustEstimator
        from repro.core.policies import ConstantPolicy

        prefix, path, size = grown
        run = functools.partial(
            evaluate_jsonl_chunked,
            policies=[UniformRandomPolicy(), ConstantPolicy(1)],
            estimators=[IPSEstimator(), DoublyRobustEstimator()],
            chunk_size=64,
        )
        bounded = run(path, prefix_bytes=size)
        alone = run(prefix)
        assert bounded.n == alone.n == 250
        assert [
            [(r.value, r.std_error) for r in row] for row in bounded.results
        ] == [[(r.value, r.std_error) for r in row] for row in alone.results]
        with pytest.raises(ValueError, match="invalid JSON at line 401"):
            run(path)

    def test_bounded_reader_equals_the_prefix(self, grown):
        prefix, path, size = grown
        bounded = LogReader(path, prefix_bytes=size, keep_rows=True).read()
        alone = LogReader(prefix, keep_rows=True).read()
        assert [i.to_dict() for i in bounded.interactions] == [
            i.to_dict() for i in alone.interactions
        ]


class TestCodecSpans:
    @staticmethod
    def spans(manifest, name):
        def walk(nodes):
            for node in nodes:
                if node["name"] == name:
                    yield node
                yield from walk(node.get("children", ()))

        return list(walk(RunManifest.load(str(manifest)).to_dict()["spans"]))

    def test_harvest_writes_under_one_span(self, tmp_path):
        log, manifest = tmp_path / "mh.jsonl", tmp_path / "m.json"
        assert main(
            ["harvest", "machinehealth", str(log), "--rows", "5000",
             "--seed", "2", "--ledger", "--manifest", str(manifest)]
        ) == 0
        writes = self.spans(manifest, "jsonl.write")
        assert len(writes) == 1
        attributes = writes[0]["attributes"]
        assert attributes["rows"] == 5000
        assert attributes["bytes"] == log.stat().st_size
        assert 0 < attributes["distinct_contexts"] < 5000
        seals = self.spans(manifest, "ledger.seal")
        assert sum(s["attributes"]["rows"] for s in seals) == 5000

    def test_evaluate_reads_under_spans(self, clean_logs, tmp_path):
        manifest = tmp_path / "e.json"
        for extra in ([], ["--chunk-size", "128"]):
            assert main(
                ["evaluate", str(clean_logs["machinehealth"]),
                 "--manifest", str(manifest), *extra]
            ) == 0
            reads = self.spans(manifest, "jsonl.read")
            assert reads
            # The streamed run reads the log twice (discovery, fold).
            passes = 2 if extra else 1
            assert sum(r["attributes"]["rows"] for r in reads) == 400 * passes

    def test_template_rows_count_the_template_path(self, tmp_path):
        log, manifest = tmp_path / "mh.jsonl", tmp_path / "r.json"
        assert main(
            ["harvest", "machinehealth", str(log), "--rows", "5000",
             "--seed", "2", "--ledger"]
        ) == 0
        compact = tmp_path / "compact.jsonl"
        with open(log, encoding="utf-8") as handle:
            compact.write_text("".join(
                json.dumps(json.loads(line), separators=(",", ":")) + "\n"
                for line in handle
            ))
        for path, template_rows in ((log, 5000), (compact, 0)):
            assert main(
                ["evaluate", str(path), "--manifest", str(manifest)]
            ) == 0
            (read,) = self.spans(manifest, "jsonl.read")
            tracer = Tracer()
            with use_tracer(tracer):
                assert verify_jsonl(str(path)).ok
            (verify,) = tracer.span_tree()
            for attributes in (read["attributes"], verify["attributes"]):
                assert attributes["rows"] == 5000
                assert attributes["template_rows"] == template_rows
