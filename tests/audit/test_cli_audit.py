"""CLI surface of the audit layer: harvest --ledger and verify-ledger."""

import json

import pytest

from repro.__main__ import main
from repro.obs.manifest import RunManifest


def harvest(tmp_path, capsys, extra=(), rows=300):
    log = tmp_path / "log.jsonl"
    manifest = tmp_path / "manifest.json"
    code = main(
        [
            "harvest", "loadbalance", str(log),
            "--rows", str(rows),
            "--seed", "7",
            "--ledger",
            "--shard-size", "128",
            "--manifest", str(manifest),
        ]
        + list(extra)
    )
    out = capsys.readouterr().out
    return code, log, manifest, out


class TestHarvestLedger:
    def test_prints_head_and_writes_manifest(self, tmp_path, capsys):
        code, log, manifest_path, out = harvest(tmp_path, capsys)
        assert code == 0
        assert "ledger: stream loadbalance/harvest/decisions" in out
        assert "sharded: 3 shard(s) x 128 rows" in out
        data = RunManifest.load(str(manifest_path)).to_dict()
        assert data["ledger"]["n"] == 300
        assert data["ledger"]["shard_size"] == 128
        assert len(data["ledger"]["head"]) == 64
        assert data["streams"]["master_fingerprint"]
        derivation_keys = [
            d["key"] for d in data["streams"]["derivations"]
        ]
        # 300 rows over shard 128 → shards at ordinals 0, 128, 256 —
        # each deriving its decision stream AND its latency-noise shard.
        # The one 8192-row batch samples all three shards' decisions
        # before its rewards draw the noise shards.
        assert derivation_keys == [
            "loadbalance/harvest/decisions#0",
            "loadbalance/harvest/decisions#128",
            "loadbalance/harvest/decisions#256",
            "loadbalance/harvest/latency-noise#0",
            "loadbalance/harvest/latency-noise#128",
            "loadbalance/harvest/latency-noise#256",
        ]

    def test_manifest_records_shard_map(self, tmp_path, capsys):
        _, _, manifest_path, _ = harvest(tmp_path, capsys)
        ledger = RunManifest.load(str(manifest_path)).to_dict()["ledger"]
        assert "workers" not in ledger
        assert ledger["plan"] == {
            "n_rows": 300, "shard_size": 128, "n_shards": 3,
        }
        shards = ledger["shards"]
        assert [s["start"] for s in shards] == [0, 128, 256]
        assert [s["n"] for s in shards] == [128, 128, 44]
        assert shards[0]["prev"] == "0" * 64
        assert shards[-1]["head"] == ledger["head"]
        assert set(shards[0]) == {"index", "start", "n", "prev", "head"}
        # Boundary hashes link: each shard's prev is its predecessor's head.
        assert shards[1]["prev"] == shards[0]["head"]
        assert shards[2]["prev"] == shards[1]["head"]

    @pytest.mark.parametrize(
        "scenario, rows",
        [("machinehealth", 300), ("loadbalance", 300), ("cache", 3000)],
    )
    def test_plain_equals_ledgered_minus_chain(
        self, tmp_path, capsys, scenario, rows
    ):
        lines = {}
        for extra in ((), ("--ledger",)):
            log = tmp_path / f"{scenario}{''.join(extra)}.jsonl"
            code = main(
                ["harvest", scenario, str(log), "--rows", str(rows),
                 "--seed", "7", "--shard-size", "128", *extra]
            )
            assert code == 0
            lines[extra] = log.read_text().splitlines()
        capsys.readouterr()
        plain, ledgered = lines[()], lines[("--ledger",)]
        assert len(plain) == len(ledgered) > 128
        for plain_line, ledgered_line in zip(plain, ledgered):
            record = json.loads(ledgered_line)
            metadata = record.pop("metadata")
            assert set(metadata) == {"ledger"}
            assert json.dumps(record) == plain_line

    def test_workers_flag_is_unrecognized(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["harvest", "loadbalance", str(out),
                 "--rows", "50", "--ledger", "--workers", "2"]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not out.exists()

    def test_every_record_carries_ledger_metadata(self, tmp_path, capsys):
        _, log, _, _ = harvest(tmp_path, capsys)
        with open(log) as handle:
            for line in handle:
                assert "ledger" in json.loads(line)["metadata"]

    def test_without_ledger_flag_log_is_plain(self, tmp_path, capsys):
        log = tmp_path / "plain.jsonl"
        code = main(
            ["harvest", "loadbalance", str(log), "--rows", "50", "--seed", "7"]
        )
        capsys.readouterr()
        assert code == 0
        with open(log) as handle:
            first = json.loads(handle.readline())
        assert "ledger" not in (first.get("metadata") or {})


class TestVerifyLedger:
    def test_clean_log_verifies_against_manifest(self, tmp_path, capsys):
        _, log, manifest, _ = harvest(tmp_path, capsys)
        code = main(["verify-ledger", str(log), "--manifest", str(manifest)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sharded ledger: OK — 3 shard(s)" in out
        assert "shard 1 rows [128, 256): OK" in out
        assert "300/300 record(s) chained" in out

    def test_expect_head_flag(self, tmp_path, capsys):
        _, log, manifest, _ = harvest(tmp_path, capsys)
        head = RunManifest.load(str(manifest)).to_dict()["ledger"]["head"]
        assert main(["verify-ledger", str(log), "--expect-head", head]) == 0
        capsys.readouterr()
        assert main(["verify-ledger", str(log), "--expect-head", "f" * 64]) == 1
        out = capsys.readouterr().out
        assert "TRUNCATED/MODIFIED" in out

    def test_tamper_is_localized_with_exit_one(self, tmp_path, capsys):
        _, log, manifest, _ = harvest(tmp_path, capsys)
        lines = log.read_text().splitlines()
        record = json.loads(lines[149])
        record["action"] = 1 - record["action"]
        lines[149] = json.dumps(record)
        log.write_text("\n".join(lines) + "\n")
        code = main(
            ["verify-ledger", str(log), "--manifest", str(manifest), "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False
        assert report["overall"]["first_bad"] == 150
        spans = [
            (s["start_line"], s["stop_line"])
            for s in report["overall"]["segments"]
        ]
        assert (1, 149) in spans
        assert (151, 300) in spans
        # The sharded report pins the tamper to shard 1 (rows 128–256).
        assert [s["ok"] for s in report["shards"]] == [True, False, True]

    def test_truncation_detected(self, tmp_path, capsys):
        _, log, manifest, _ = harvest(tmp_path, capsys)
        lines = log.read_text().splitlines()[:200]
        log.write_text("\n".join(lines) + "\n")
        code = main(["verify-ledger", str(log), "--manifest", str(manifest)])
        out = capsys.readouterr().out
        assert code == 1
        assert "TRUNCATED/MODIFIED" in out

    def test_front_truncation_detected(self, tmp_path, capsys):
        # Dropping the leading lines leaves the head intact; the genesis
        # anchor and the manifest's recorded n must both flag it.
        _, log, manifest, _ = harvest(tmp_path, capsys)
        lines = log.read_text().splitlines()[50:]
        log.write_text("\n".join(lines) + "\n")
        code = main(
            ["verify-ledger", str(log), "--manifest", str(manifest), "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False
        overall = report["overall"]
        assert overall["truncated"] is False  # head itself still matches
        assert overall["count_mismatch"] is True
        assert overall["expected_n"] == 300 and overall["n_ledgered"] == 250
        assert overall["gaps"] and "line 1:" in overall["gaps"][0]
        # The missing prefix is shard 0's problem and nobody else's.
        assert [s["count_mismatch"] for s in report["shards"]] == [
            True, False, False,
        ]

    def test_plain_log_fails_verification(self, tmp_path, capsys):
        log = tmp_path / "plain.jsonl"
        code = main(
            ["harvest", "loadbalance", str(log), "--rows", "50", "--seed", "7"]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["verify-ledger", str(log)]) == 1
        assert "0/50 record(s) chained" in capsys.readouterr().out

    def test_manifest_without_ledger_section_errors(self, tmp_path, capsys):
        log = tmp_path / "plain.jsonl"
        manifest = tmp_path / "plain_manifest.json"
        code = main(
            ["harvest", "loadbalance", str(log), "--rows", "50", "--seed", "7",
             "--manifest", str(manifest)]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["verify-ledger", str(log), "--manifest", str(manifest)])
        captured = capsys.readouterr()
        assert code == 1
        assert "records no ledger head" in captured.err

    def test_missing_file_errors(self, tmp_path, capsys):
        code = main(["verify-ledger", str(tmp_path / "absent.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot read" in captured.err


def _flip_action(lines):
    record = json.loads(lines[37])
    record["action"] = (record["action"] + 1) % 10
    lines[37] = json.dumps(record)


def _alter_context(lines):
    record = json.loads(lines[90])
    name = next(iter(record["context"]))
    record["context"][name] += 0.5
    lines[90] = json.dumps(record)


def _delete_line(lines):
    del lines[120]


def _swap_lines(lines):
    lines[150], lines[151] = lines[151], lines[150]


def _foreign_ordinal(lines):
    record = json.loads(lines[60])
    record["metadata"]["ledger"]["ordinal"] = 9999
    lines[60] = json.dumps(record)


class TestShardedVerifyReport:
    """``verify-ledger --manifest --json`` over 19 shards prints exactly
    the report of the two-walk, scan-routed reference verifier."""

    @pytest.mark.parametrize(
        "tamper",
        [None, _flip_action, _alter_context, _delete_line, _swap_lines,
         _foreign_ordinal],
        ids=lambda t: "clean" if t is None else t.__name__.strip("_"),
    )
    def test_json_report_matches_reference(self, tmp_path, capsys, tamper):
        from tests import oracles

        log = tmp_path / "mh.jsonl"
        manifest = tmp_path / "mh_manifest.json"
        assert main(
            ["harvest", "machinehealth", str(log), "--rows", "300",
             "--seed", "7", "--ledger", "--shard-size", "16",
             "--manifest", str(manifest)]
        ) == 0
        capsys.readouterr()
        if tamper is not None:
            lines = log.read_text().splitlines()
            tamper(lines)
            log.write_text("\n".join(lines) + "\n")
        ledger = RunManifest.load(str(manifest)).to_dict()["ledger"]
        assert len(ledger["shards"]) == 19
        code = main(
            ["verify-ledger", str(log), "--manifest", str(manifest), "--json"]
        )
        reference = oracles.verify_sharded_records(
            oracles.jsonl_records(str(log)),
            ledger["shards"],
            expected_head=ledger["head"],
            expected_n=ledger["n"],
        )
        assert capsys.readouterr().out == (
            json.dumps(reference.report(), indent=2) + "\n"
        )
        assert code == (0 if reference.ok else 1)
        assert reference.ok is (tamper is None)


class TestLedgeredLogDownstream:
    def test_evaluate_consumes_ledgered_log(self, tmp_path, capsys):
        _, log, _, _ = harvest(tmp_path, capsys)
        code = main(["evaluate", str(log), "--policy", "constant:0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "constant[0]" in out

    def test_report_shows_ledger_and_streams(self, tmp_path, capsys):
        _, _, manifest, _ = harvest(tmp_path, capsys)
        code = main(["report", str(manifest)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ledger" in out
        assert "rng streams" in out
        assert "master fingerprint" in out

    def test_same_seed_reproduces_head(self, tmp_path, capsys):
        _, _, manifest_a, _ = harvest(tmp_path, capsys)
        (tmp_path / "log.jsonl").unlink()
        _, _, manifest_b, _ = harvest(tmp_path, capsys)
        head_a = RunManifest.load(str(manifest_a)).to_dict()["ledger"]["head"]
        head_b = RunManifest.load(str(manifest_b)).to_dict()["ledger"]["head"]
        assert head_a == head_b


@pytest.fixture(scope="module")
def lb_log(tmp_path_factory):
    """A 2,000-row ledgered loadbalance log and its manifest."""
    root = tmp_path_factory.mktemp("lb2000")
    log, manifest = root / "lb.jsonl", root / "lb_manifest.json"
    assert main(
        ["harvest", "loadbalance", str(log), "--rows", "2000", "--seed", "3",
         "--ledger", "--shard-size", "512", "--manifest", str(manifest)]
    ) == 0
    return log, manifest


def _tampered(lb_log, tmp_path, edit):
    log, _ = lb_log
    lines = log.read_text().splitlines()
    edit(lines)
    path = tmp_path / "tampered.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def _insert_list(lines):
    lines.insert(1000, "[1, 2, 3]")  # becomes line 1001


def _flip_line_500(lines):
    record = json.loads(lines[499])
    record["action"] = 1 - record["action"]
    lines[499] = json.dumps(record)


class TestVerifyNonObjectLine:
    """A JSON line that is not an object is a record that fails its
    binding, exactly like an unparseable line."""

    @pytest.mark.parametrize("with_manifest", [False, True])
    def test_json_report_names_the_line(
        self, lb_log, tmp_path, capsys, with_manifest
    ):
        path = _tampered(lb_log, tmp_path, _insert_list)
        argv = ["verify-ledger", str(path), "--json"]
        if with_manifest:
            argv += ["--manifest", str(lb_log[1])]
        capsys.readouterr()
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        overall = report["overall"] if with_manifest else report
        assert overall["ok"] is False
        assert overall["n"] == 2001
        assert overall["n_ledgered"] == 2000
        assert overall["first_bad"] == 1001
        assert overall["issues"] == [
            "line 1001: ledger: ledger metadata missing field(s) "
            "['stream', 'ordinal', 'prev', 'context_sha', 'hash']"
        ]
        if with_manifest:
            assert report["ok"] is False
            assert all(shard["ok"] for shard in report["shards"])


def _undecodable_log(lb_log, tmp_path, newline=b"\n"):
    """The log with the high bit of line 1001's first ``conns_0`` byte
    set, so that line is not UTF-8; ``newline`` ends every line."""
    log, _ = lb_log
    lines = log.read_bytes().splitlines()
    at = lines[1000].index(b'"conns_0"') + 1
    lines[1000] = (
        lines[1000][:at] + bytes([lines[1000][at] | 0x80])
        + lines[1000][at + 1:]
    )
    path = tmp_path / "undecodable.jsonl"
    path.write_bytes(b"".join(line + newline for line in lines))
    return path


class TestUndecodableLine:
    """A line that is not UTF-8 is an unparseable line at its own
    number, for every reader, whatever the line endings."""

    NOTE = "'utf-8' codec can't decode byte 0xe3 in position 14"

    @pytest.mark.parametrize("with_manifest", [False, True])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_verify_report_names_the_line(
        self, lb_log, tmp_path, capsys, with_manifest, newline
    ):
        path = _undecodable_log(lb_log, tmp_path, newline)
        argv = ["verify-ledger", str(path), "--json"]
        if with_manifest:
            argv += ["--manifest", str(lb_log[1])]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        report = json.loads(captured.out)
        overall = report["overall"] if with_manifest else report
        assert (overall["n"], overall["n_ledgered"]) == (2000, 1999)
        assert overall["first_bad"] == 1001
        assert overall["issues"] == [
            "line 1001: ledger: ledger metadata missing field(s) "
            "['stream', 'ordinal', 'prev', 'context_sha', 'hash']"
        ]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "read", ["rows", "columns", "streamed"]
    )
    @pytest.mark.parametrize("mode", ["strict", "quarantine", "repair"])
    def test_every_reader_sets_the_line_aside(
        self, lb_log, tmp_path, mode, read, newline
    ):
        from repro.core.engine import evaluate_jsonl_chunked
        from repro.core.estimators import IPSEstimator
        from repro.core.policies import UniformRandomPolicy
        from repro.core.types import Dataset

        path = str(_undecodable_log(lb_log, tmp_path, newline))

        def run():
            if read == "rows":
                loaded = Dataset.load_jsonl(path, mode=mode)
                return len(loaded), loaded.quarantine
            # "columns" is the whole-log fold, "streamed" 512-row chunks.
            evaluation = evaluate_jsonl_chunked(
                path, [UniformRandomPolicy()], [IPSEstimator()],
                chunk_size=512 if read == "streamed" else None, mode=mode,
            )
            return evaluation.n, evaluation.quarantine

        if mode == "strict":
            with pytest.raises(ValueError) as error:
                run()
            assert str(error.value) == (
                f"{path}: invalid UTF-8 at line 1001: {self.NOTE}: "
                "invalid continuation byte"
            )
            return
        n, quarantine = run()
        assert n == 1999
        report = quarantine.report()
        assert report["by_reason"] == {"unparseable": 1}
        (example,) = report["examples"]
        assert example["line"] == 1001
        assert example["detail"].startswith(self.NOTE)
        assert example["raw"].startswith('{"context": {"\ufffdonns_0"')

    def test_cli_evaluate(self, lb_log, tmp_path, capsys):
        path = str(_undecodable_log(lb_log, tmp_path))
        capsys.readouterr()
        for extra in ([], ["--chunk-size", "512"]):
            assert main(["evaluate", path, *extra]) == 1
            assert "invalid UTF-8 at line 1001" in capsys.readouterr().err
            assert main(
                ["evaluate", path, "--mode", "quarantine", *extra]
            ) == 0
            captured = capsys.readouterr()
            assert "unparseable  1" in captured.err
            assert "(1999 interactions" in captured.out

    def test_crlf_log_reads_like_lf(self, lb_log, tmp_path):
        from repro.audit.ledger import verify_jsonl
        from repro.core.types import Dataset

        log, _ = lb_log
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(log.read_bytes().replace(b"\n", b"\r\n"))
        assert [i.to_dict() for i in Dataset.load_jsonl(str(crlf))] == [
            i.to_dict() for i in Dataset.load_jsonl(str(log))
        ]
        assert verify_jsonl(str(crlf)).report() == (
            verify_jsonl(str(log)).report()
        )


class TestStreamedEvaluateChecksTheChain:
    MESSAGE = "line 500: ledger: record hash mismatch at ordinal 499"

    @pytest.mark.parametrize(
        "extra",
        [[], ["--chunk-size", "512"]],
        ids=["in-memory", "streamed"],
    )
    def test_strict_refuses_a_tampered_log(
        self, lb_log, tmp_path, capsys, extra
    ):
        path = _tampered(lb_log, tmp_path, _flip_line_500)
        capsys.readouterr()
        assert main(["evaluate", str(path), *extra]) == 1
        assert self.MESSAGE in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["quarantine", "repair"])
    def test_lenient_modes_set_the_record_aside(
        self, lb_log, tmp_path, mode
    ):
        from repro.core.engine import evaluate_jsonl_chunked
        from repro.core.estimators import IPSEstimator
        from repro.core.policies import UniformRandomPolicy
        from repro.core.types import Dataset

        path = str(_tampered(lb_log, tmp_path, _flip_line_500))
        loaded = Dataset.load_jsonl(path, mode=mode)
        evaluation = evaluate_jsonl_chunked(
            path, [UniformRandomPolicy()], [IPSEstimator()],
            chunk_size=512, mode=mode,
        )
        assert evaluation.n == len(loaded) == 1999
        report = evaluation.quarantine.report()
        assert report == loaded.quarantine.report()
        assert report["by_reason"] == {"ledger": 1}
        assert report["examples"][0]["line"] == 500

    def test_gate_refuses_a_tampered_log(self, lb_log, tmp_path):
        from repro.core.policies import ConstantPolicy, UniformRandomPolicy
        from repro.serve import evaluate_candidate

        path = _tampered(lb_log, tmp_path, _flip_line_500)
        decision = evaluate_candidate(
            str(path), "cand", ConstantPolicy(1), UniformRandomPolicy()
        )
        assert decision.promote is False
        assert any(self.MESSAGE in reason for reason in decision.reasons)
