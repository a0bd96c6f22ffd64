"""End-to-end chaos test: corrupted log → quarantine → flagged estimates.

The acceptance path for the reliability layer: a JSONL exploration log
with ≥10% injected corruption (via :class:`repro.chaos.LogCorruptor`)
must evaluate without crashing in quarantine mode, produce a quarantine
report with per-reason counts, and every surviving estimate must carry
reliability diagnostics and a finite value.
"""

import math

import pytest

from repro.chaos.corruption import LogCorruptor
from repro.core.estimators.direct import DirectMethodEstimator
from repro.core.estimators.fallback import FallbackEstimator
from repro.core.estimators.ips import IPSEstimator, SNIPSEstimator
from repro.core.policies import ConstantPolicy, UniformRandomPolicy
from repro.core.types import Dataset

from tests.conftest import make_uniform_dataset

CORRUPTION_RATE = 0.15
N_RECORDS = 1000


@pytest.fixture(scope="module")
def corrupted_log(tmp_path_factory):
    """A realistic exploration log with ≥10% of lines damaged."""
    root = tmp_path_factory.mktemp("chaos")
    clean = root / "clean.jsonl"
    dirty = root / "dirty.jsonl"
    make_uniform_dataset(N_RECORDS, seed=21).save_jsonl(str(clean))
    corruptor = LogCorruptor(rate=CORRUPTION_RATE, seed=8)
    counts = corruptor.corrupt_file(str(clean), str(dirty))
    assert sum(counts.values()) >= 0.10 * N_RECORDS
    return str(dirty), counts


class TestQuarantineSurvivesChaos:
    def test_quarantine_mode_loads_without_crashing(self, corrupted_log):
        path, _ = corrupted_log
        dataset = Dataset.load_jsonl(path, mode="quarantine")
        assert len(dataset) > 0
        assert len(dataset) < N_RECORDS + 50  # damage really was rejected

    def test_quarantine_report_has_per_reason_counts(self, corrupted_log):
        path, injected = corrupted_log
        dataset = Dataset.load_jsonl(path, mode="quarantine")
        quarantine = dataset.quarantine
        assert quarantine.n_rejected > 0
        by_reason = quarantine.counts_by_reason()
        assert by_reason  # at least one reason bucket
        assert sum(by_reason.values()) == quarantine.n_rejected
        # Truncation shows up as unparseable lines, dropped fields as
        # schema defects, propensity damage as propensity defects.
        if injected["truncate"]:
            assert by_reason.get("unparseable", 0) > 0
        if injected["drop_field"]:
            assert by_reason.get("schema", 0) > 0
        if injected["zero_propensity"] or injected["garble_propensity"]:
            assert by_reason.get("propensity", 0) > 0

    def test_strict_mode_refuses_the_same_log(self, corrupted_log):
        path, _ = corrupted_log
        with pytest.raises(ValueError, match="line"):
            Dataset.load_jsonl(path, mode="strict")

    def test_every_surviving_estimate_is_flagged_and_finite(
        self, corrupted_log
    ):
        path, _ = corrupted_log
        dataset = Dataset.load_jsonl(path, mode="quarantine")
        policies = [UniformRandomPolicy(), ConstantPolicy(1)]
        estimators = [
            IPSEstimator(),
            SNIPSEstimator(),
            DirectMethodEstimator(),
            FallbackEstimator(),
        ]
        for policy in policies:
            for estimator in estimators:
                result = estimator.estimate(policy, dataset)
                assert math.isfinite(result.value), (policy.name, result)
                assert result.diagnostics is not None, (
                    policy.name,
                    result.estimator,
                )
                assert result.diagnostics.verdict in (
                    "OK",
                    "WARN",
                    "UNRELIABLE",
                )

    def test_surviving_estimates_close_to_clean_baseline(self, corrupted_log):
        # Quarantining damage should leave the estimate near the value
        # computed from the pristine log — the point of rejecting rather
        # than ingesting garbage.
        path, _ = corrupted_log
        dirty = Dataset.load_jsonl(path, mode="quarantine")
        clean = make_uniform_dataset(N_RECORDS, seed=21)
        policy = ConstantPolicy(1)
        dirty_value = IPSEstimator().estimate(policy, dirty).value
        clean_value = IPSEstimator().estimate(policy, clean).value
        assert dirty_value == pytest.approx(clean_value, abs=0.15)


class TestChunkedBackendSurvivesChaos:
    """Quarantine counts and verdicts must survive chunk-boundary folds.

    The chunked file driver validates while streaming, so a corrupted
    line discovered mid-chunk must land in the same quarantine bucket —
    and leave the same diagnostics verdicts — as the whole-log path,
    regardless of where chunk boundaries fall.
    """

    ESTIMATORS = (
        IPSEstimator,
        SNIPSEstimator,
        DirectMethodEstimator,
        FallbackEstimator,
    )

    def _evaluate_chunked(self, path, chunk_size):
        from repro.core.engine import evaluate_jsonl_chunked

        return evaluate_jsonl_chunked(
            path,
            [UniformRandomPolicy(), ConstantPolicy(1)],
            [cls() for cls in self.ESTIMATORS],
            mode="quarantine",
            chunk_size=chunk_size,
        )

    @pytest.mark.parametrize("chunk_size", [37, 256])
    def test_quarantine_counts_match_whole_log_path(
        self, corrupted_log, chunk_size
    ):
        path, _ = corrupted_log
        reference = Dataset.load_jsonl(path, mode="quarantine")
        evaluation = self._evaluate_chunked(path, chunk_size)
        assert evaluation.n == len(reference)
        assert (
            evaluation.quarantine.counts_by_reason()
            == reference.quarantine.counts_by_reason()
        )
        assert (
            evaluation.quarantine.n_rejected
            == reference.quarantine.n_rejected
        )

    @pytest.mark.parametrize("chunk_size", [37, 256])
    def test_verdicts_and_values_match_in_memory_evaluation(
        self, corrupted_log, chunk_size
    ):
        path, _ = corrupted_log
        dataset = Dataset.load_jsonl(path, mode="quarantine")
        evaluation = self._evaluate_chunked(path, chunk_size)
        policies = [UniformRandomPolicy(), ConstantPolicy(1)]
        for pi, policy in enumerate(policies):
            for ei, estimator_cls in enumerate(self.ESTIMATORS):
                reference = estimator_cls().estimate(policy, dataset)
                chunked = evaluation.results[pi][ei]
                assert math.isfinite(chunked.value)
                assert chunked.value == pytest.approx(
                    reference.value, rel=1e-8, abs=1e-8
                )
                assert chunked.diagnostics is not None
                assert (
                    chunked.diagnostics.verdict
                    == reference.diagnostics.verdict
                )
                assert (
                    chunked.diagnostics.reasons
                    == reference.diagnostics.reasons
                )


class TestCliOnCorruptedLog:
    def test_evaluate_quarantine_mode_end_to_end(
        self, corrupted_log, capsys
    ):
        from repro.__main__ import main

        path, _ = corrupted_log
        code = main(
            [
                "evaluate",
                path,
                "--mode",
                "quarantine",
                "--policy",
                "constant:1",
                "--estimator",
                "auto",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "constant[1]" in captured.out
        assert "rejected" in captured.err  # quarantine summary on stderr

    def test_whole_log_run_counts_each_defect_once(
        self, corrupted_log, tmp_path, capsys
    ):
        # The whole-log fold reads the log once, so its quarantine,
        # validation counters and quarantine-rate monitor see each
        # defect once, exactly as a streamed run's fold pass does.
        import json

        from repro.__main__ import main

        path, _ = corrupted_log
        runs = []
        for extra in ([], ["--chunk-size", "64"]):
            manifest = tmp_path / "manifest.json"
            assert main(
                ["evaluate", path, "--mode", "quarantine", "--monitors",
                 "--manifest", str(manifest), *extra]
            ) == 0
            runs.append(json.loads(manifest.read_text()))
        capsys.readouterr()
        whole, chunked = runs
        reference = Dataset.load_jsonl(path, mode="quarantine")
        rejected = reference.quarantine.n_rejected
        assert whole["quarantine"]["n_rejected"] == rejected
        assert whole["quarantine"] == chunked["quarantine"]
        (counter,) = (
            metric for name, metric in whole["metrics"].items()
            if name.startswith("validation.")
        )
        assert {
            series["labels"]["reason"]: series["value"]
            for series in counter["series"]
        } == reference.quarantine.counts_by_reason()
        assert counter == chunked["metrics"]["validation.rejected"]
        rate = whole["health"]["monitors"]["quarantine_rate"]
        assert rate == chunked["health"]["monitors"]["quarantine_rate"]
        assert rate["value"] == pytest.approx(
            rejected / (rejected + len(reference))
        )

    def test_evaluate_strict_mode_fails_cleanly(self, corrupted_log, capsys):
        from repro.__main__ import main

        path, _ = corrupted_log
        code = main(["evaluate", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "line" in captured.err

    def test_chunked_backend_end_to_end_on_corrupted_log(
        self, corrupted_log, capsys
    ):
        from repro.__main__ import main

        path, _ = corrupted_log
        code = main(
            [
                "evaluate",
                path,
                "--chunk-size",
                "128",
                "--mode",
                "quarantine",
                "--policy",
                "constant:1",
                "--estimator",
                "auto",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "chunks)" in captured.out  # the streamed path's banner
        assert "constant[1]" in captured.out
        assert "rejected" in captured.err  # quarantine summary on stderr
