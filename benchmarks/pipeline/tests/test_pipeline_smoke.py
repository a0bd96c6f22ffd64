"""An end-to-end ``--smoke`` run: every workload, every check, under 90 s."""

import json
import os
import subprocess
import sys
import time

RUN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py"
)


def test_smoke_run_checks_outputs_and_reports_every_metric(tmp_path):
    out = tmp_path / "results.json"
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=180,
    )
    elapsed = time.perf_counter() - began
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert elapsed < 90, f"smoke run took {elapsed:.1f}s"
    results = json.loads(out.read_text())
    assert results["stamp"]["mode"] == "smoke"
    assert set(results["stamp"]) >= {"git_sha", "cpu_count", "python",
                                     "numpy", "seed", "mode"}
    expected = {
        "mh-audit": {"harvest_rows_per_s", "verify_rows_per_s",
                     "evaluate_rows_per_s"},
        "lb-search": {"harvest_rows_per_s", "evaluate_rows_per_s"},
        "serve-steady": {"latency_tail_ms", "serve_durable_decisions_per_s"},
        "serve-gated": {"latency_tail_ms", "gate_verdict_s"},
    }
    common = {"setup_s", "pipeline_s", "latency_p50_ms", "peak_rss_mb",
              "ops_failed_ratio"}
    assert set(results["workloads"]) == set(expected)
    for workload, own in expected.items():
        entry = results["workloads"][workload]
        assert set(entry["metrics"]) == common | own, workload
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert entry["metrics"]["ops_failed_ratio"]["median"] == 0
        for name, metric in entry["metrics"].items():
            assert metric["n"] == 1
            if name != "ops_failed_ratio":
                assert metric["median"] > 0, (workload, name)
    # Every metric is printed by name with its unit.
    for name in common:
        assert name in proc.stdout
