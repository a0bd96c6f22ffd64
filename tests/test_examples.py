"""Smoke tests for the runnable examples the docs promise.

Each example doubles as executable documentation (docs/tutorial.md
walks through ``batch_harvest.py`` step by step), so CI runs them for
real — a drifting API breaks these before it breaks a reader.
"""

import subprocess
import sys


def run_example(name: str, timeout: int = 120):
    return subprocess.run(
        [sys.executable, f"examples/{name}"],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestBatchHarvestExample:
    def test_runs_end_to_end(self):
        result = run_example("batch_harvest.py")
        assert result.returncode == 0, result.stderr
        out = result.stdout
        assert "harvested 20000 rows" in out
        assert "per-row mode (batch_size=1) is bit-identical: OK" in out
        assert "uniform-random" in out
        assert "0 quarantined" in out
        assert "manifest schema v" in out
        assert out.rstrip().endswith("done.")


class TestVerifyLedgerExample:
    def test_runs_end_to_end(self):
        result = run_example("verify_ledger.py")
        assert result.returncode == 0, result.stderr
        out = result.stdout
        assert "harvested 300 rows" in out
        assert "clean log verifies: OK" in out
        assert "first bad line 150" in out
        assert "2 intact segment(s)" in out
        assert "rechained 299 survivors (quarantined 1): OK" in out
        assert "middle shard re-derived in isolation: bit-identical" in out
        assert out.rstrip().endswith("done.")


class TestDistributedHarvestExample:
    def test_runs_end_to_end(self):
        result = run_example("distributed_harvest.py")
        assert result.returncode == 0, result.stderr
        out = result.stdout
        assert "harvested 600 rows in 5 shard(s) of 128" in out
        assert "shard 0 rows [0, 128) prev 00000000" in out
        assert "per-shard verification: OK — 5 shard(s)" in out
        assert "shard 1 re-derived in isolation: bit-identical" in out
        assert out.rstrip().endswith("done.")


class TestOnlineServingExample:
    def test_runs_end_to_end(self):
        result = run_example("online_serving.py")
        assert result.returncode == 0, result.stderr
        out = result.stdout
        assert "serving synthetic on 127.0.0.1" in out
        assert "served 1024 decisions under v1 (incumbent)" in out
        assert "shadowed greedy on 1024 decisions" in out
        assert "gate promoted greedy" in out
        assert "post-swap decisions come from v3 (greedy)" in out
        assert "ledger chain verifies: OK" in out
        assert "offline toolchain re-reads 1040 logged decisions" in out
        assert out.rstrip().endswith("done.")
