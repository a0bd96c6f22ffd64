"""Out-of-core acceptance: streamed evaluation under a hard memory cap.

``evaluate --chunk-size`` exists for logs that don't fit in memory.
This suite proves it the blunt way: evaluate a 500k-row JSONL log in a
subprocess whose *address space* is capped with ``RLIMIT_AS`` at a
level the default whole-log path demonstrably cannot satisfy — the
same policy/estimator run MemoryErrors there — and check the streamed
run completes and prints the same estimates as an uncapped whole-log
run.

Sizing (measured on CPython 3.11 / NumPy baseline ≈150 MB of VA): the
whole-log path loads 500k rows as columns and needs between 288 and
320 MB of address space, while the streamed path folds 8192-row chunks
in one process and fits in 192 MB.  The 240 MB cap splits those with
margin on both sides.  A streamed run's bootstrap must fit under the
same cap: it keeps the policies' IPS term vectors (8 bytes a row
each) and draws its replicate indices in bounded row blocks, where one
``(200, 500000)`` index matrix alone would need 763 MiB.

``REPRO_MEMORY_ROWS`` scales the log down for quick local iterations;
CI runs the full default (see ``.github/workflows/ci.yml``,
``memory-smoke`` job).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="RLIMIT_AS semantics are only dependable on Linux",
)

N_ROWS = int(os.environ.get("REPRO_MEMORY_ROWS", "500000"))
CAP_BYTES = 240 * 2**20
SRC = str(Path(__file__).resolve().parents[2] / "src")

EVALUATE_ARGS = [
    "--policy", "constant:1",
    "--policy", "uniform",
    "--estimator", "ips",
]


@pytest.fixture(scope="module")
def big_log(tmp_path_factory):
    """A 500k-row exploration log, written without building a Dataset."""
    import json

    path = tmp_path_factory.mktemp("outofcore") / "big.jsonl"
    rng = np.random.default_rng(17)
    propensities = (0.5, 0.3, 0.2)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(N_ROWS):
            action = int(rng.integers(3))
            load = round(float(rng.uniform()), 4)
            handle.write(json.dumps({
                "context": {"load": load},
                "action": action,
                "reward": round(load * (action + 1) / 3.0, 4),
                "propensity": propensities[action],
                "timestamp": float(i),
            }) + "\n")
    return str(path)


def run_evaluate(path, cap_bytes=None, extra=()):
    def limit():
        if cap_bytes is not None:
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "evaluate", path,
         *EVALUATE_ARGS, *extra],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
        timeout=600,
    )


class TestAddressSpaceCap:
    def test_vectorized_cannot_fit_under_the_cap(self, big_log):
        result = run_evaluate(big_log, cap_bytes=CAP_BYTES)
        assert result.returncode != 0, (
            "the whole-log path fit under the cap — raise N_ROWS or "
            "lower CAP_BYTES, the test no longer separates the two paths"
        )
        assert "MemoryError" in result.stderr

    def test_chunked_completes_under_the_same_cap(self, big_log):
        result = run_evaluate(
            big_log, cap_bytes=CAP_BYTES, extra=("--chunk-size", "8192"),
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert f"({N_ROWS} interactions" in result.stdout
        assert "constant[1]" in result.stdout

    def test_capped_chunked_matches_uncapped_vectorized(self, big_log):
        chunked = run_evaluate(
            big_log, cap_bytes=CAP_BYTES, extra=("--chunk-size", "8192"),
        )
        vectorized = run_evaluate(big_log)
        assert chunked.returncode == 0, chunked.stderr[-2000:]
        assert vectorized.returncode == 0, vectorized.stderr[-2000:]
        # Identical tables (4-decimal estimates and stderrs) modulo the
        # banner line, which counts chunks only on the streamed path.
        assert (
            chunked.stdout.splitlines()[1:]
            == vectorized.stdout.splitlines()[1:]
        )

    def test_streamed_bootstrap_fits_under_the_cap(self, big_log):
        bootstrap = ("--bootstrap", "200", "--seed", "7")
        capped = run_evaluate(
            big_log,
            cap_bytes=CAP_BYTES,
            extra=("--chunk-size", "8192") + bootstrap,
        )
        uncapped = run_evaluate(big_log, extra=bootstrap)
        assert capped.returncode == 0, capped.stderr[-2000:]
        assert uncapped.returncode == 0, uncapped.stderr[-2000:]

        def intervals(stdout):
            return [
                line for line in stdout.splitlines()
                if line.startswith("bootstrap[")
            ]

        # One interval per policy, the same as the uncapped whole-log
        # run prints for the same seed.
        assert len(intervals(capped.stdout)) == 2
        assert intervals(capped.stdout) == intervals(uncapped.stdout)
