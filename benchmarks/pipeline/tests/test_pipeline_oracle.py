"""The IPS oracle against ``IPSEstimator`` and the printed ``evaluate`` table."""

import os
import subprocess
import sys

import numpy as np
import pytest

import checks
from repro.core import (
    ConstantPolicy,
    Dataset,
    Interaction,
    IPSEstimator,
    UniformRandomPolicy,
)

SRC = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "..", "src"
)


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    """A 600-row log over 3 actions with non-uniform logging propensities."""
    rng = np.random.default_rng(11)
    probabilities = np.array([0.5, 0.3, 0.2])
    interactions = []
    for t in range(600):
        action = int(rng.choice(3, p=probabilities))
        interactions.append(
            Interaction(
                context={"x": float(rng.normal())},
                action=action,
                reward=float(rng.normal(1.0 + action, 0.5)),
                propensity=float(probabilities[action]),
                timestamp=float(t),
            )
        )
    path = str(tmp_path_factory.mktemp("oracle") / "log.jsonl")
    Dataset(interactions).save_jsonl(path)
    return path


@pytest.mark.parametrize(
    "spec, policy",
    [
        ("uniform", UniformRandomPolicy()),
        ("constant:0", ConstantPolicy(0)),
        ("constant:2", ConstantPolicy(2)),
    ],
)
def test_oracle_matches_ips_estimator(small_log, spec, policy):
    expected = IPSEstimator().estimate(policy, Dataset.load_jsonl(small_log))
    columns = checks.load_columns(small_log)
    assert checks.ips_oracle(columns, spec) == pytest.approx(
        expected.value, rel=1e-12
    )


def test_check_ips_accepts_evaluate_output_and_catches_a_wrong_value(small_log):
    specs = ("uniform", "constant:0", "constant:2")
    argv = [sys.executable, "-m", "repro", "evaluate", small_log,
            "--estimator", "ips", "--estimator", "dr"]
    for spec in specs:
        argv += ["--policy", spec]
    env = dict(os.environ, PYTHONPATH=SRC)
    stdout = subprocess.run(argv, env=env, capture_output=True, text=True,
                            check=True, timeout=120).stdout
    columns = checks.load_columns(small_log)
    assert checks.check_ips(stdout, columns, specs) == []
    table = checks.parse_table(stdout)
    assert set(table) == {"uniform-random", "constant[0]", "constant[2]"}
    assert all(len(values) == 2 for values in table.values())
    printed = f"{table['constant[0]'][0]:.4f}"
    tampered = stdout.replace(printed, f"{float(printed) + 0.001:.4f}", 1)
    failures = checks.check_ips(tampered, columns, specs)
    assert len(failures) == 1 and "constant[0]" in failures[0]
