"""Correctness checks on the pipeline's outputs, independent of ``repro``.

The IPS oracle recomputes an estimate from the JSONL log with ``json``
and ``numpy`` only, following the definition rather than the engine:
with the eligible actions taken as the set of actions observed in the
log (how the evaluator reconstructs a log without an action space),

    IPS(π) = mean_t  π(a_t | x_t) · r_t / p_t

where a uniform policy puts ``1/K`` on each eligible action and a
constant policy puts all its mass on one action.
"""

from __future__ import annotations

import json
import re

import numpy as np

#: Half a unit in the last printed place of ``evaluate``'s table.
PRINTED_TOLERANCE = 0.5e-4


def policy_name(spec: str) -> str:
    """The name ``evaluate`` prints for a uniform or constant policy spec."""
    if spec == "uniform":
        return "uniform-random"
    kind, _, action = spec.partition(":")
    if kind == "constant":
        return f"constant[{int(action)}]"
    raise ValueError(f"the oracle covers uniform and constant specs, not {spec!r}")


def load_columns(path: str) -> tuple:
    """``(actions, rewards, propensities)`` arrays of a JSONL log."""
    actions, rewards, propensities = [], [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            actions.append(record["action"])
            rewards.append(record["reward"])
            propensities.append(record["propensity"])
    return (
        np.asarray(actions, dtype=np.int64),
        np.asarray(rewards, dtype=np.float64),
        np.asarray(propensities, dtype=np.float64),
    )


def ips_oracle(columns: tuple, spec: str) -> float:
    """IPS estimate of a uniform or constant policy on a logged log."""
    actions, rewards, propensities = columns
    eligible = np.unique(actions)
    if spec == "uniform":
        target = np.full(len(actions), 1.0 / len(eligible))
    else:
        kind, _, action = spec.partition(":")
        if kind != "constant":
            raise ValueError(f"no oracle for policy spec {spec!r}")
        target = (actions == int(action)).astype(np.float64)
    return float(np.mean(target * rewards / propensities))


#: One ``value ±std_error`` cell of the table.
_CELL = re.compile(r"(\S+) ±\S+")


def parse_table(stdout: str) -> dict:
    """``{policy: [value, ...]}`` from ``evaluate``'s result table."""
    rows: dict = {}
    lines = stdout.splitlines()
    for at, line in enumerate(lines):
        if line and set(line) == {"-"} and lines[at - 1].startswith("policy"):
            for row in lines[at + 1:]:
                cells = list(_CELL.finditer(row))
                if not cells:
                    break
                name = row[: cells[0].start()].strip()
                rows[name] = [float(cell.group(1)) for cell in cells]
            break
    return rows


def check_ips(stdout: str, columns: tuple, specs) -> list:
    """Failures where the printed IPS column (the first) disagrees with the oracle."""
    table = parse_table(stdout)
    failures = []
    for spec in specs:
        name = policy_name(spec)
        if name not in table:
            failures.append(f"evaluate printed no row for {name}")
            continue
        printed = table[name][0]
        expected = ips_oracle(columns, spec)
        if abs(printed - expected) > PRINTED_TOLERANCE + 1e-9 * abs(expected):
            failures.append(
                f"IPS of {name}: evaluate printed {printed:.4f}, "
                f"the log gives {expected:.6f}"
            )
    return failures


def count_lines(path: str) -> int:
    """Non-empty lines in a file."""
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())
