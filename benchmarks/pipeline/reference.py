"""A fixed unit of work that measures how fast the machine is right now.

Usage::

    python benchmarks/pipeline/reference.py

It starts an interpreter, imports numpy and does the kinds of work the
pipeline does — JSON encoding and decoding, a SHA-256 hash chain, numpy
sorting and reductions — on fixed inputs, and prints a digest of the
result.  It imports nothing from ``repro``, so no change to the program
changes its cost: ``run.py`` times it between the program's stages and
divides the program's times by it (see ``Sample.adjust`` in ``run.py``).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

#: Passes over the fixed inputs; sized so that the work, not interpreter
#: start-up, is most of a spawn.
ROUNDS = 8
RECORDS = 2500
SAMPLES = 150_000


def work(rounds: int = ROUNDS) -> str:
    """Run the fixed work ``rounds`` times; a digest of the results."""
    rng = np.random.default_rng(12345)
    head = b"\0" * 32
    total = 0.0
    for _ in range(rounds):
        records = [
            {
                "context": {"cpu": (i * 7919) % 101 / 100.0, "mem": i % 13,
                            "host": f"h{i % 37}"},
                "action": i % 10,
                "reward": (i % 17) / 16.0,
                "propensity": 0.1 + (i % 9) / 10.0,
            }
            for i in range(RECORDS)
        ]
        lines = [json.dumps(record, sort_keys=True) for record in records]
        for line in lines:
            head = hashlib.sha256(head + line.encode()).digest()
        decoded = [json.loads(line) for line in lines]
        total += sum(r["reward"] / r["propensity"] for r in decoded)
        x = rng.standard_normal(SAMPLES)
        bins = rng.integers(0, 1000, size=SAMPLES)
        total += float(np.sort(x)[100] + np.bincount(bins, weights=x).sum()
                       + np.cumsum(x * x)[-1])
    return f"{head.hex()[:16]} {total:.6f}"


if __name__ == "__main__":
    print(work())
