"""Batch harvesting end to end: generate → validate → evaluate → report.

The tutorial companion (docs/tutorial.md).  One pass through the
batched harvest engine:

- harvest a 20k-row machine-health exploration log with
  ``simulate_exploration_columns`` (one ``act_batch`` call per 8192
  rows, one reward gather per batch);
- demonstrate the determinism contract — ``batch_size=1`` reproduces
  the same log bit for bit;
- round-trip the log through JSONL with quarantine validation;
- evaluate candidate policies by streaming the log in 4096-row chunks;
- write a provenance manifest recording the whole run.

Run:  python examples/batch_harvest.py         (finishes in seconds)
"""

import os
import tempfile

import numpy as np

from repro.core import ConstantPolicy, UniformRandomPolicy
from repro.core.engine import evaluate_jsonl_chunked
from repro.core.estimators.ips import IPSEstimator, SNIPSEstimator
from repro.machinehealth import build_full_feedback_dataset
from repro.machinehealth.dataset import simulate_exploration_columns
from repro.obs.manifest import RunManifest, result_entry
from repro.obs.metrics import use_metrics
from repro.obs.tracing import use_tracer

N_INCIDENTS = 20_000


def main() -> None:
    print("1. generating full-feedback incidents ...")
    scenario = build_full_feedback_dataset(n_events=N_INCIDENTS, seed=11)

    print("2. batch-harvesting the exploration log ...")
    with use_tracer() as tracer, use_metrics() as metrics:
        columns = simulate_exploration_columns(
            scenario.full, np.random.default_rng(4), batch_size=8192
        )
    rows = metrics.value("harvest.rows", scenario="machinehealth")
    print(f"   harvested {columns.n} rows "
          f"(metrics counted {rows:.0f}, "
          f"{len(tracer.span_tree())} root span)")

    # The determinism contract: per-row mode (batch_size=1) redraws
    # the identical log for the same seeded generator.
    per_row = simulate_exploration_columns(
        scenario.full, np.random.default_rng(4), batch_size=1
    )
    assert (per_row.actions == columns.actions).all()
    assert (per_row.propensities == columns.propensities).all()
    print("   per-row mode (batch_size=1) is bit-identical: OK")

    with tempfile.TemporaryDirectory() as tmp:
        log_path = os.path.join(tmp, "exploration.jsonl")
        manifest_path = os.path.join(tmp, "run_manifest.json")

        print("3. saving + revalidating as JSONL ...")
        dataset = columns.to_dataset()
        dataset.save_jsonl(log_path)

        print("4. evaluating candidates, streaming 4096-row chunks ...")
        policies = [
            UniformRandomPolicy(),
            ConstantPolicy(0, name="wait-1"),
            ConstantPolicy(9, name="wait-10"),
        ]
        estimators = [IPSEstimator(), SNIPSEstimator()]
        with use_tracer() as tracer, use_metrics() as metrics:
            evaluation = evaluate_jsonl_chunked(
                log_path, policies, estimators,
                chunk_size=4096, mode="quarantine",
            )
        for policy, row in zip(policies, evaluation.results):
            cells = "  ".join(
                f"{est.name}={res.value:7.1f}±{res.std_error:5.1f}"
                for est, res in zip(estimators, row)
            )
            print(f"   {policy.name:<16s} {cells}")
        print(f"   ({evaluation.n} rows in {evaluation.n_chunks} chunks, "
              f"{evaluation.quarantine.n_rejected} quarantined)")

        print("5. writing the provenance manifest ...")
        manifest = RunManifest.build(
            command="examples/batch_harvest.py",
            input_path=log_path,
            config={"n_incidents": N_INCIDENTS, "batch_size": 8192},
            results=[
                result_entry(policy.name, row[0])
                for policy, row in zip(policies, evaluation.results)
            ],
            metrics=metrics,
            tracer=tracer,
            quarantine=evaluation.quarantine,
        )
        manifest.save(manifest_path)
        reloaded = RunManifest.load(manifest_path)
        print(f"   manifest schema v{reloaded.to_dict()['schema_version']}, "
              f"input digest {reloaded.to_dict()['input']['sha256'][:12]}…")

    print("done.")


if __name__ == "__main__":
    main()
