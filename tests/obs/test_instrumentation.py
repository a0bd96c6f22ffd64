"""Instrumentation wired through the pipeline: coverage and neutrality.

Two properties matter: (1) estimates are bit-identical with tracing on
vs off — observation must not perturb the computation; (2) an
instrumented streamed run with a seeded bootstrap produces a span
tree covering validation, every chunk fold, and every bootstrap shard,
with metric totals that reconcile against the run's own counts.
"""

import math

import pytest

from repro.core.bootstrap import BOOTSTRAP_SHARD, bootstrap_interval_from_terms
from repro.core.engine import evaluate_jsonl_chunked
from repro.core.estimators.base import EstimatorResult
from repro.core.estimators.direct import DirectMethodEstimator
from repro.core.estimators.doubly_robust import DoublyRobustEstimator
from repro.core.estimators.fallback import select_down_ladder
from repro.core.estimators.ips import IPSEstimator, SNIPSEstimator
from repro.core.policies import ConstantPolicy, UniformRandomPolicy
from repro.core.validation import Quarantine
from repro.obs.metrics import use_metrics
from repro.obs.tracing import use_tracer
from repro.obs.report import flatten_spans
from tests.conftest import make_uniform_dataset

#: The two fold drivers: one whole-log fold in memory, and the
#: streamed file driver folding 64-row chunks.
ENGINES = ("whole", "chunked")


def estimate_on(engine, estimator, policy, dataset, tmp_path):
    """``estimator``'s estimate of ``policy`` on ``dataset`` by ``engine``."""
    if engine == "whole":
        return estimator.estimate(policy, dataset)
    path = tmp_path / "log.jsonl"
    if not path.exists():
        dataset.save_jsonl(str(path))
    evaluation = evaluate_jsonl_chunked(
        str(path), [policy], [estimator], chunk_size=64,
        action_space=dataset.action_space,
    )
    return evaluation.results[0][0]


class TestObservationNeutrality:
    """Tracing on vs off changes nothing about the numbers."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("estimator_cls", [IPSEstimator, SNIPSEstimator])
    def test_estimates_bit_identical(self, engine, estimator_cls, tmp_path):
        dataset = make_uniform_dataset(400, seed=5)
        policy = ConstantPolicy(1)
        estimator = estimator_cls()
        plain = estimate_on(engine, estimator, policy, dataset, tmp_path)
        with use_tracer(), use_metrics():
            traced = estimate_on(engine, estimator, policy, dataset, tmp_path)
        assert traced.value == plain.value  # bit-identical, not approx
        assert traced.std_error == plain.std_error
        assert traced.n == plain.n
        assert traced.effective_n == plain.effective_n

    def test_chunked_file_run_bit_identical(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        make_uniform_dataset(300, seed=9).save_jsonl(path)
        policies = [UniformRandomPolicy(), ConstantPolicy(0)]
        kwargs = dict(chunk_size=64)
        plain = evaluate_jsonl_chunked(
            path, policies, [IPSEstimator()], **kwargs
        )
        with use_tracer(), use_metrics():
            traced = evaluate_jsonl_chunked(
                path, policies, [IPSEstimator()], **kwargs
            )
        for row_plain, row_traced in zip(plain.results, traced.results):
            for a, b in zip(row_plain, row_traced):
                assert a.value == b.value
                assert a.std_error == b.std_error

    def test_bootstrap_interval_bit_identical(self):
        terms = make_uniform_dataset(200, seed=3).rewards()
        plain = bootstrap_interval_from_terms(terms, seed=7, n_boot=100)
        with use_tracer(), use_metrics():
            traced = bootstrap_interval_from_terms(terms, seed=7, n_boot=100)
        assert traced.low == plain.low
        assert traced.high == plain.high


class TestWholeLogFold:
    """By default the log is one block: read once, hashed once."""

    def test_reads_hashes_and_fits_once(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        make_uniform_dataset(500, seed=4).save_jsonl(path)
        with use_tracer() as tracer:
            evaluation = evaluate_jsonl_chunked(
                path,
                [UniformRandomPolicy(), ConstantPolicy(1)],
                [DoublyRobustEstimator(), DirectMethodEstimator()],
            )
        assert (evaluation.n, evaluation.n_chunks) == (500, 1)
        (root,) = tracer.span_tree()
        assert root["name"] == "evaluate.jsonl"
        counts = {}
        for _, span in flatten_spans([root]):
            counts[span["name"]] = counts.get(span["name"], 0) + 1
        assert counts["jsonl.read"] == 1
        assert counts["features.hash"] == 1
        assert counts["reward_model.fit"] == 1
        assert counts["evaluate.chunk"] == 1


class TestAcceptanceRun:
    """Streamed run + seeded bootstrap with full instrumentation on."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("obsrun")
        path = str(tmp_path / "log.jsonl")
        dataset = make_uniform_dataset(500, seed=21)
        dataset.save_jsonl(path)
        # Append rows validation must quarantine.
        with open(path, "a", encoding="utf-8") as handle:
            for _ in range(3):
                handle.write(
                    '{"context": {"load": 0.5}, "action": 0, '
                    '"reward": 0.4, "propensity": 0.0}\n'
                )
        n_boot = 300
        with use_tracer() as tracer, use_metrics() as metrics:
            evaluation = evaluate_jsonl_chunked(
                path,
                [UniformRandomPolicy(), ConstantPolicy(1)],
                [IPSEstimator()],
                chunk_size=128,
                mode="quarantine",
                collect_terms=True,
            )
            interval = bootstrap_interval_from_terms(
                evaluation.terms[("uniform-random", "ips")],
                seed=11,
                n_boot=n_boot,
            )
        return evaluation, interval, tracer, metrics, n_boot

    def _span_counts(self, tracer):
        counts = {}
        for _, span in flatten_spans(tracer.span_tree()):
            counts[span["name"]] = counts.get(span["name"], 0) + 1
        return counts

    def test_span_tree_covers_the_run(self, run):
        evaluation, _interval, tracer, _metrics, n_boot = run
        counts = self._span_counts(tracer)
        assert counts["evaluate.jsonl"] == 1
        assert counts["evaluate.validation"] == 1
        assert counts["evaluate.fold"] == 1
        assert counts["evaluate.finalize"] == 1
        # Every chunk fold and every bootstrap shard landed a span.
        assert counts["evaluate.chunk"] == evaluation.n_chunks
        expected_shards = math.ceil(n_boot / BOOTSTRAP_SHARD)
        assert counts["bootstrap.shard"] == expected_shards
        assert counts["bootstrap.replicates"] == 1

    def test_worker_spans_are_nested_under_the_fold(self, run):
        _evaluation, _interval, tracer, _metrics, _n_boot = run
        paths = [path for path, _ in flatten_spans(tracer.span_tree())]
        assert any(
            path.endswith("evaluate.fold/evaluate.chunk") for path in paths
        )
        assert any(
            path.endswith("bootstrap.replicates/bootstrap.shard")
            for path in paths
        )

    def test_metrics_reconcile_with_run_counts(self, run):
        evaluation, _interval, _tracer, metrics, n_boot = run
        assert metrics.total("validation.rejected") == (
            evaluation.quarantine.n_rejected
        )
        assert metrics.total("validation.rejected") == 3
        assert metrics.total("engine.rows_ingested") == evaluation.n
        assert metrics.total("engine.chunk_folds") == evaluation.n_chunks
        assert metrics.total("engine.chunk_fold_seconds") == (
            evaluation.n_chunks
        )
        expected_shards = math.ceil(n_boot / BOOTSTRAP_SHARD)
        assert metrics.total("bootstrap.shards") == expected_shards
        assert metrics.total("bootstrap.replicates") == n_boot
        assert metrics.total("estimator.verdicts") == len(
            evaluation.policy_names
        )


class TestMetricMirroring:
    def test_quarantine_mirrors_to_registry(self):
        with use_metrics() as metrics:
            quarantine = Quarantine()
            quarantine.add(1, "propensity", "bad")
            quarantine.add(2, "reward", "bad")
            quarantine.note_repair("reward")
        assert metrics.value(
            "validation.rejected", reason="propensity"
        ) == 1.0
        assert metrics.value("validation.rejected", reason="reward") == 1.0
        assert metrics.total("validation.repaired") == 1.0

    def test_discovery_pass_quarantine_opts_out(self):
        with use_metrics() as metrics:
            quarantine = Quarantine(record_metrics=False)
            quarantine.add(1, "propensity", "bad")
        assert metrics.total("validation.rejected") == 0.0
        assert quarantine.n_rejected == 1  # the report itself still counts

    def test_fallback_downgrade_is_counted_per_run(self):
        def _result(value, estimator):
            return EstimatorResult(
                value=value, std_error=0.1, n=10, effective_n=5,
                estimator=estimator,
            )

        results = [_result(float("nan"), "ips"), _result(0.4, "ips-clipped")]
        with use_metrics() as metrics:
            chosen = select_down_ladder(iter(results), "auto", "policy-x")
        assert chosen.details["degraded"] is True
        assert metrics.total("fallback.downgrades") == 1.0
        assert metrics.value(
            "fallback.downgrades", ladder="auto", served_by="ips-clipped"
        ) == 1.0
        assert metrics.value(
            "fallback.attempts", estimator="ips", accepted="false"
        ) == 1.0
        assert metrics.value(
            "fallback.attempts", estimator="ips-clipped", accepted="true"
        ) == 1.0

    def test_verdicts_counted_identically_across_backends(self, tmp_path):
        dataset = make_uniform_dataset(200, seed=17)
        policy = ConstantPolicy(0)
        totals = {}
        for engine in ENGINES:
            with use_metrics() as metrics:
                estimate_on(engine, IPSEstimator(), policy, dataset, tmp_path)
            totals[engine] = metrics.total("estimator.verdicts")
        assert totals == dict.fromkeys(ENGINES, 1.0)

    def test_harvest_rows_counted_per_scenario(self):
        import numpy as np

        from repro.machinehealth.dataset import (
            build_full_feedback_dataset,
            simulate_exploration,
        )

        full = build_full_feedback_dataset(
            n_events=60, n_machines=20, seed=0
        )
        with use_metrics() as metrics, use_tracer() as tracer:
            exploration = simulate_exploration(
                full.full, np.random.default_rng(1)
            )
        assert metrics.value(
            "harvest.rows", scenario="machinehealth"
        ) == len(exploration)
        names = [span["name"] for _, span in flatten_spans(tracer.span_tree())]
        assert "harvest.machinehealth" in names
