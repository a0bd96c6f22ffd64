"""Tests for the OPE promotion gate and its subprocess runner.

The gate is the safety property of the serving loop: no candidate is
promoted without a reliable offline win over the incumbent, and an
evaluation that crashes — or is SIGKILLed — resolves to a refusal, not
a hang.
"""

import os
import signal

import pytest

from repro.core.engine import STREAM_CHUNK_SIZE
from repro.core.policies import ConstantPolicy, UniformRandomPolicy
from repro.obs.report import flatten_spans
from repro.obs.tracing import use_tracer
from repro.serve import DecisionService, GateConfig, GateRunner, evaluate_candidate
from repro.serve.gate import GateDecision


#: On the 8-row synthetic pool, action 2 averages 0.600 reward while
#: the uniform incumbent averages ~0.512 — a gap DR resolves easily
#: from a few hundred logged rows.
GOOD_ACTION = 2


def serve_log(tmp_path, rows=512, name="serve.jsonl"):
    """Serve ``rows`` uniform decisions on synthetic; return the log path."""
    service = DecisionService(
        "synthetic",
        UniformRandomPolicy(),
        pool_rows=8,
        seed=3,
        shard_size=128,
        log_path=str(tmp_path / name),
        config={"n_actions": 4},
    )
    service.decide(rows)
    service.flush()
    service.close()
    return service.log_path


class TestEvaluateCandidate:
    def test_better_candidate_promotes(self, tmp_path):
        log = serve_log(tmp_path)
        decision = evaluate_candidate(
            log, "greedy", ConstantPolicy(GOOD_ACTION), UniformRandomPolicy()
        )
        assert decision.promote
        assert decision.reasons == ()
        assert decision.n == 512
        assert decision.candidate_value > decision.incumbent_value
        assert decision.verdict is not None
        assert decision.details["estimator"] == "doubly-robust"

    def test_thin_log_is_refused(self, tmp_path):
        log = serve_log(tmp_path, rows=64)
        decision = evaluate_candidate(
            log, "greedy", ConstantPolicy(GOOD_ACTION), UniformRandomPolicy(),
            GateConfig(min_rows=256),
        )
        assert not decision.promote
        assert any("64 rows" in reason for reason in decision.reasons)

    def test_margin_blocks_marginal_wins(self, tmp_path):
        log = serve_log(tmp_path)
        decision = evaluate_candidate(
            log, "greedy", ConstantPolicy(GOOD_ACTION), UniformRandomPolicy(),
            GateConfig(margin=10.0),
        )
        assert not decision.promote
        assert any("margin" in reason for reason in decision.reasons)

    def test_missing_log_becomes_refusal_not_exception(self, tmp_path):
        decision = evaluate_candidate(
            str(tmp_path / "absent.jsonl"), "greedy",
            ConstantPolicy(GOOD_ACTION), UniformRandomPolicy(),
        )
        assert not decision.promote
        assert any(
            reason.startswith("evaluation failed")
            for reason in decision.reasons
        )

    def test_gate_folds_in_bounded_chunks(self, tmp_path):
        # A gate must not compete with serving for RAM: it streams the
        # log in STREAM_CHUNK_SIZE blocks, discovery then fold.
        log = serve_log(tmp_path, rows=20_000)
        with use_tracer() as tracer:
            decision = evaluate_candidate(
                log, "greedy", ConstantPolicy(GOOD_ACTION),
                UniformRandomPolicy(),
            )
        assert decision.n == 20_000
        (root,) = tracer.span_tree()
        by_name = {}
        for _, span in flatten_spans([root]):
            by_name.setdefault(span["name"], []).append(span)
        chunks = by_name["evaluate.chunk"]
        full = STREAM_CHUNK_SIZE
        assert [c["attributes"]["rows"] for c in chunks] == [
            full, full, 20_000 - 2 * full
        ]
        (validation,) = by_name["evaluate.validation"]
        (fold,) = by_name["evaluate.fold"]
        for one_pass in (validation, fold):
            reads = [
                child for child in one_pass["children"]
                if child["name"] == "jsonl.read"
            ]
            assert [r["attributes"]["rows"] for r in reads] == [
                c["attributes"]["rows"] for c in chunks
            ]
        assert len(by_name["jsonl.read"]) == 6

    def test_decision_round_trips_through_dict(self):
        decision = GateDecision(
            candidate="x", promote=False, reasons=("a", "b"),
            candidate_value=0.5, incumbent_value=0.6, verdict="OK",
            n=10, details={"estimator": "dr"},
        )
        assert GateDecision.from_dict(decision.to_dict()) == decision


class TestGateRunner:
    def test_subprocess_gate_reports_a_decision(self, tmp_path):
        log = serve_log(tmp_path)
        runner = GateRunner(
            log, "greedy", ConstantPolicy(GOOD_ACTION), UniformRandomPolicy()
        )
        decision = runner.wait(timeout=60)
        assert decision is not None
        assert decision.promote
        # Polling after the decision keeps returning the same object.
        assert runner.poll() is decision
        assert runner.wait() is decision

    def test_sigkilled_subprocess_yields_refusal(self, tmp_path):
        log = serve_log(tmp_path)
        runner = GateRunner(
            log, "greedy", ConstantPolicy(GOOD_ACTION), UniformRandomPolicy()
        )
        os.kill(runner.pid, signal.SIGKILL)
        decision = runner.wait(timeout=60)
        assert decision is not None
        assert not decision.promote
        assert any(
            "died without reporting" in reason and "-9" in reason
            for reason in decision.reasons
        )

    def test_terminate_abandons_cleanly(self, tmp_path):
        log = serve_log(tmp_path)
        runner = GateRunner(
            log, "greedy", ConstantPolicy(GOOD_ACTION), UniformRandomPolicy()
        )
        runner.terminate()
        assert not runner.process.is_alive()


class TestServiceGateLifecycle:
    def make_service(self, tmp_path):
        service = DecisionService(
            "synthetic",
            UniformRandomPolicy(),
            pool_rows=8,
            seed=3,
            shard_size=128,
            log_path=str(tmp_path / "serve.jsonl"),
            config={"n_actions": 4},
        )
        service.register_candidate("greedy", ConstantPolicy(GOOD_ACTION))
        return service

    def test_gate_promotes_through_the_service(self, tmp_path):
        service = self.make_service(tmp_path)
        service.decide(512)
        service.start_gate("greedy")
        decision = service.gate.wait(timeout=60)
        assert decision is not None
        polled = service.poll_gate()
        assert polled.promote
        assert service.gate is None
        assert service.policies.incumbent.name == "greedy"
        assert service.gate_decisions == [polled]
        service.close()

    def test_gate_requires_a_log(self):
        service = DecisionService(
            "synthetic", UniformRandomPolicy(), pool_rows=64,
            config={"n_actions": 4},
        )
        service.register_candidate("greedy", ConstantPolicy(GOOD_ACTION))
        with pytest.raises(RuntimeError, match="log_path"):
            service.start_gate("greedy")

    def test_second_gate_rejected_while_running(self, tmp_path):
        service = self.make_service(tmp_path)
        service.register_candidate("other", ConstantPolicy(0))
        service.decide(512)
        service.start_gate("greedy")
        try:
            with pytest.raises(RuntimeError, match="already running"):
                service.start_gate("other")
        finally:
            service.close()

    def test_failed_gate_leaves_incumbent_alone(self, tmp_path):
        service = self.make_service(tmp_path)
        service.decide(64)
        service.start_gate("greedy", GateConfig(min_rows=256))
        service.gate.wait(timeout=60)
        decision = service.poll_gate()
        assert not decision.promote
        assert service.policies.incumbent.name == "incumbent"
        # The refused candidate stays registered for another round.
        assert "greedy" in service.policies.candidates()
        service.close()
