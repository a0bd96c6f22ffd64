"""Tests for the synchronous decision core.

The load-bearing claims: a service log is bit-identical to what
``Dataset.save_jsonl`` would write (so the whole offline toolchain
ingests it unchanged), decisions replay deterministically from the
master seed, shadow mode never perturbs the serving stream, and the
canary's mixture propensities are the true marginals.
"""

import tracemalloc

import numpy as np
import pytest

from repro.audit.ledger import verify_jsonl
from repro.core.codec import TABLE_CAP
from repro.core.policies import ConstantPolicy, EpsilonGreedyPolicy, UniformRandomPolicy
from repro.core.types import Dataset
from repro.obs.monitors import MonitorSuite, serving_monitors, use_monitors
from repro.obs.tracing import use_tracer
from repro.serve import DecisionService


def make_service(tmp_path=None, **kwargs):
    defaults = dict(
        pool_rows=256,
        seed=11,
        shard_size=128,
        config={"n_actions": 4},
    )
    defaults.update(kwargs)
    if tmp_path is not None:
        defaults.setdefault("log_path", str(tmp_path / "serve.jsonl"))
    return DecisionService("synthetic", UniformRandomPolicy(), **defaults)


class TestDecide:
    def test_slice_is_aligned_and_contiguous(self):
        service = make_service()
        first = service.decide(10)
        second = service.decide(5)
        assert list(first.ordinals) == list(range(10))
        assert list(second.ordinals) == list(range(10, 15))
        assert first.n == 10 and second.n == 5
        assert service.served == 15

    def test_pool_wraps_by_ordinal(self):
        service = make_service(pool_rows=32)
        decisions = service.decide(80)
        assert list(decisions.rows) == [o % 32 for o in range(80)]

    def test_rewards_follow_the_scenario_law(self):
        service = make_service()
        decisions = service.decide(64)
        expected = ((decisions.rows * 31 + decisions.actions * 17) % 97) / 96.0
        assert np.array_equal(decisions.rewards, expected)

    def test_boot_builds_the_pool_under_a_span(self):
        with use_tracer() as tracer:
            make_service(pool_rows=64)
        (root,) = tracer.span_tree()
        assert root["name"] == "scenario.build"
        assert root["attributes"] == {"scenario": "synthetic", "rows": 64}

    def test_nonpositive_count_rejected(self):
        service = make_service()
        with pytest.raises(ValueError, match="positive"):
            service.decide(0)

    def test_deterministic_replay_across_batchings(self):
        one = make_service()
        parts = [one.decide(k) for k in (7, 100, 150, 43)]
        two = make_service()
        whole = two.decide(300)
        assert np.array_equal(
            np.concatenate([p.actions for p in parts]), whole.actions
        )
        assert np.array_equal(
            np.concatenate([p.propensities for p in parts]),
            whole.propensities,
        )
        assert one.ledger.head == two.ledger.head

    def test_view_carves_without_copying(self):
        service = make_service()
        decisions = service.decide(20)
        view = decisions.view(5, 9)
        assert view.n == 4
        assert list(view.ordinals) == [5, 6, 7, 8]
        assert view.version == decisions.version
        assert np.shares_memory(view.actions, decisions.actions)

    def test_to_dicts_carries_version_attribution(self):
        service = make_service()
        records = service.decide(3).to_dicts()
        assert [r["ordinal"] for r in records] == [0, 1, 2]
        assert all(r["policy_version"] == 1 for r in records)
        assert all(r["policy_name"] == "incumbent" for r in records)


class TestLogRoundTrip:
    def test_flush_produces_verifiable_chain(self, tmp_path):
        service = make_service(tmp_path)
        service.decide(100)
        service.decide(60)
        out = service.flush()
        assert out["written"] == 160
        report = verify_jsonl(
            service.log_path,
            expected_head=service.ledger.head,
            expected_n=160,
        )
        assert report.ok
        service.close()

    def test_log_round_trips_bit_identically(self, tmp_path):
        service = make_service(tmp_path)
        service.decide(300)
        service.flush()
        service.close()
        dataset = Dataset.load_jsonl(service.log_path, verify_ledger="require")
        resaved = tmp_path / "resaved.jsonl"
        dataset.save_jsonl(str(resaved))
        original = open(service.log_path, "rb").read()
        assert original == resaved.read_bytes()

    def test_incremental_flushes_extend_one_chain(self, tmp_path):
        service = make_service(tmp_path)
        heads = []
        for _ in range(3):
            service.decide(50)
            heads.append(service.flush()["head"])
        assert len(set(heads)) == 3
        report = verify_jsonl(
            service.log_path, expected_head=heads[-1], expected_n=150
        )
        assert report.ok
        service.close()

    def test_flush_without_log_path_rejected(self):
        service = make_service()
        service.decide(10)
        with pytest.raises(RuntimeError, match="log_path"):
            service.flush()

    def test_non_empty_log_refused(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        log.write_text("{}\n")
        with pytest.raises(ValueError, match="resuming") as error:
            make_service(log_path=str(log))
        assert str(log) in str(error.value)
        assert log.read_text() == "{}\n"
        log.write_text("")  # an empty file is a new log
        make_service(log_path=str(log)).close()

    def test_flushed_rows_leave_memory(self, tmp_path):
        # Each flush hands the sealed rows to the writer, and the
        # ledger keeps only its head: memory stays flat while serving.
        service = make_service(tmp_path, pool_rows=4_096, shard_size=8_192)
        try:
            for flushes in range(1, 26):
                service.decide(8_192)
                service.flush()
                if flushes == 5:
                    assert service.served == 40_960
                    tracemalloc.start()
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            service.close()
        assert service.served == 204_800
        assert grown < 1_000_000, f"traced memory grew {grown:,} bytes"


    def test_every_pool_context_stays_in_the_table(self, tmp_path):
        # A pool larger than the codec's default table cap keeps all its
        # contexts: after one full-pool flush, the next digests and
        # encodes none.
        service = make_service(tmp_path, pool_rows=8_192, shard_size=8_192)
        try:
            service.decide(8_192)
            service.flush()
            table = service.ledger.contexts
            hits = table.hits
            service.decide(8_192)
            service.flush()
        finally:
            service.close()
        assert len(service.inputs.contexts) == 8_192 > TABLE_CAP
        assert table.hits - hits == 2 * 8_192  # every digest and text


class TestShadow:
    def test_shadow_requires_registered_candidate(self):
        service = make_service()
        with pytest.raises(KeyError):
            service.start_shadow("ghost")

    def test_shadow_never_perturbs_the_serving_stream(self):
        plain = make_service()
        baseline = plain.decide(200)
        shadowed = make_service()
        shadowed.register_candidate("greedy", ConstantPolicy(1))
        shadowed.start_shadow("greedy")
        observed = shadowed.decide(200)
        assert np.array_equal(baseline.actions, observed.actions)
        assert np.array_equal(baseline.propensities, observed.propensities)
        assert plain.ledger.head == shadowed.ledger.head

    def test_shadow_stats_accumulate(self):
        service = make_service()
        service.register_candidate("greedy", ConstantPolicy(1))
        report = service.start_shadow("greedy")
        decisions = service.decide(120)
        summary = report.summary()
        assert summary["n"] == 120
        expected_agreement = float(np.mean(decisions.actions == 1))
        assert summary["agreement_rate"] == pytest.approx(expected_agreement)
        assert summary["mean_propensity"] == pytest.approx(1.0)
        assert summary["start_ordinal"] == 0

    def test_stop_shadow_returns_final_summary(self):
        service = make_service()
        service.register_candidate("greedy", ConstantPolicy(1))
        service.start_shadow("greedy")
        service.decide(30)
        summary = service.stop_shadow("greedy")
        assert summary["n"] == 30
        assert service.shadow_summaries() == []
        with pytest.raises(KeyError):
            service.stop_shadow("greedy")

    def test_double_shadow_rejected(self):
        service = make_service()
        service.register_candidate("greedy", ConstantPolicy(1))
        service.start_shadow("greedy")
        with pytest.raises(ValueError, match="already shadowed"):
            service.start_shadow("greedy")


class TestCanary:
    def test_canary_propensities_are_true_marginals(self):
        service = make_service()
        service.register_candidate(
            "explore", EpsilonGreedyPolicy(ConstantPolicy(1), 0.5)
        )
        service.start_canary("explore", 0.2)
        decisions = service.decide(64)
        assert decisions.policy_name == "canary-explore"
        # Marginal over {uniform 0.8, eps-greedy 0.2}: action 1 gets
        # 0.8·0.25 + 0.2·(0.5 + 0.5/4); the rest get 0.8·0.25 + 0.2·0.125.
        expected = np.where(
            decisions.actions == 1,
            0.8 * 0.25 + 0.2 * 0.625,
            0.8 * 0.25 + 0.2 * 0.125,
        )
        assert np.allclose(decisions.propensities, expected)

    def test_stop_canary_reinstates_base_policy(self):
        service = make_service()
        service.register_candidate("greedy", ConstantPolicy(1))
        service.start_canary("greedy", 0.1)
        service.decide(16)
        summary = service.stop_canary()
        assert summary["name"] == "greedy"
        assert summary["ordinals"] == [0, 16]
        assert service.policies.incumbent.name == "incumbent"
        after = service.decide(8)
        assert np.allclose(after.propensities, 0.25)

    def test_second_canary_rejected_while_running(self):
        service = make_service()
        service.register_candidate("a", ConstantPolicy(0))
        service.register_candidate("b", ConstantPolicy(1))
        service.start_canary("a", 0.1)
        with pytest.raises(RuntimeError, match="already running"):
            service.start_canary("b", 0.1)

    def test_bad_fraction_rejected(self):
        service = make_service()
        service.register_candidate("a", ConstantPolicy(0))
        for fraction in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="fraction"):
                service.start_canary("a", fraction)


class TestMonitorsAndStats:
    def test_serve_monitors_fold_decides(self):
        suite = MonitorSuite(serving_monitors())
        with use_monitors(suite):
            service = make_service()
            service.decide(100)
        states = suite.states()
        assert states["serve.latency"]["served"] == 100
        assert states["serve.errors"]["served"] == 100
        assert suite.overall_level() == "OK"

    def test_stats_snapshot_is_json_able(self):
        import json

        service = make_service()
        service.register_candidate("greedy", ConstantPolicy(1))
        service.start_shadow("greedy")
        service.decide(40)
        stats = service.stats()
        json.dumps(stats)
        assert stats["served"] == 40
        assert stats["incumbent"] == {"version": 1, "name": "incumbent"}
        assert stats["candidates"] == ["greedy"]
        assert stats["ledger"]["n"] == 40

    def test_manifest_serving_section(self):
        import json

        service = make_service()
        section = service.manifest_serving_section()
        json.dumps(section)
        assert section["scenario"] == "synthetic"
        assert section["history"][0]["reason"] == "boot"


class TestScenarioPools:
    @pytest.mark.parametrize(
        "scenario,pool_rows,config",
        [
            ("machinehealth", 96, {}),
            ("loadbalance", 96, {}),
            # Cache pools one context per EVICT event, so the request
            # count must overrun a small capacity to produce a pool.
            ("cache", 400, {"capacity": 30, "n_big": 5, "n_small": 40}),
        ],
    )
    def test_real_scenarios_serve_and_verify(
        self, scenario, pool_rows, config, tmp_path
    ):
        log = tmp_path / f"{scenario}.jsonl"
        service = DecisionService(
            scenario,
            UniformRandomPolicy(),
            pool_rows=pool_rows,
            seed=5,
            shard_size=64,
            log_path=str(log),
            config=config,
        )
        decisions = service.decide(2 * service.inputs.n + 7)
        assert decisions.n == 2 * service.inputs.n + 7
        assert np.all(decisions.propensities > 0)
        service.flush()
        report = verify_jsonl(str(log), expected_head=service.ledger.head)
        assert report.ok
        dataset = Dataset.load_jsonl(str(log), verify_ledger="require")
        assert len(dataset) == decisions.n
        service.close()
