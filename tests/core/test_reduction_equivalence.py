"""Property-style equivalence suite for the reduction kernel.

The contract of :mod:`repro.core.estimators.reductions`: an in-memory
estimate folds the whole log once, and the JSONL file driver folds the
same reductions chunk by chunk as the log streams by, so

- every estimator matches the per-row reference in ``tests/oracles.py``
  in memory and streamed at every chunk size (1, a prime, N, N+1),
  including diagnostics verdicts;
- the accumulators are exact however the log is split into folds (the
  q99 tail) or combined (Chan's moments);
- the out-of-core JSONL driver matches the in-memory fold;
- seeded bootstrap replicates are a pure function of the seed, and the
  explicit-rng stream still draws the historical replicates.
"""

import numpy as np
import pytest

from repro.core.bootstrap import bootstrap_interval_from_terms
from repro.core.engine import evaluate_jsonl_chunked
from repro.core.estimators.direct import DirectMethodEstimator
from repro.core.estimators.doubly_robust import DoublyRobustEstimator
from repro.core.estimators.fallback import FallbackEstimator
from repro.core.estimators.ips import (
    ClippedIPSEstimator,
    IPSEstimator,
    SNIPSEstimator,
)
from repro.core.estimators.reductions import Moments, WeightStats
from repro.core.estimators.switch import SwitchEstimator
from repro.core.policies import (
    ConstantPolicy,
    EpsilonGreedyPolicy,
    UniformRandomPolicy,
)
from repro.core.types import ActionSpace, Dataset, Interaction

from tests import oracles

N = 223  # deliberately not a multiple of any chunk size below
CHUNK_SIZES = (1, 7, N, N + 1)


def make_skewed_dataset(n=N, seed=0, action_space=True):
    """A log with skewed propensities so weights have a real tail."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        context = {
            "load": float(rng.uniform()),
            "latency": float(rng.uniform()),
        }
        action = int(rng.choice(3, p=[0.6, 0.3, 0.1]))
        propensity = [0.6, 0.3, 0.1][action]
        reward = float(
            np.clip(context["load"] * (action + 1) / 3
                    + rng.normal(0, 0.05), 0, 1)
        )
        rows.append(Interaction(context, action, reward, propensity))
    return Dataset(rows, action_space=ActionSpace(3) if action_space else None)


def all_estimators():
    return [
        IPSEstimator(),
        ClippedIPSEstimator(max_weight=4.0),
        SNIPSEstimator(),
        DirectMethodEstimator(),
        DoublyRobustEstimator(),
        SwitchEstimator(tau=3.0),
        FallbackEstimator(),
    ]


def all_policies():
    return [
        UniformRandomPolicy(),
        ConstantPolicy(1),
        EpsilonGreedyPolicy(ConstantPolicy(2), 0.25),
    ]


def assert_results_match(got, ref, rel=1e-9):
    __tracebackhide__ = True
    if np.isnan(ref.value):
        assert np.isnan(got.value)
    else:
        assert got.value == pytest.approx(ref.value, rel=rel, abs=rel)
    if np.isfinite(ref.std_error):
        assert got.std_error == pytest.approx(ref.std_error, rel=rel, abs=rel)
    else:
        assert got.std_error == ref.std_error
    assert got.n == ref.n
    assert got.effective_n == ref.effective_n
    # Verdicts must match exactly — a chunked run that downgrades (or
    # upgrades) reliability would make out-of-core evaluation lie.
    if ref.diagnostics is None:
        assert got.diagnostics is None
    else:
        assert got.diagnostics is not None
        assert got.diagnostics.verdict == ref.diagnostics.verdict
        assert got.diagnostics.reasons == ref.diagnostics.reasons
    for key in ("match_rate", "clipped_fraction", "switch_fraction",
                "effective_sample_size"):
        if key in ref.details:
            assert got.details[key] == pytest.approx(
                ref.details[key], rel=rel, abs=rel
            ), key


def save_jsonl(dataset, tmp_path, name="log.jsonl"):
    path = str(tmp_path / name)
    dataset.save_jsonl(path)
    return path


class TestBackendEquivalence:
    @pytest.mark.parametrize("with_space", [True, False],
                             ids=["action-space", "spaceless"])
    def test_all_backends_agree_for_every_estimator(
        self, with_space, tmp_path
    ):
        dataset = make_skewed_dataset(action_space=with_space)
        path = save_jsonl(dataset, tmp_path)
        policies = all_policies()
        estimators = all_estimators()
        refs = [
            [oracles.estimate(estimator, policy, dataset)
             for estimator in estimators]
            for policy in policies
        ]
        for policy, row in zip(policies, refs):
            for estimator, ref in zip(estimators, row):
                assert_results_match(estimator.estimate(policy, dataset), ref)
        for chunk_size in CHUNK_SIZES:
            evaluation = evaluate_jsonl_chunked(
                path, policies, estimators, chunk_size=chunk_size,
                action_space=dataset.action_space,
            )
            assert evaluation.n_chunks == -(-N // chunk_size)
            for got_row, ref_row in zip(evaluation.results, refs):
                for got, ref in zip(got_row, ref_row):
                    # Chunked folds reassociate the moment and
                    # model-based gram sums; a hair looser than the one
                    # whole-log fold.
                    assert_results_match(got, ref, rel=1e-8)

    def test_match_weights_identical_across_backends(self):
        dataset = make_skewed_dataset()
        policy = EpsilonGreedyPolicy(ConstantPolicy(0), 0.1)
        ips = IPSEstimator()
        ref = ips.match_weights(policy, dataset)
        np.testing.assert_allclose(
            ref, oracles.match_weights(policy, dataset), rtol=1e-12
        )
        # The IPS fold seeds the weight memo with its own weights.
        folded = make_skewed_dataset()
        ips.estimate(policy, folded)
        np.testing.assert_array_equal(ref, ips.match_weights(policy, folded))

    def test_fallback_audit_trail_matches_on_chunked(self, tmp_path):
        dataset = make_skewed_dataset()
        policy = ConstantPolicy(2)
        ref = oracles.estimate(FallbackEstimator(), policy, dataset)
        evaluation = evaluate_jsonl_chunked(
            save_jsonl(dataset, tmp_path), [policy], [FallbackEstimator()],
            chunk_size=13, action_space=dataset.action_space,
        )
        chunked = evaluation.results[0][0]
        assert chunked.estimator == ref.estimator
        assert chunked.details["degraded"] == ref.details["degraded"]
        assert [a["verdict"] for a in chunked.details["fallback"]] == [
            a["verdict"] for a in ref.details["fallback"]
        ]


class TestMergeAssociativity:
    def test_moments_merge_matches_batch(self):
        rng = np.random.default_rng(4)
        values = rng.exponential(size=1000)
        merged = Moments()
        for part in np.array_split(values, 13):
            other = Moments.from_array(part)
            merged.merge_in(other)
        assert merged.n == 1000
        assert merged.mean == pytest.approx(values.mean(), rel=1e-12)
        expected_se = values.std(ddof=1) / np.sqrt(values.size)
        assert merged.std_error() == pytest.approx(expected_se, rel=1e-10)

    def test_weightstats_q99_exact_under_any_partition(self):
        rng = np.random.default_rng(9)
        weights = rng.pareto(2.0, size=N)
        whole = WeightStats.for_rows(N)
        whole.fold(weights)
        for split in (3, 10, 50):
            folded = WeightStats.for_rows(N)
            for part in np.array_split(weights, split):
                folded.fold(part)
            assert folded.q99() == whole.q99()
            assert folded.maximum == whole.maximum
            assert folded.n == whole.n
            assert folded.total == pytest.approx(whole.total, rel=1e-12)


class TestJsonlDriver:
    @pytest.fixture()
    def log_file(self, tmp_path):
        dataset = make_skewed_dataset(n=401, seed=5)
        path = tmp_path / "log.jsonl"
        dataset.save_jsonl(str(path))
        return str(path), dataset

    def test_file_driver_matches_in_memory(self, log_file):
        path, _ = log_file
        policies = all_policies()
        estimators = all_estimators()
        evaluation = evaluate_jsonl_chunked(
            path, policies, estimators, chunk_size=64
        )
        assert evaluation.n == 401
        assert evaluation.n_chunks == 7
        loaded = Dataset.load_jsonl(path)
        for pi, policy in enumerate(policies):
            for ei, estimator in enumerate(estimators):
                ref = estimator.estimate(policy, loaded)
                assert_results_match(
                    evaluation.results[pi][ei], ref, rel=1e-8
                )

    def test_collected_terms_match_weighted_rewards(self, log_file):
        path, _ = log_file
        policy = ConstantPolicy(1)
        evaluation = evaluate_jsonl_chunked(
            path, [policy], [IPSEstimator()], chunk_size=50,
            collect_terms=True,
        )
        loaded = Dataset.load_jsonl(path)
        expected = IPSEstimator().weighted_rewards(policy, loaded)
        np.testing.assert_allclose(
            evaluation.terms[(policy.name, "ips")], expected, rtol=1e-12
        )

    def test_collects_only_the_ips_terms(self, log_file):
        # The bootstrap resamples IPS terms; no other vector is kept.
        path, _ = log_file
        policies = [UniformRandomPolicy(), ConstantPolicy(1)]
        evaluation = evaluate_jsonl_chunked(
            path, policies, all_estimators(), chunk_size=50,
            collect_terms=True,
        )
        assert sorted(evaluation.terms) == sorted(
            (policy.name, "ips") for policy in policies
        )

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_bad_chunk_size_raises(self, log_file, chunk_size):
        path, _ = log_file
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            evaluate_jsonl_chunked(
                path, [UniformRandomPolicy()], [IPSEstimator()],
                chunk_size=chunk_size,
            )

    def test_empty_log_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no valid interactions"):
            evaluate_jsonl_chunked(
                str(path), [UniformRandomPolicy()], [IPSEstimator()]
            )


class TestBootstrapSharding:
    @pytest.fixture()
    def terms(self):
        rng = np.random.default_rng(6)
        return rng.exponential(size=1501) * (rng.uniform(size=1501) < 0.4)

    def test_seed_reproduces_across_runs(self, terms):
        a = bootstrap_interval_from_terms(terms, seed=3, n_boot=500)
        b = bootstrap_interval_from_terms(terms, seed=3, n_boot=500)
        c = bootstrap_interval_from_terms(terms, seed=4, n_boot=500)
        assert (a.low, a.high) == (b.low, b.high)
        assert (a.low, a.high) != (c.low, c.high)

    def test_rng_and_seed_mutually_exclusive(self, terms):
        with pytest.raises(ValueError, match="not both"):
            bootstrap_interval_from_terms(
                terms, rng=np.random.default_rng(0), seed=1
            )

    def test_legacy_rng_path_unchanged(self, terms):
        # The historical default (rng(0), one index matrix) must keep
        # drawing the same replicates — downstream results depend on it.
        # Each replicate now sums over draw counts instead of gathered
        # terms, so the interval matches the gathered one to within the
        # n·eps relative bound of reordering a sum of nonnegative terms.
        rng = np.random.default_rng(0)
        indices = rng.integers(0, terms.size, size=(1000, terms.size))
        means = terms[indices].mean(axis=1)
        expected_low = float(np.quantile(means, 0.025))
        interval = bootstrap_interval_from_terms(terms)
        assert interval.low == pytest.approx(
            expected_low, rel=terms.size * np.finfo(float).eps, abs=0
        )


class TestStreamingOnKernel:
    def test_partitioned_streams_merge_to_whole(self):
        from repro.core.streaming import StreamingIPS

        dataset = make_skewed_dataset(n=500, seed=2)
        space = dataset.action_space
        policy = ConstantPolicy(1)
        whole = StreamingIPS(policy, space)
        whole.update_all(dataset)
        first = StreamingIPS(policy, space)
        second = StreamingIPS(policy, space)
        rows = list(dataset)
        first.update_all(rows[:173])
        second.update_all(rows[173:])
        first.merge_in(second)
        a, b = whole.snapshot(), first.snapshot()
        assert b.n == a.n
        assert b.value == pytest.approx(a.value, rel=1e-12)
        assert b.std_error == pytest.approx(a.std_error, rel=1e-12)
        assert b.match_rate == a.match_rate

    def test_merge_rejects_different_policies(self):
        from repro.core.streaming import StreamingIPS

        space = ActionSpace(3)
        a = StreamingIPS(ConstantPolicy(0), space)
        b = StreamingIPS(ConstantPolicy(1), space)
        with pytest.raises(ValueError, match="different policies"):
            a.merge_in(b)

    def test_streaming_agrees_with_scalar_ips(self):
        from repro.core.streaming import StreamingIPS

        dataset = make_skewed_dataset(n=400, seed=8)
        policy = EpsilonGreedyPolicy(ConstantPolicy(0), 0.2)
        stream = StreamingIPS(policy, dataset.action_space)
        stream.update_all(dataset)
        snap = stream.snapshot()
        result = oracles.estimate(IPSEstimator(), policy, dataset)
        assert snap.value == pytest.approx(result.value, rel=1e-12)
        assert snap.std_error == pytest.approx(result.std_error, rel=1e-12)
