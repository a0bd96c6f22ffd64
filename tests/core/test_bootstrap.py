"""Unit tests for bootstrap confidence intervals.

The resampling kernel draws one replicate index matrix per call, in row
blocks, counts each replicate's draws once and sums every policy's terms
over those counts.  The suites below pin it to the per-policy reference
in ``tests/oracles.py`` (each policy drawing its whole matrix and
counting every replicate itself) value for value, to the historical
gather reference within a relative bound fixed by the dtype, and pin
the numpy property that makes the row blocks possible.
"""

import numpy as np
import pytest

from repro.core.bootstrap import (
    BLOCK_BYTES,
    BOOTSTRAP_SHARD,
    _percentile_interval,
    _replicate_sums,
    bootstrap_interval_from_terms,
    bootstrap_ips_interval,
    bootstrap_snips_interval,
)
from repro.core.estimators.ips import SNIPSEstimator
from repro.core.policies import ConstantPolicy, EpsilonGreedyPolicy
from repro.core.types import ActionSpace, Dataset, Interaction
from repro.obs.metrics import use_metrics
from repro.obs.report import flatten_spans
from repro.obs.tracing import use_tracer

from tests import oracles
from tests.conftest import make_uniform_dataset


def true_value(action: int) -> float:
    return 0.2 + 0.15 * action + 0.3 * 0.5


class TestTermBootstrap:
    def test_contains_sample_mean(self):
        rng = np.random.default_rng(0)
        terms = rng.exponential(1.0, size=400)
        ci = bootstrap_interval_from_terms(terms, rng=rng)
        assert ci.contains(float(terms.mean()))

    def test_width_shrinks_with_n(self):
        rng = np.random.default_rng(1)
        small = bootstrap_interval_from_terms(
            rng.exponential(1.0, 100), rng=np.random.default_rng(2)
        )
        large = bootstrap_interval_from_terms(
            rng.exponential(1.0, 10000), rng=np.random.default_rng(2)
        )
        assert large.width < small.width

    def test_deterministic_with_seeded_rng(self):
        terms = np.random.default_rng(3).uniform(size=200)
        a = bootstrap_interval_from_terms(terms, rng=np.random.default_rng(9))
        b = bootstrap_interval_from_terms(terms, rng=np.random.default_rng(9))
        assert a == b

    def test_coverage_simulation(self):
        """~95% of bootstrap intervals should contain the true mean."""
        rng = np.random.default_rng(4)
        covered = 0
        for _ in range(150):
            samples = rng.uniform(0, 1, size=120)  # true mean 0.5
            ci = bootstrap_interval_from_terms(samples, n_boot=400, rng=rng)
            covered += ci.contains(0.5)
        assert covered >= 0.85 * 150

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_interval_from_terms(np.array([1.0]))
        with pytest.raises(ValueError):
            bootstrap_interval_from_terms(np.ones(10), delta=1.5)
        with pytest.raises(ValueError):
            bootstrap_interval_from_terms(np.ones(10), n_boot=2)


class TestIPSBootstrap:
    def test_contains_truth(self):
        dataset = make_uniform_dataset(4000, seed=5)
        ci = bootstrap_ips_interval(
            ConstantPolicy(1), dataset, rng=np.random.default_rng(0)
        )
        assert ci.contains(true_value(1))

    def test_interval_centered_near_point_estimate(self):
        from repro.core.estimators.ips import IPSEstimator

        dataset = make_uniform_dataset(2000, seed=6)
        point = IPSEstimator().estimate(ConstantPolicy(0), dataset).value
        ci = bootstrap_ips_interval(
            ConstantPolicy(0), dataset, rng=np.random.default_rng(1)
        )
        assert ci.low <= point <= ci.high


class TestSNIPSBootstrap:
    def test_contains_truth(self):
        dataset = make_uniform_dataset(4000, seed=7)
        ci = bootstrap_snips_interval(
            ConstantPolicy(2), dataset, rng=np.random.default_rng(2)
        )
        assert ci.contains(true_value(2))

    def test_tighter_than_ips_bootstrap(self):
        dataset = make_uniform_dataset(1500, seed=8)
        ips_ci = bootstrap_ips_interval(
            ConstantPolicy(1), dataset, rng=np.random.default_rng(3)
        )
        snips_ci = bootstrap_snips_interval(
            ConstantPolicy(1), dataset, rng=np.random.default_rng(3)
        )
        assert snips_ci.width < ips_ci.width

    def test_never_matching_candidate_rejected(self):
        ds = Dataset(action_space=ActionSpace(3))
        for t in range(20):
            ds.append(Interaction({}, 0, 0.5, 0.5, float(t)))
        with pytest.raises(ValueError):
            bootstrap_snips_interval(ConstantPolicy(2), ds)


class TestRowBlockDraws:
    """Consecutive row-block draws from one Generator equal one draw.

    The blocked kernel is bit-identical to drawing the whole
    ``(count, n)`` index matrix only because numpy's bounded-integer
    draws continue one stream across calls, whatever the block sizes
    (odd sizes included: a 64-bit output split into two 32-bit draws
    keeps its spare half in the generator between calls).
    """

    STREAMS = {
        "seed-shard": lambda: np.random.default_rng((7, 3)),
        "rng": lambda: np.random.default_rng(11),
    }

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    @pytest.mark.parametrize("n", [2, 3, 19_999, 20_000, 200_001])
    def test_blocks_concatenate_to_one_draw(self, n, stream):
        blocks = (5, 1, 7, 2, 4)
        whole = self.STREAMS[stream]().integers(
            0, n, size=(sum(blocks), n)
        )
        rng = self.STREAMS[stream]()
        drawn = np.concatenate(
            [rng.integers(0, n, size=(rows, n)) for rows in blocks]
        )
        np.testing.assert_array_equal(drawn, whole)

    def test_blocks_continue_a_stream_left_mid_output(self):
        # An explicit rng may arrive with half a 64-bit output spare.
        first, second = np.random.default_rng(3), np.random.default_rng(3)
        first.integers(0, 5, size=1)
        second.integers(0, 5, size=1)
        whole = first.integers(0, 19_999, size=(9, 19_999))
        drawn = np.concatenate(
            [second.integers(0, 19_999, size=(rows, 19_999))
             for rows in (4, 3, 2)]
        )
        np.testing.assert_array_equal(drawn, whole)


#: Terms per row: odd, and large enough that a 256-replicate shard
#: spans three uneven blocks (104, 104, 48 replicates).
N_TERMS = 5_003

#: ``(replication, key)``: the sharded stream at two seeds, and the
#: explicit-rng stream, ``key`` seeding its generator.
MODES = [("seed", 1), ("seed", 2), ("rng", 1)]

#: How far a counts sum may sit from the gather's, relative.  Summing n
#: nonnegative terms in any order is within about ``n * eps / 2`` of the
#: exact sum, relative, so two orders agree within ``n * eps``, and a
#: ratio of two such sums within twice that.
GATHER_RTOL = N_TERMS * np.finfo(float).eps


def replication(mode: str, key: int) -> dict:
    """Fresh keyword arguments naming the replicate stream."""
    if mode == "seed":
        return {"seed": key}
    return {"rng": np.random.default_rng(key)}


def percentile(replicates, delta=0.05) -> tuple:
    return (
        float(np.quantile(replicates, delta / 2.0)),
        float(np.quantile(replicates, 1.0 - delta / 2.0)),
    )


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestPercentile:
    """The interval's quantiles are ``np.quantile``'s, bit for bit."""

    @pytest.mark.parametrize("n", [10, 11, 37, 199, 200, 201, 1000, 1001])
    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.1, 0.2, 1 / 3, 0.5, 0.9])
    def test_equals_np_quantile(self, n, delta):
        rng = np.random.default_rng(n)
        samples = (
            rng.normal(size=n),
            rng.normal(size=n) * 1e300,
            rng.integers(-2, 3, size=n).astype(float),
            # Signed zeros: the partition, not a sort, places them.
            rng.choice([0.0, -0.0, 1.0, -1.0], size=n),
        )
        for replicates in samples:
            interval = _percentile_interval(replicates, delta)
            expected = percentile(replicates, delta)
            assert _bits(interval.low) == _bits(expected[0])
            assert _bits(interval.high) == _bits(expected[1])

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    def test_special_values_match(self, special):
        replicates = np.random.default_rng(3).normal(size=200)
        replicates[17] = special
        interval = _percentile_interval(replicates, 0.05)
        with np.errstate(invalid="ignore"):
            expected = percentile(replicates, 0.05)
        for got, want in zip((interval.low, interval.high), expected):
            assert got == want or (np.isnan(got) and np.isnan(want))


class TestSharedKernel:
    """One draw for every row equals each policy drawing alone."""

    @pytest.fixture(scope="class")
    def terms(self):
        rng = np.random.default_rng(6)
        hit_rates = np.array([[0.05], [0.4], [1.0]])
        return rng.exponential(size=(3, N_TERMS)) * (
            rng.uniform(size=(3, N_TERMS)) < hit_rates
        )

    @pytest.fixture(scope="class")
    def snips_log(self):
        dataset = make_uniform_dataset(N_TERMS, seed=12)
        policy = EpsilonGreedyPolicy(ConstantPolicy(1), 0.3)
        weights = SNIPSEstimator().match_weights(policy, dataset)
        return dataset, policy, weights * dataset.rewards(), weights

    def test_sizes_exercise_blocks(self):
        assert 1 < BLOCK_BYTES // (16 * N_TERMS) < BOOTSTRAP_SHARD

    @pytest.mark.parametrize("mode, key", MODES)
    @pytest.mark.parametrize("n_boot", [10, 200, 256, 257, 1000])
    def test_ips_means_equal_the_reference_row_by_row(
        self, terms, n_boot, mode, key
    ):
        stream = replication(mode, key)
        sums = _replicate_sums(
            terms, n_boot, stream.get("rng"), stream.get("seed")
        )
        intervals = bootstrap_interval_from_terms(
            terms, n_boot=n_boot, **replication(mode, key)
        )
        assert len(intervals) == len(terms)
        for row, row_sums, interval in zip(terms, sums, intervals):
            means = oracles.bootstrap_replicates(
                oracles.mean_shard, (row,), n_boot, **replication(mode, key)
            )
            np.testing.assert_array_equal(row_sums / N_TERMS, means)
            assert (interval.low, interval.high) == percentile(means)
            assert interval == bootstrap_interval_from_terms(
                row, n_boot=n_boot, **replication(mode, key)
            )

    @pytest.mark.parametrize("mode, key", MODES)
    @pytest.mark.parametrize("n_boot", [10, 200, 256, 257, 1000])
    def test_snips_ratios_equal_the_reference(
        self, snips_log, n_boot, mode, key
    ):
        dataset, policy, numerators, weights = snips_log
        ratios = oracles.bootstrap_replicates(
            oracles.ratio_shard, (numerators, weights), n_boot,
            **replication(mode, key),
        )
        interval = bootstrap_snips_interval(
            policy, dataset, n_boot=n_boot, **replication(mode, key)
        )
        expected = percentile(ratios[np.isfinite(ratios)])
        assert (interval.low, interval.high) == expected

    @pytest.mark.parametrize("mode, key", MODES)
    def test_ips_means_match_the_gather_reference(self, terms, mode, key):
        intervals = bootstrap_interval_from_terms(
            terms, n_boot=1000, **replication(mode, key)
        )
        for row, interval in zip(terms, intervals):
            gathered = oracles.bootstrap_replicates(
                oracles.gather_mean_shard, (row,), 1000,
                **replication(mode, key),
            )
            counted = oracles.bootstrap_replicates(
                oracles.mean_shard, (row,), 1000, **replication(mode, key)
            )
            np.testing.assert_allclose(counted, gathered, rtol=GATHER_RTOL)
            np.testing.assert_allclose(
                (interval.low, interval.high), percentile(gathered),
                rtol=GATHER_RTOL,
            )

    @pytest.mark.parametrize("mode, key", MODES)
    def test_snips_ratios_match_the_gather_reference(
        self, snips_log, mode, key
    ):
        dataset, policy, numerators, weights = snips_log
        ratios = [
            oracles.bootstrap_replicates(
                shard, (numerators, weights), 1000, **replication(mode, key)
            )
            for shard in (oracles.ratio_shard, oracles.gather_ratio_shard)
        ]
        np.testing.assert_allclose(*ratios, rtol=2 * GATHER_RTOL)
        interval = bootstrap_snips_interval(
            policy, dataset, n_boot=1000, **replication(mode, key)
        )
        gathered = ratios[1]
        np.testing.assert_allclose(
            (interval.low, interval.high),
            percentile(gathered[np.isfinite(gathered)]),
            rtol=2 * GATHER_RTOL,
        )

    def test_sums_do_not_depend_on_the_memory_layout(self, terms):
        expected = _replicate_sums(terms, 200, None, 1)
        strided = np.repeat(terms, 2, axis=1)[:, ::2]
        for layout in (np.asfortranarray(terms), strided):
            np.testing.assert_array_equal(
                _replicate_sums(layout, 200, None, 1), expected
            )

    def test_vector_returns_one_interval_matrix_a_list(self, terms):
        single = bootstrap_interval_from_terms(terms[1], n_boot=50, seed=2)
        rows = bootstrap_interval_from_terms(terms, n_boot=50, seed=2)
        assert isinstance(rows, list) and rows[1] == single

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match="vector or a"):
            bootstrap_interval_from_terms(np.ones((2, 2, 5)))


class TestOneDrawPerCall:
    """Spans and counters count draws, not the policies sharing one."""

    def _run(self, terms, calls=1, **kwargs):
        with use_tracer() as tracer, use_metrics() as metrics:
            for _ in range(calls):
                bootstrap_interval_from_terms(terms, **kwargs)
        counts = {}
        replicates = []
        for _, span in flatten_spans(tracer.span_tree()):
            counts[span["name"]] = counts.get(span["name"], 0) + 1
            if span["name"] == "bootstrap.replicates":
                replicates.append(span["attributes"])
        return counts, replicates, metrics

    @pytest.mark.parametrize("calls", [1, 2])
    def test_seeded_class_is_one_draw(self, calls):
        terms = np.random.default_rng(1).uniform(size=(11, 300))
        counts, spans, metrics = self._run(
            terms, calls, n_boot=600, seed=7
        )
        assert counts["bootstrap.replicates"] == len(spans) == calls
        assert counts["bootstrap.shard"] == 3 * calls
        for span in spans:
            assert span == {
                "n_boot": 600, "seed": 7, "shards": 3, "policies": 11,
            }
        assert metrics.total("bootstrap.replicates") == 600 * calls
        assert metrics.total("bootstrap.shards") == 3 * calls

    def test_unseeded_stream_is_one_shard(self):
        terms = np.random.default_rng(1).uniform(size=(2, 300))
        counts, (span,), metrics = self._run(terms, n_boot=600)
        assert counts["bootstrap.shard"] == 1
        assert span["seed"] is None and span["shards"] == 1
        assert metrics.total("bootstrap.replicates") == 600

