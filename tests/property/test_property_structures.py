"""Property-based tests for core data structures and substrates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.store import KeyValueStore
from repro.core.estimators.bounds import (
    ab_testing_error_bound,
    hoeffding_interval,
    ips_error_bound,
    ips_sample_size,
)
from repro.core.features import Featurizer
from repro.core.policies import EpsilonGreedyPolicy, ConstantPolicy, SoftmaxPolicy
from repro.core.types import RewardRange
from repro.simsys.events import Simulator
from repro.simsys.metrics import PercentileTracker

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


class TestRewardRangeProperties:
    @given(
        st.floats(-100, 100, allow_nan=False),
        st.floats(0.001, 100, allow_nan=False),
        finite_floats,
        st.booleans(),
    )
    def test_normalize_of_clip_always_unit(self, low, width, reward, maximize):
        rr = RewardRange(low, low + width, maximize=maximize)
        unit = rr.normalize(rr.clip(reward))
        assert 0.0 <= unit <= 1.0

    @given(st.floats(-10, 10, allow_nan=False), st.floats(0.01, 10))
    def test_normalize_endpoints(self, low, width):
        rr = RewardRange(low, low + width, maximize=True)
        assert rr.normalize(low) == pytest.approx(0.0)
        assert rr.normalize(low + width) == pytest.approx(1.0)


class TestPolicyDistributionProperties:
    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(2, 8),
        st.integers(0, 7),
    )
    def test_epsilon_greedy_sums_to_one(self, epsilon, n_actions, base):
        base_action = base % n_actions
        policy = EpsilonGreedyPolicy(ConstantPolicy(base_action), epsilon)
        probs = policy.distribution({}, list(range(n_actions)))
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()
        assert probs.min() >= epsilon / n_actions - 1e-12

    @given(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=6),
        st.floats(0.01, 100.0),
    )
    def test_softmax_is_distribution(self, scores, temperature):
        policy = SoftmaxPolicy(
            lambda ctx, a: scores[a], temperature=temperature
        )
        probs = policy.distribution({}, list(range(len(scores))))
        assert probs.sum() == pytest.approx(1.0)
        # Extreme score gaps at low temperature may underflow to 0.
        assert (probs >= 0).all()
        assert probs.max() > 0


class TestFeaturizerProperties:
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=10),
            st.floats(-100, 100, allow_nan=False),
            max_size=8,
        ),
        st.floats(-5, 5, allow_nan=False),
    )
    def test_linearity_in_values(self, context, scale):
        featurizer = Featurizer(n_dims=32, bias=False)
        base = featurizer.vector(context)
        scaled = featurizer.vector({k: v * scale for k, v in context.items()})
        np.testing.assert_allclose(scaled, scale * base, atol=1e-6)

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=10),
            st.floats(-100, 100, allow_nan=False),
            max_size=8,
        )
    )
    def test_determinism(self, context):
        featurizer = Featurizer(n_dims=16)
        np.testing.assert_array_equal(
            featurizer.vector(context), featurizer.vector(dict(context))
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    # Few names over 2-4 dims: slots collide constantly,
                    # and rows list shared names in different orders.
                    st.sampled_from(["a", "b", "c", "d", "load", "x=1", "é"]),
                    st.one_of(
                        st.booleans(),
                        st.integers(-(2**62), 2**62),
                        st.floats(-1e6, 1e6, allow_nan=False),
                    ),
                ),
                max_size=6,
                unique_by=lambda item: item[0],
            ),
            max_size=12,
        ),
        st.integers(2, 4),
        st.booleans(),
    )
    def test_matrix_is_stacked_vectors_bit_for_bit(self, rows, n_dims, bias):
        featurizer = Featurizer(n_dims=n_dims, bias=bias)
        contexts = [dict(row) for row in rows]
        matrix = featurizer.matrix(contexts)
        stacked = (
            np.stack([featurizer.vector(c) for c in contexts])
            if contexts
            else np.zeros((0, n_dims))
        )
        assert matrix.shape == stacked.shape
        assert np.array_equal(matrix, stacked)
        assert matrix.tobytes() == stacked.tobytes()

    def test_vector_override_keeps_per_row_path(self):
        class Doubled(Featurizer):
            def vector(self, context):
                return 2.0 * super().vector(context)

        contexts = [{"a": 1.5, "b": -2.0}, {"b": 3.0, "a": 0.25}, {}]
        doubled = Doubled(n_dims=4)
        expected = np.stack([doubled.vector(c) for c in contexts])
        assert np.array_equal(doubled.matrix(contexts), expected)
        assert not np.array_equal(
            Featurizer(n_dims=4).matrix(contexts), expected
        )
        # A subclass never shares a memo entry with the base class.
        assert doubled.cache_key != Featurizer(n_dims=4).cache_key


class TestBoundsProperties:
    @given(
        st.floats(0.001, 0.5),
        st.floats(0.01, 1.0),
        st.floats(1, 1e9),
        st.floats(0.001, 0.5),
    )
    def test_sample_size_round_trips(self, target, epsilon, k, delta):
        n = ips_sample_size(target, epsilon, k=k, delta=delta)
        assert ips_error_bound(n, epsilon, k=k, delta=delta) == pytest.approx(
            target, rel=1e-9
        )

    @given(st.floats(1, 1e7), st.floats(0.01, 1.0), st.floats(1, 1e6))
    def test_more_data_never_hurts(self, n, epsilon, k):
        assert ips_error_bound(2 * n, epsilon, k=k) < ips_error_bound(
            n, epsilon, k=k
        )

    @given(st.floats(10, 1e7), st.floats(1, 1e6))
    def test_ab_bound_monotone_in_k(self, n, k):
        assert ab_testing_error_bound(n, k=2 * k) > ab_testing_error_bound(
            n, k=k
        )

    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=200)
    )
    def test_hoeffding_contains_sample_mean(self, samples):
        arr = np.asarray(samples)
        ci = hoeffding_interval(arr)
        assert ci.contains(float(arr.mean()))


class TestPercentileTrackerProperties:
    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                 max_size=300)
    )
    def test_matches_numpy(self, values):
        tracker = PercentileTracker("x")
        for v in values:
            tracker.observe(v)
        assert tracker.mean() == pytest.approx(float(np.mean(values)))
        assert tracker.percentile(50) == pytest.approx(
            float(np.percentile(values, 50))
        )
        assert tracker.p99() == pytest.approx(float(np.percentile(values, 99)))


class TestSimulatorProperties:
    @given(st.lists(st.floats(0.0, 100.0, allow_nan=False), max_size=40))
    def test_events_fire_in_sorted_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestKeyValueStoreProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 5)),
            min_size=1,
            max_size=100,
        )
    )
    def test_memory_accounting_invariant(self, operations):
        """Under any access/insert sequence with forced eviction,
        used_memory equals the sum of resident sizes and never exceeds
        the budget."""
        from repro.cache.eviction import (
            SampledEvictionEngine,
            random_eviction_policy,
        )
        from repro.simsys.random_source import RandomSource

        store = KeyValueStore(16)
        engine = SampledEvictionEngine(
            random_eviction_policy(), randomness=RandomSource(0)
        )
        for t, (key_id, size) in enumerate(operations):
            key = f"k{key_id}"
            if not store.access(key, float(t)):
                engine.make_room(store, size, float(t))
                store.insert(key, size, float(t))
            resident = sum(store.item(k).size for k in store.keys)
            assert store.used_memory == resident
            assert store.used_memory <= 16
