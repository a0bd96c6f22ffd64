"""Shared-memory transport: packing fidelity and segment lifecycle.

Two families of guarantees (see :mod:`repro.core.shm`):

- **Fidelity** — a view attached from a packed block is
  indistinguishable from the original columns: same array bits, same
  rebuilt context dicts *in the same insertion order* (hashed
  featurization depends on it), same feature matrices, same eligible
  lists.
- **Lifecycle** — every segment this process creates is unlinked on
  normal completion, on exceptions mid-fold, and at interpreter exit;
  attach never double-registers with the resource tracker, so a clean
  run emits zero leak warnings even under ``-W error``.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.core import shm
from repro.core.columns import DatasetColumns
from repro.core.engine import evaluate_jsonl_chunked, use_engine
from repro.core.estimators.ips import IPSEstimator
from repro.core.features import Featurizer
from repro.core.policies import ConstantPolicy, EpsilonGreedyPolicy
from repro.core.types import ActionSpace, Dataset, Interaction, RewardRange

pytestmark = pytest.mark.skipif(
    not shm.available(), reason="shared memory unavailable"
)


class ExplodingPolicy(ConstantPolicy):
    """Picklable policy that fails inside the fold (any process)."""

    def probabilities_batch(self, batch):
        raise RuntimeError("boom in worker")


def make_dataset(n=60, seed=0, shuffled_keys=False):
    """A small log whose contexts exercise insertion-order fidelity."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        if shuffled_keys and i % 2:
            context = {"b": float(rng.uniform()), "a": float(i)}
        else:
            context = {"a": float(i), "b": float(rng.uniform())}
        action = int(rng.integers(0, 3))
        rows.append(
            Interaction(context, action, float(rng.uniform()), 1 / 3,
                        timestamp=float(i))
        )
    return Dataset(rows, action_space=ActionSpace(3),
                   reward_range=RewardRange(0.0, 1.0))


class TestPackingFidelity:
    def test_descriptor_is_compact_and_picklable(self):
        columns = make_dataset(n=500).columns()
        with shm.pack_columns(columns) as block:
            blob = pickle.dumps(block.descriptor)
            # The whole point: the payload is descriptor-sized no
            # matter how many rows the segment holds.
            assert len(blob) < 2048
            assert block.descriptor.nbytes > 500 * 8

    def test_attached_view_matches_original(self):
        columns = make_dataset(shuffled_keys=True).columns()
        with shm.pack_columns(columns) as block:
            attached = shm.attach_columns(block.descriptor, cache=False)
            for name in ("actions", "rewards", "propensities",
                         "timestamps", "eligible_mask",
                         "eligible_counts"):
                np.testing.assert_array_equal(
                    getattr(attached, name), getattr(columns, name), name
                )
            assert attached.n == columns.n
            assert attached.n_actions == columns.n_actions
            assert attached.uniform_eligibility == columns.uniform_eligibility
            assert attached.reward_range == columns.reward_range
            # Contexts rebuild with identical content AND key order.
            for rebuilt, original in zip(attached.contexts,
                                         columns.contexts):
                assert rebuilt == original
                assert list(rebuilt) == list(original)
            attached = None
            shm.detach(block.descriptor)

    def test_feature_paths_bit_identical(self):
        columns = make_dataset(shuffled_keys=True).columns()
        featurizer = Featurizer(n_dims=16)
        with shm.pack_columns(columns) as block:
            attached = shm.attach_columns(block.descriptor, cache=False)
            np.testing.assert_array_equal(
                attached.feature_matrix(("a", "b", "missing")),
                columns.feature_matrix(("a", "b", "missing")),
            )
            # Hashed featurization sums colliding slots in context
            # iteration order — the order map must preserve it exactly.
            np.testing.assert_array_equal(
                attached.hashed_matrix(featurizer),
                columns.hashed_matrix(featurizer),
            )
            assert attached.eligible_lists == columns.eligible_lists
            attached = None
            shm.detach(block.descriptor)

    def test_non_numeric_context_refused(self):
        rows = [Interaction({"tag": 1.0, "flag": True}, 0, 0.5, 0.5)]
        columns = Dataset(rows, action_space=ActionSpace(2)).columns()
        with pytest.raises(shm.SharedMemoryUnsupported, match="not numeric"):
            shm.pack_columns(columns)
        assert shm.owned_segments() == ()

    def test_oversized_vocabulary_refused(self):
        rows = [
            Interaction({f"k{i}": 1.0 for i in range(shm.MAX_CONTEXT_KEYS + 1)},
                        0, 0.5, 0.5)
        ]
        columns = Dataset(rows, action_space=ActionSpace(2)).columns()
        with pytest.raises(shm.SharedMemoryUnsupported, match="exceed"):
            shm.pack_columns(columns)

    def test_packed_contexts_slice_is_lazy_view(self):
        columns = make_dataset(n=20, shuffled_keys=True).columns()
        with shm.pack_columns(columns) as block:
            attached = shm.attach_columns(block.descriptor, cache=False)
            window = attached.contexts[5:10]
            assert len(window) == 5
            assert window[0] == columns.contexts[5]
            assert list(window[0]) == list(columns.contexts[5])
            window = attached = None
            shm.detach(block.descriptor)


class TestSegmentLifecycle:
    def test_release_unlinks_and_is_idempotent(self):
        columns = make_dataset().columns()
        block = shm.pack_columns(columns)
        name = block.descriptor.segment
        assert name in shm.owned_segments()
        block.release()
        assert name not in shm.owned_segments()
        with pytest.raises(FileNotFoundError):
            shm._attach_segment(name)
        block.release()  # idempotent

    def test_memoized_block_released_with_dataset_cache(self):
        dataset = make_dataset()
        block = dataset.columns().shared_block()
        name = block.descriptor.segment
        assert name in shm.owned_segments()
        # Mutating the dataset invalidates the columns cache, which
        # must unlink the stale view's segment rather than leak it.
        dataset.append(Interaction({"a": 1.0}, 0, 0.5, 1 / 3))
        dataset.columns()
        assert name not in shm.owned_segments()

    def test_release_shared_block_idempotent_without_block(self):
        columns = make_dataset().columns()
        columns.release_shared_block()  # never packed: no-op
        block = columns.shared_block()
        columns.release_shared_block()
        assert block.released
        columns.release_shared_block()

    def test_exception_mid_fold_releases_chunk_segments(self, tmp_path):
        dataset = make_dataset(n=120, seed=2)
        path = tmp_path / "log.jsonl"
        dataset.save_jsonl(str(path))
        with pytest.raises(RuntimeError, match="boom in worker"):
            evaluate_jsonl_chunked(
                str(path), [ExplodingPolicy(1)], [IPSEstimator()],
                chunk_size=16, workers=2,
            )
        # Every one-shot chunk segment was released in the finally
        # blocks, exceptional path included.
        assert shm.owned_segments() == ()

    def test_clean_subprocess_emits_no_leak_warnings(self, tmp_path):
        # A full shared-memory parallel fold + parallel bootstrap under
        # ``-W error``: any resource_tracker double-registration or
        # leftover segment at exit would fail or warn on stderr.
        script = tmp_path / "run_shared.py"
        script.write_text(
            "import numpy as np\n"
            "from repro.core.bootstrap import bootstrap_interval_from_terms\n"
            "from repro.core.engine import use_engine\n"
            "from repro.core.estimators.ips import IPSEstimator\n"
            "from repro.core.policies import ConstantPolicy\n"
            "from repro.core.types import ActionSpace, Dataset, Interaction\n"
            "rng = np.random.default_rng(0)\n"
            "rows = [Interaction({'x': float(i)}, int(rng.integers(0, 3)),\n"
            "                    float(rng.uniform()), 1 / 3)\n"
            "        for i in range(200)]\n"
            "dataset = Dataset(rows, action_space=ActionSpace(3))\n"
            "with use_engine(chunk_size=32, workers=2):\n"
            "    IPSEstimator().estimate(ConstantPolicy(1), dataset)\n"
            "bootstrap_interval_from_terms(\n"
            "    rng.random(600), seed=3, n_boot=512, workers=2)\n"
            "from repro.core import shm\n"
            "print('OWNED', len(shm.owned_segments()))\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-W", "error::UserWarning", str(script)],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "leaked shared_memory" not in result.stderr
        assert "resource_tracker" not in result.stderr
        # Segments may legitimately be owned *during* the run (the
        # memoized dataset block) — the atexit hook unlinks them.


class TestSharedBlockMemo:
    def test_shared_block_memoized_and_rebuilt_after_release(self):
        columns = make_dataset().columns()
        first = columns.shared_block()
        assert columns.shared_block() is first
        first.release()
        second = columns.shared_block()
        assert second is not first
        assert not second.released
        second.release()

    def test_ips_weights_memoized_per_policy(self):
        columns = make_dataset().columns()
        policy = EpsilonGreedyPolicy(ConstantPolicy(0), 0.2)
        first = columns.ips_weights(policy)
        assert columns.ips_weights(policy) is first
        other = columns.ips_weights(ConstantPolicy(1))
        assert other is not first
        np.testing.assert_array_equal(
            first,
            columns.logged_probabilities(policy) / columns.propensities,
        )
