"""Columnar views for batch off-policy evaluation *and* batch harvesting.

A per-row loop walks one row at a time, re-resolving eligible actions
and re-featurizing the context for every policy it touches.  That
per-row work is identical across the hundreds of candidate policies a
class search evaluates — §4's "simultaneous evaluation" promise makes
it the hottest path in the system — and, symmetrically, identical
across the hundreds of thousands of decisions a harvest-side workload
generator draws.  Both sides share the machinery in this module:

- :class:`ContextColumns` hoists everything that depends only on the
  *decision-time inputs* (contexts + eligibility) out of the per-row
  loop: the ``(N, K)`` boolean eligibility mask, eligible counts, and
  memoized feature matrices (named-feature and hashed layouts).
- :class:`DecisionBatch` is the harvest-side view: a batch of contexts
  about to be *acted on* by :meth:`repro.core.policies.Policy.act_batch`,
  before any action, reward, or propensity exists.
- :class:`DatasetColumns` is the evaluation-side view: a logged
  dataset's contexts plus its ``actions``/``rewards``/``propensities``
  arrays.  :meth:`DatasetColumns.from_arrays` closes the loop — the
  batch harvester writes its sampled actions and propensities straight
  into a columnar view, so generated logs feed the estimators without
  ever constructing per-row objects.

Policies consume either view through
:meth:`~repro.core.policies.Policy.probabilities_batch`, which returns
the full ``(N, K)`` probability matrix; estimators reduce that matrix
with a handful of array operations, and ``act_batch`` samples from it
with one uniform draw per row.  Columns are cached on the dataset (see
:meth:`repro.core.types.Dataset.columns`) and invalidated when the
dataset is mutated, so every estimator and every member of a policy
class shares one featurization pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.core.types import ActionSpace, Context, Dataset, Interaction, RewardRange

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.features import Featurizer
    from repro.core.policies import Policy

#: Eligibility in batch form: one shared action list for every row, or
#: one list per row.
EligibleSpec = Union[Sequence[int], Sequence[Sequence[int]]]


def is_per_row_eligibility(eligible: EligibleSpec) -> bool:
    """Whether an eligibility spec is per-row (vs one shared list).

    A shared spec is a flat sequence of ints; a per-row spec is a
    sequence of sequences, one per row.  Empty specs count as shared.
    """
    try:
        first = eligible[0]  # type: ignore[index]
    except (IndexError, TypeError, KeyError):
        return False
    return not isinstance(first, (int, np.integer))


class EligibleSets(NamedTuple):
    """Normalized eligibility: each distinct action tuple once, plus ids.

    ``sets`` holds each distinct eligible set once, as a tuple of int
    action ids; ``ids[t]`` is row ``t``'s set, or ``ids`` is ``None``
    when every row has ``sets[0]``.
    """

    sets: tuple
    ids: Optional[np.ndarray]

    def take(self, rows) -> "EligibleSets":
        """The eligibility of ``rows`` (a slice or an index array)."""
        return self if self.ids is None else EligibleSets(
            self.sets, self.ids[rows]
        )


def eligible_sets(eligible: EligibleSpec, n: int) -> EligibleSets:
    """Normalize an :data:`EligibleSpec` for ``n`` rows, each distinct
    set once.

    A per-row spec is grouped by its rows' values before any row is
    normalized, so ``n`` rows over a few sets cost a dict lookup each;
    a spec that is already :class:`EligibleSets` passes through.
    """
    if isinstance(eligible, EligibleSets):
        return eligible
    if not is_per_row_eligibility(eligible):
        return EligibleSets((tuple(int(a) for a in eligible),), None)
    raw: dict = {}
    normalized: dict = {}
    sets: list = []
    ids = []
    for row in eligible:
        key = row if type(row) is tuple else tuple(row)
        found = raw.get(key)
        if found is None:
            actions = tuple(int(a) for a in key)
            found = normalized.get(actions)
            if found is None:
                found = normalized[actions] = len(sets)
                sets.append(actions)
            raw[key] = found
        ids.append(found)
    if len(ids) != n:
        raise ValueError(f"got {len(ids)} eligibility rows for {n} contexts")
    if len(sets) == 1:
        return EligibleSets(tuple(sets), None)
    return EligibleSets(tuple(sets), np.array(ids, dtype=np.int64))


def _used_sets(eligible: EligibleSets, n: int) -> list:
    """``(index, set)`` of each set some of the ``n`` rows have."""
    if not n:
        return []
    if eligible.ids is None:
        return [(0, eligible.sets[0])]
    present = np.bincount(eligible.ids, minlength=len(eligible.sets))
    return [(at, eligible.sets[at]) for at in np.flatnonzero(present).tolist()]


class ContextColumns:
    """Columnar view of decision-time inputs: contexts + eligibility.

    ``n_actions`` (K) bounds the action ids; ``eligible_mask[t, a]`` is
    whether action ``a`` is eligible at row ``t``.  Probabilities of
    ineligible actions are exactly zero in every batch matrix built
    from this view.  Subclasses add outcome columns
    (:class:`DatasetColumns`) or stay pure decision batches
    (:class:`DecisionBatch`).

    Contexts are kept as the distinct contexts
    (:attr:`distinct_contexts`) plus one id per row into them
    (:attr:`context_ids`); contexts given without ids are one per row,
    each its own id.  Feature matrices are computed once per distinct
    context and gathered by id — the same values, since a row's
    features depend on its context alone.  Eligibility is kept the same
    way (:class:`EligibleSets`): one normalized tuple and one mask row
    per distinct eligible set.
    """

    def __init__(
        self,
        contexts: Sequence[Context],
        eligible: EligibleSpec,
        n_actions: Optional[int] = None,
        context_ids: Optional[np.ndarray] = None,
    ) -> None:
        contexts = tuple(contexts)
        context_ids = row_context_ids(contexts, context_ids)
        n = len(context_ids)
        sets = eligible_sets(eligible, n)
        used = [row for _, row in _used_sets(sets, n)]
        for row in used:
            if not row:
                raise ValueError("every row needs at least one eligible action")
            if min(row) < 0:
                raise ValueError(f"negative action id in eligible set {row}")
        if n_actions is None:
            n_actions = max(max(row) for row in used) + 1 if used else 1
        self._init_columns(
            contexts, context_ids, sets, int(n_actions), len(used) <= 1
        )

    # Shared initializer so DatasetColumns can keep its own eligibility
    # reconstruction (action space / observed actions) while reusing the
    # mask assembly and caches.
    def _init_columns(
        self,
        contexts: tuple[Context, ...],
        context_ids: np.ndarray,
        eligible: EligibleSets,
        n_actions: int,
        uniform_eligibility: bool,
    ) -> None:
        n = len(context_ids)
        self.n = n
        self.distinct_contexts = contexts
        self.context_ids = context_ids
        self.n_actions = n_actions
        self._eligible = eligible
        used = _used_sets(eligible, n)
        for _, row in used:
            if row and max(row) >= n_actions:
                raise ValueError(
                    f"eligible action {max(row)} outside action space of "
                    f"size {n_actions}"
                )
        set_mask = np.zeros((len(eligible.sets), n_actions), dtype=bool)
        for at, row in used:
            set_mask[at, list(row)] = True
        if eligible.ids is None:
            self.eligible_mask = np.repeat(set_mask[:1], n, axis=0)
        else:
            self.eligible_mask = set_mask[eligible.ids]
        self.uniform_eligibility = uniform_eligibility
        set_counts = set_mask.sum(axis=1).astype(float)
        self.eligible_counts = (
            np.repeat(set_counts[:1], n) if eligible.ids is None
            else set_counts[eligible.ids]
        )
        #: Whether every row's eligible list is sorted ascending.  When
        #: true, a masked argmax (lowest-id tie-break) reproduces the
        #: scalar path's first-in-list tie-break exactly; deterministic
        #: batch policies fall back to the loop otherwise.
        self.canonical_order = all(
            all(a < b for a, b in zip(row, row[1:])) for _, row in used
        )
        self._row_index = np.arange(n)
        # Rows that name the distinct contexts in order need no gather.
        self._contexts = (
            contexts
            if len(contexts) == n
            and np.array_equal(context_ids, self._row_index)
            else None
        )
        self._eligible_lists = None
        self._feature_matrices: dict[tuple[str, ...], np.ndarray] = {}
        self._hashed_matrices: dict[tuple, np.ndarray] = {}
        # Dataset-level memos (see ips_weights and
        # repro.core.estimators.direct.fit_default_model); kept at
        # this level so every construction path initializes them.
        self._ips_weight_cache: dict[int, tuple[object, np.ndarray]] = {}
        self._default_model = None

    # -- per-row views --------------------------------------------------------

    @property
    def contexts(self) -> tuple:
        """Every row's context, in row order (gathered on first use).

        Batch paths read :attr:`distinct_contexts` and
        :attr:`context_ids` instead; this tuple is for per-row code.
        """
        if self._contexts is None:
            self._contexts = tuple(
                map(self.distinct_contexts.__getitem__,
                    self.context_ids.tolist())
            )
        return self._contexts

    @property
    def eligible_lists(self) -> tuple:
        """Every row's eligible actions (a tuple of ints per row)."""
        if self._eligible_lists is None:
            sets, ids = self._eligible
            self._eligible_lists = (
                (sets[0],) * self.n if ids is None
                else tuple(map(sets.__getitem__, ids.tolist()))
            )
        return self._eligible_lists

    def _featurized(self) -> tuple:
        """``(contexts to featurize, row ids into them or None)``.

        The distinct contexts when there are fewer of them than rows;
        every row's context otherwise.
        """
        if len(self.distinct_contexts) < self.n:
            return self.distinct_contexts, self.context_ids
        return self.contexts, None

    # -- memoized featurizations -------------------------------------------

    def feature_matrix(self, feature_names: Sequence[str]) -> np.ndarray:
        """``(N, F+1)`` matrix of named features plus a bias column.

        Matches :class:`~repro.core.policies.LinearThresholdPolicy`'s
        ``φ(x)`` layout; memoized per feature-name tuple so a class of
        |Π| linear policies sharing a template featurizes once.
        """
        key = tuple(feature_names)
        cached = self._feature_matrices.get(key)
        if cached is None:
            contexts, ids = self._featurized()
            cached = np.empty((len(contexts), len(key) + 1))
            for row, context in enumerate(contexts):
                for col, name in enumerate(key):
                    cached[row, col] = float(context.get(name, 0.0))
            cached[:, -1] = 1.0
            if ids is not None:
                cached = cached[ids]
            self._feature_matrices[key] = cached
        return cached

    def hashed_matrix(self, featurizer: "Featurizer") -> np.ndarray:
        """``(N, n_dims)`` hashed context matrix, memoized per featurizer
        configuration (:attr:`~repro.core.features.Featurizer.cache_key`),
        so equal featurizers — every default reward model's — share one."""
        key = featurizer.cache_key
        cached = self._hashed_matrices.get(key)
        if cached is None:
            contexts, ids = self._featurized()
            cached = featurizer.matrix(list(contexts))
            if ids is not None:
                cached = cached[ids]
            self._hashed_matrices[key] = cached
        return cached

    # -- batch building blocks ---------------------------------------------

    def uniform_matrix(self) -> np.ndarray:
        """``(N, K)`` uniform distribution over each row's eligible set."""
        out = np.zeros((self.n, self.n_actions))
        np.divide(
            1.0,
            self.eligible_counts[:, None],
            out=out,
            where=self.eligible_mask,
        )
        return out

    def point_mass_matrix(self, chosen: np.ndarray) -> np.ndarray:
        """``(N, K)`` matrix putting probability 1 on ``chosen[t]``."""
        chosen = np.asarray(chosen, dtype=np.int64)
        if chosen.shape != (self.n,):
            raise ValueError(f"chosen must have shape ({self.n},)")
        out = np.zeros((self.n, self.n_actions))
        out[self._row_index, chosen] = 1.0
        return out

    def masked_argbest(self, scores: np.ndarray, maximize: bool = True) -> np.ndarray:
        """Per-row best *eligible* action id for a ``(N, K)`` score matrix.

        Ties break toward the lowest action id, matching the scalar
        path when eligible lists are in canonical (ascending) order.
        """
        if scores.shape != (self.n, self.n_actions):
            raise ValueError(
                f"scores must have shape ({self.n}, {self.n_actions})"
            )
        guarded = np.where(
            self.eligible_mask, scores if maximize else -scores, -np.inf
        )
        return np.argmax(guarded, axis=1)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, k={self.n_actions})"


class DecisionBatch(ContextColumns):
    """A batch of contexts about to be acted on (the harvest side).

    This is what :meth:`repro.core.policies.Policy.act_batch` consumes:
    decision-time contexts plus eligibility, with no actions, rewards,
    or propensities yet.  It shares the memoized feature matrices and
    mask machinery of :class:`ContextColumns`, so a vectorized policy
    pays featurization once per batch rather than once per row.
    """

    @classmethod
    def from_action_space(
        cls,
        contexts: Sequence[Context],
        space: Optional[ActionSpace],
        observed: Optional[Sequence[int]] = None,
    ) -> "DecisionBatch":
        """Build a batch whose eligibility comes from an action space.

        Mirrors :class:`DatasetColumns`' reconstruction: a restricted
        space is resolved per context, an unrestricted one is shared;
        with no space at all, ``observed`` (sorted) stands in for the
        eligible set, as for a scavenged log.
        """
        if space is not None and space.restricted:
            eligible: EligibleSpec = [
                tuple(space.actions(context)) for context in contexts
            ]
            return cls(contexts, eligible, n_actions=space.n_actions)
        if space is not None:
            return cls(
                contexts, tuple(range(space.n_actions)),
                n_actions=space.n_actions,
            )
        shared = tuple(sorted(set(int(a) for a in (observed or ())))) or (0,)
        return cls(contexts, shared, n_actions=max(shared) + 1)


def as_decision_batch(
    contexts, eligible: Optional[EligibleSpec] = None
) -> ContextColumns:
    """Coerce ``(contexts, eligible)`` into a columnar decision view.

    Accepts a prebuilt :class:`ContextColumns` (with ``eligible=None``)
    and passes it through unchanged, so callers that already hold a
    batch — the harvest engine, chained policies — pay for mask
    construction once.
    """
    if isinstance(contexts, ContextColumns):
        if eligible is not None:
            raise ValueError(
                "eligible must be None when contexts is already columnar"
            )
        return contexts
    if eligible is None:
        raise ValueError("eligible is required for raw context sequences")
    return DecisionBatch(contexts, eligible)


class DatasetColumns(ContextColumns):
    """Immutable columnar view of a dataset, shared across evaluations.

    ``n_actions`` (K) is the action-space size when the dataset carries
    one, else ``max(logged action) + 1`` — the best reconstruction
    available for scavenged logs.  ``eligible_mask[t, a]`` is whether
    action ``a`` was eligible at row ``t``; probabilities of ineligible
    actions are exactly zero in every batch matrix.
    """

    def __init__(self, dataset: Dataset) -> None:
        # Single pass over the log: one traversal fills every outcome
        # column and collects the contexts, and no per-row Interaction
        # list is retained once the arrays exist.
        n = len(dataset)
        context_list: list[Context] = []
        actions = np.empty(n, dtype=np.int64)
        rewards = np.empty(n, dtype=np.float64)
        propensities = np.empty(n, dtype=np.float64)
        timestamps = np.empty(n, dtype=np.float64)
        for row, interaction in enumerate(dataset):
            context_list.append(interaction.context)
            actions[row] = interaction.action
            rewards[row] = interaction.reward
            propensities[row] = interaction.propensity
            timestamps[row] = interaction.timestamp
        self._assemble(
            tuple(context_list), np.arange(n), actions, rewards,
            propensities, timestamps, dataset.action_space,
            dataset.reward_range,
        )

    @classmethod
    def from_log(
        cls,
        contexts: Sequence[Context],
        actions: np.ndarray,
        rewards: np.ndarray,
        propensities: np.ndarray,
        timestamps: np.ndarray,
        *,
        action_space: Optional[ActionSpace] = None,
        reward_range: Optional[RewardRange] = None,
        context_ids: Optional[np.ndarray] = None,
    ) -> "DatasetColumns":
        """The view a :class:`Dataset` of these rows would build.

        The log reader's path (:mod:`repro.core.codec`): parsed columns
        become exactly the columns ``Dataset(rows, action_space,
        reward_range).columns()`` holds — same eligibility
        reconstruction, same arrays — without the per-row objects.
        With ``context_ids``, ``contexts`` are the distinct contexts the
        ids index (a :class:`~repro.core.codec.RowBlock`'s).
        """
        contexts = tuple(contexts)
        columns = cls.__new__(cls)
        columns._assemble(
            contexts,
            row_context_ids(contexts, context_ids),
            np.asarray(actions, dtype=np.int64),
            np.asarray(rewards, dtype=np.float64),
            np.asarray(propensities, dtype=np.float64),
            np.asarray(timestamps, dtype=np.float64),
            action_space,
            reward_range,
        )
        return columns

    def _assemble(
        self, contexts, context_ids, actions, rewards, propensities,
        timestamps, space, reward_range,
    ) -> None:
        n = len(context_ids)
        if space is not None:
            n_actions = space.n_actions
        elif n > 0:
            n_actions = int(actions.max()) + 1
        else:
            n_actions = 1

        # Per-row eligible actions, mirroring eligible_actions_fn: the
        # action space (possibly context-restricted) when present, else
        # the set of actions observed anywhere in the log.
        if space is not None and space.restricted:
            eligible = _restricted_sets(space, contexts, context_ids)
            uniform = False
        else:
            if space is not None:
                shared: tuple[int, ...] = tuple(range(n_actions))
            elif n > 0:
                shared = tuple(distinct_actions(actions).tolist())
            else:
                shared = (0,)
            eligible = EligibleSets((shared,), None)
            uniform = True

        self._init_columns(contexts, context_ids, eligible, n_actions, uniform)
        self.actions = actions
        self.rewards = rewards
        self.propensities = propensities
        self.timestamps = timestamps
        self.action_space = space
        self.reward_range = reward_range
        self._observed_actions: Optional[np.ndarray] = None
        self._identity_error: Optional[float] = None

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "DatasetColumns":
        """Build (without caching) the columnar view of ``dataset``."""
        return cls(dataset)

    @classmethod
    def from_arrays(
        cls,
        contexts: Sequence[Context],
        actions: np.ndarray,
        rewards: np.ndarray,
        propensities: np.ndarray,
        *,
        eligible: Optional[EligibleSpec] = None,
        n_actions: Optional[int] = None,
        action_space: Optional[ActionSpace] = None,
        reward_range: Optional[RewardRange] = None,
        timestamps: Optional[np.ndarray] = None,
        context_ids: Optional[np.ndarray] = None,
    ) -> "DatasetColumns":
        """Assemble a columnar log directly from arrays — no Dataset.

        This is the batch harvester's output path: sampled actions and
        propensities land in the columnar layout the estimators
        consume, skipping per-row ``Interaction``
        construction entirely.  With ``context_ids``, ``contexts`` are
        the distinct contexts the ids index.  ``eligible`` follows the
        :data:`EligibleSpec` convention (or is already
        :class:`EligibleSets`); when omitted it is derived
        from ``action_space`` (per-row if restricted) or from the
        sorted set of observed actions, exactly as the Dataset path
        reconstructs it.  Use :meth:`to_dataset` to materialize
        per-row objects when per-row code (or JSONL export) needs
        them.
        """
        contexts = tuple(contexts)
        context_ids = row_context_ids(contexts, context_ids)
        n = len(context_ids)
        actions = np.asarray(actions, dtype=np.int64)
        rewards = np.asarray(rewards, dtype=np.float64)
        propensities = np.asarray(propensities, dtype=np.float64)
        for name, array in (
            ("actions", actions),
            ("rewards", rewards),
            ("propensities", propensities),
        ):
            if array.shape != (n,):
                raise ValueError(
                    f"{name} must have shape ({n},), got {array.shape}"
                )
        if n > 0 and (
            (propensities <= 0.0).any() or (propensities > 1.0).any()
        ):
            raise ValueError("propensities must be in (0, 1]")
        if n > 0 and not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite")

        if eligible is None:
            if action_space is not None and action_space.restricted:
                eligible = _restricted_sets(
                    action_space, contexts, context_ids
                )
            elif action_space is not None:
                eligible = tuple(range(action_space.n_actions))
            else:
                eligible = tuple(
                    distinct_actions(actions).tolist()
                ) if n > 0 else (0,)
        if n_actions is None and action_space is not None:
            n_actions = action_space.n_actions

        columns = cls.__new__(cls)
        ContextColumns.__init__(
            columns, contexts, eligible, n_actions, context_ids
        )
        if n > 0:
            chosen_eligible = columns.eligible_mask[
                np.arange(n), np.clip(actions, 0, columns.n_actions - 1)
            ]
            if (actions >= columns.n_actions).any() or not chosen_eligible.all():
                bad = int(np.argmin(chosen_eligible))
                raise ValueError(
                    f"row {bad}: action {int(actions[bad])} is not eligible"
                )
        columns.actions = actions
        columns.rewards = rewards
        columns.propensities = propensities
        columns.timestamps = (
            np.asarray(timestamps, dtype=np.float64)
            if timestamps is not None
            else np.arange(n, dtype=np.float64)
        )
        if columns.timestamps.shape != (n,):
            raise ValueError(f"timestamps must have shape ({n},)")
        columns.action_space = action_space
        columns.reward_range = reward_range
        columns._observed_actions = None
        columns._identity_error = None
        return columns

    def to_dataset(self) -> Dataset:
        """Materialize per-row :class:`Interaction` objects.

        The inverse bridge of :meth:`from_arrays`: batch-harvested
        columns become an ordinary :class:`~repro.core.types.Dataset`
        for the trajectory estimators, JSONL export, or any per-row
        consumer.  The columnar view stays authoritative — this copies.
        """
        contexts = self.contexts
        interactions = [
            Interaction(
                context=contexts[t],
                action=int(self.actions[t]),
                reward=float(self.rewards[t]),
                propensity=float(self.propensities[t]),
                timestamp=float(self.timestamps[t]),
            )
            for t in range(self.n)
        ]
        return Dataset(
            interactions,
            action_space=self.action_space,
            reward_range=self.reward_range,
        )

    # -- policy-independent diagnostic inputs --------------------------------

    def observed_actions(self) -> np.ndarray:
        """Sorted unique logged action ids, computed once per dataset.

        The logged *support*: any candidate-policy mass outside this set
        is invisible to importance-weighted estimators (see
        :mod:`repro.core.diagnostics`).
        """
        if self._observed_actions is None:
            self._observed_actions = distinct_actions(self.actions)
        return self._observed_actions

    def propensity_identity_error(self) -> float:
        """Cached per-action A1 identity deviation of the *log* itself.

        Depends only on the logged (action, propensity) pairs, so a
        class search over hundreds of candidates pays for it once.
        """
        if self._identity_error is None:
            from repro.core.diagnostics import propensity_identity_error

            self._identity_error = propensity_identity_error(
                self.actions, self.propensities
            )
        return self._identity_error

    # -- logged-action lookups ----------------------------------------------

    def probability_of_logged(self, matrix: np.ndarray) -> np.ndarray:
        """Extract ``π(a_t | x_t)`` from a batch probability matrix."""
        return matrix[self._row_index, self.actions]

    def logged_probabilities(self, policy: "Policy") -> np.ndarray:
        """``π(a_t | x_t)`` for every row, via the policy's batch API."""
        return self.probability_of_logged(policy.probabilities_batch(self))

    def ips_weights(self, policy: "Policy") -> np.ndarray:
        """Cached importance weights ``π(a_t|x_t)/p_t`` for ``policy``.

        Computed once per (policy, log) and shared by everything that
        needs the weight vector — IPS/SNIPS point estimates, their
        bootstrap intervals, diagnostics — so a bootstrap's thousands
        of replicates (and repeated intervals for the same candidate)
        pay for the probability pass exactly once.  Keyed by policy
        identity; a small cap keeps class searches over many candidates
        from pinning every weight vector at once.
        """
        entry = self._ips_weight_cache.get(id(policy))
        if entry is None or entry[0] is not policy:
            return self.memo_ips_weights(
                policy, policy.probabilities_batch(self)
            )
        return entry[1]

    def memo_ips_weights(
        self, policy: "Policy", matrix: np.ndarray
    ) -> np.ndarray:
        """Importance weights from a probability ``matrix``, memoized.

        The one place the weight expression lives: :meth:`ips_weights`
        calls it on a cold memo, and the IPS reductions call it with the
        matrix their fold already computed, so a whole-log fold leaves
        the memo warm for a bootstrap of the same (policy, log).
        """
        if len(self._ips_weight_cache) >= 16:
            self._ips_weight_cache.clear()
        weights = self.probability_of_logged(matrix) / self.propensities
        self._ips_weight_cache[id(policy)] = (policy, weights)
        return weights


class FixedEligibility:
    """Picklable eligibility callback returning one fixed action tuple.

    Used to pin a spaceless log's globally observed actions onto chunk
    datasets (a lambda would make the action space unpicklable).
    """

    def __init__(self, actions: Sequence[int]) -> None:
        self.actions = tuple(int(a) for a in actions)

    def __call__(self, context: Context) -> tuple[int, ...]:
        """Return the pinned eligible-action tuple (context ignored)."""
        return self.actions


def distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of ``keys``' rows: ``(first, ids)``.

    ``keys`` holds one key per row, or a 2-D array of key columns
    compared column by column.  ``first`` is the row where each distinct
    key first occurs, in ascending key order, and ``ids[t]`` is row
    ``t``'s position in ``first``.  A stable sort and a neighbour
    compare do it, because numpy 2's ``np.unique`` imports ``numpy.ma``
    on its first call (about 15 ms), which a harvest or a serving
    process otherwise never loads.
    """
    keys = np.asarray(keys)
    table = keys[:, None] if keys.ndim == 1 else keys
    order = np.lexsort(table.T[::-1])
    ordered = table[order]
    new = np.ones(len(table), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    ids = np.empty(len(table), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return order[new], ids


def distinct_actions(actions: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``actions``, as ``np.unique`` gives.

    The values alone need no index sort: sorting them (a radix sort for
    small ints) is many times faster than :func:`distinct_rows`' stable
    index sort, and this runs on every log read.
    """
    ordered = np.sort(np.asarray(actions), axis=None)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def row_context_ids(
    contexts: Sequence[Context], context_ids: Optional[np.ndarray]
) -> np.ndarray:
    """Each row's id into ``contexts``: ``context_ids`` as int64, or,
    when there are none, one row per context."""
    if context_ids is None:
        return np.arange(len(contexts))
    return np.asarray(context_ids, dtype=np.int64)


def _restricted_sets(
    space: ActionSpace, contexts: tuple, context_ids: np.ndarray
) -> EligibleSets:
    """A restricted space's eligibility for rows ``contexts[context_ids]``,
    resolved once per distinct context."""
    per_context = eligible_sets(
        [tuple(space.actions(context)) for context in contexts],
        len(contexts),
    )
    return EligibleSets(
        per_context.sets,
        None if per_context.ids is None else per_context.ids[context_ids],
    )


def pinned_action_space(observed: Sequence[int]) -> Optional[ActionSpace]:
    """An action space that makes a spaceless log's chunk views match
    its whole-log view.

    A chunk of a *spaceless* log would reconstruct ``n_actions`` and
    eligibility from the chunk's own rows (wrong: a chunk may miss
    actions the log contains), so we pin the global reconstruction —
    ``max(observed)+1`` actions, eligibility fixed to the sorted
    globally ``observed`` set — exactly what :class:`DatasetColumns`
    derives for the whole spaceless log.  ``None`` when nothing was
    observed.
    """
    observed = sorted(set(observed))
    if not observed:
        return None
    return ActionSpace(
        int(max(observed)) + 1, eligibility=FixedEligibility(observed)
    )


def loop_probabilities(policy: "Policy", columns: ContextColumns) -> np.ndarray:
    """Reference ``(N, K)`` probability matrix via per-row dispatch.

    The correct-for-anything fallback behind
    :meth:`~repro.core.policies.Policy.probabilities_batch`: calls
    ``policy.distribution`` once per row and scatters the result into
    the batch layout.  Arbitrary user policies get this for free; the
    built-ins override it with real array code.
    """
    out = np.zeros((columns.n, columns.n_actions))
    for row, (context, eligible) in enumerate(
        zip(columns.contexts, columns.eligible_lists)
    ):
        eligible = list(eligible)
        out[row, eligible] = policy.distribution(context, eligible)
    return out
