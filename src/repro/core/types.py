"""Core data types for contextual-bandit exploration data.

The central object is the exploration tuple ``⟨x, a, r, p⟩`` from §2 of
the paper: a *context* observed by the system, the *action* it took,
the *reward* obtained, and the *propensity* — the probability with
which the logging policy chose that action.  :class:`Interaction`
represents one tuple; :class:`Dataset` is an ordered collection of them
with the bookkeeping needed by the estimators and learners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

Context = Mapping[str, float]
"""A context is a mapping of named features to numeric values.

Feature engineering (one-hot encoding of categoricals etc.) happens
upstream in :mod:`repro.core.features`; by the time data reaches the
estimators every feature is a float.
"""


@dataclass(frozen=True)
class RewardRange:
    """The closed interval rewards are known to lie in.

    The Eq. 1 confidence interval assumes rewards in ``[0, 1]``; for
    system metrics like latency we record the natural range and
    normalize when computing bounds.  ``maximize`` records the sign
    convention from Table 1 (hit rate is maximized; latency and
    downtime are minimized).
    """

    low: float = 0.0
    high: float = 1.0
    maximize: bool = True

    def __post_init__(self) -> None:
        if not self.high > self.low:
            raise ValueError(f"empty reward range [{self.low}, {self.high}]")

    @property
    def width(self) -> float:
        """Length of the interval."""
        return self.high - self.low

    def normalize(self, reward: float) -> float:
        """Map a raw reward into [0, 1], flipping sign for minimized metrics."""
        unit = (reward - self.low) / self.width
        return unit if self.maximize else 1.0 - unit

    def clip(self, reward: float) -> float:
        """Clamp a raw reward into the declared range."""
        return min(self.high, max(self.low, reward))


class ActionSpace:
    """A finite set of actions, possibly restricted per context.

    Actions are integers ``0..n_actions-1`` with optional human-readable
    labels.  An ``eligibility`` callback restricts which actions are
    available for a given context (the paper notes the action set *A*
    may depend on *x*, e.g. only the items currently in the cache can
    be evicted).
    """

    def __init__(
        self,
        n_actions: int,
        labels: Optional[Sequence[str]] = None,
        eligibility: Optional[Callable[[Context], Sequence[int]]] = None,
    ) -> None:
        if n_actions <= 0:
            raise ValueError("action space must be non-empty")
        if labels is not None and len(labels) != n_actions:
            raise ValueError(
                f"got {len(labels)} labels for {n_actions} actions"
            )
        self.n_actions = n_actions
        self.labels = list(labels) if labels is not None else [
            str(i) for i in range(n_actions)
        ]
        self._eligibility = eligibility

    @property
    def restricted(self) -> bool:
        """Whether eligibility may vary per context."""
        return self._eligibility is not None

    def actions(self, context: Optional[Context] = None) -> list[int]:
        """Eligible action ids for ``context`` (all actions if unrestricted)."""
        if self._eligibility is None or context is None:
            return list(range(self.n_actions))
        eligible = list(self._eligibility(context))
        if not eligible:
            raise ValueError("eligibility callback returned no actions")
        for a in eligible:
            if not 0 <= a < self.n_actions:
                raise ValueError(f"eligible action {a} out of range")
        return eligible

    def label(self, action: int) -> str:
        """Human-readable label of an action id."""
        return self.labels[action]

    def __len__(self) -> int:
        return self.n_actions

    def __repr__(self) -> str:
        return f"ActionSpace(n={self.n_actions})"


@dataclass
class Interaction:
    """One exploration datapoint ``⟨x, a, r, p⟩``.

    ``full_rewards`` is optional and only present for full-feedback
    data such as the machine-health scenario, where the logs reveal the
    reward of *every* action (the paper exploits this to compute ground
    truth and to simulate partial feedback).
    """

    context: Context
    action: int
    reward: float
    propensity: float
    timestamp: float = 0.0
    full_rewards: Optional[Sequence[float]] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.propensity <= 1.0:
            raise ValueError(
                f"propensity must be in (0, 1], got {self.propensity}"
            )
        if self.action < 0:
            raise ValueError(f"action id must be non-negative, got {self.action}")
        if not math.isfinite(self.reward):
            # A single NaN/inf reward silently poisons every estimator
            # downstream; fail at the boundary instead.
            raise ValueError(f"reward must be finite, got {self.reward}")
        if self.full_rewards is not None and not all(
            math.isfinite(r) for r in self.full_rewards
        ):
            raise ValueError("full_rewards must all be finite")

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        out = {
            "context": dict(self.context),
            "action": self.action,
            "reward": self.reward,
            "propensity": self.propensity,
            "timestamp": self.timestamp,
        }
        if self.full_rewards is not None:
            out["full_rewards"] = list(self.full_rewards)
        if self.metadata:
            out["metadata"] = self.metadata
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "Interaction":
        """Inverse of :meth:`to_dict`."""
        return cls(
            context=dict(data["context"]),
            action=int(data["action"]),
            reward=float(data["reward"]),
            propensity=float(data["propensity"]),
            timestamp=float(data.get("timestamp", 0.0)),
            full_rewards=data.get("full_rewards"),
            metadata=dict(data.get("metadata", {})),
        )


class Dataset:
    """An ordered collection of :class:`Interaction` records.

    This is the unit of currency between the harvesting pipeline, the
    estimators, and the learners.  It keeps interactions in logged
    order (the trajectory estimators in
    :mod:`repro.core.estimators.trajectory` need that) and knows its
    action space and reward range.
    """

    def __init__(
        self,
        interactions: Optional[Iterable[Interaction]] = None,
        action_space: Optional[ActionSpace] = None,
        reward_range: Optional[RewardRange] = None,
    ) -> None:
        self._rows: Optional[list[Interaction]] = list(interactions or [])
        self.action_space = action_space
        self.reward_range = reward_range or RewardRange()
        #: Populated by validated loaders (see :mod:`repro.core.validation`):
        #: the records rejected or repaired while building this dataset.
        self.quarantine = None
        # Mutation counter + cache slot for the columnar view (see
        # :meth:`columns`); appends invalidate by bumping the counter.
        self._version = 0
        self._columns_cache = None
        self._columns_version = -1
        # The sealed rows and context table of a columns-backed view
        # (see :meth:`from_columns`).
        self._sealed = self._table = None

    @classmethod
    def from_columns(cls, columns, sealed=None, table=None) -> "Dataset":
        """A dataset backed by a columnar view, holding no per-row objects.

        ``columns`` (a :class:`~repro.core.columns.DatasetColumns`) is
        the dataset's :meth:`columns`; ``sealed`` (the
        :class:`~repro.audit.ledger.SealedRows` a ledger handed over)
        holds the chain each row's ``metadata["ledger"]`` carries, and
        ``table`` is that ledger's memo of distinct contexts.
        :meth:`save_jsonl` writes straight from both, encoding contexts
        through ``table``, and the first per-row access (iteration,
        indexing, mutation) materializes :class:`Interaction` objects —
        with ledger metadata when ``sealed`` is given, and no
        ``full_rewards``.
        """
        dataset = cls(None, columns.action_space, columns.reward_range)
        dataset._rows = None
        dataset._columns_cache = columns
        dataset._columns_version = dataset._version
        dataset._sealed = sealed
        dataset._table = table
        return dataset

    @property
    def _interactions(self) -> list[Interaction]:
        """The per-row list, materialized from the columns on first use."""
        if self._rows is None:
            rows = self._columns_cache.to_dataset()._interactions
            if self._sealed is not None:
                self._sealed.annotate(rows)
            self._rows = rows
        return self._rows

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        if self._rows is None:
            return self._columns_cache.n
        return len(self._rows)

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self._interactions)

    def __getitem__(self, index: Union[int, slice]) -> Union[Interaction, "Dataset"]:
        if isinstance(index, slice):
            return Dataset(
                self._interactions[index], self.action_space, self.reward_range
            )
        return self._interactions[index]

    def append(self, interaction: Interaction) -> None:
        """Add one interaction to the end of the log."""
        self._interactions.append(interaction)
        self._version += 1

    def extend(self, interactions: Iterable[Interaction]) -> None:
        """Add many interactions, preserving order."""
        self._interactions.extend(interactions)
        self._version += 1

    # -- vectorized views ----------------------------------------------------

    def rewards(self) -> np.ndarray:
        """All rewards as a float array."""
        return np.array([i.reward for i in self._interactions], dtype=float)

    def actions(self) -> np.ndarray:
        """All logged actions as an int array."""
        return np.array([i.action for i in self._interactions], dtype=int)

    def propensities(self) -> np.ndarray:
        """All logged propensities as a float array."""
        return np.array([i.propensity for i in self._interactions], dtype=float)

    def min_propensity(self) -> float:
        """Minimum logged propensity ε — the key quantity in Eq. 1."""
        if not self._interactions:
            raise ValueError("empty dataset has no propensities")
        return float(min(i.propensity for i in self._interactions))

    def columns(self):
        """The cached columnar view (see :mod:`repro.core.columns`).

        Built lazily on first use and shared by every estimator and
        every candidate policy evaluated against this dataset — this is
        what amortizes featurization and eligibility resolution across
        a whole policy-class search.  Invalidated automatically when
        the dataset is mutated via :meth:`append`/:meth:`extend`.
        """
        if self._columns_cache is None or self._columns_version != self._version:
            from repro.core.columns import DatasetColumns

            self._columns_cache = DatasetColumns.from_dataset(self)
            self._columns_version = self._version
        return self._columns_cache

    # -- splits and transforms ----------------------------------------------

    def split(self, fraction: float) -> tuple["Dataset", "Dataset"]:
        """Split in logged order into (first ``fraction``, rest)."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        cut = int(round(len(self) * fraction))
        return (
            Dataset(self._interactions[:cut], self.action_space, self.reward_range),
            Dataset(self._interactions[cut:], self.action_space, self.reward_range),
        )

    def shuffled(self, rng: np.random.Generator) -> "Dataset":
        """A copy with interaction order permuted (breaks trajectories!)."""
        order = rng.permutation(len(self._interactions))
        return Dataset(
            [self._interactions[int(i)] for i in order],
            self.action_space,
            self.reward_range,
        )

    def subsample(self, n: int, rng: np.random.Generator) -> "Dataset":
        """A uniform random subsample of ``n`` interactions, logged order kept."""
        if n > len(self):
            raise ValueError(f"cannot subsample {n} of {len(self)}")
        chosen = sorted(rng.choice(len(self), size=n, replace=False))
        return Dataset(
            [self._interactions[int(i)] for i in chosen],
            self.action_space,
            self.reward_range,
        )

    def filter(self, predicate: Callable[[Interaction], bool]) -> "Dataset":
        """Interactions satisfying ``predicate``, in logged order."""
        return Dataset(
            [i for i in self._interactions if predicate(i)],
            self.action_space,
            self.reward_range,
        )

    def normalized(self) -> "Dataset":
        """Copy with rewards mapped into [0, 1] via the reward range.

        Estimation theory (Eq. 1) assumes unit-range rewards; systems
        log raw metrics.  This is the bridge between the two.
        """
        rr = self.reward_range
        out = [
            Interaction(
                context=i.context,
                action=i.action,
                reward=rr.normalize(rr.clip(i.reward)),
                propensity=i.propensity,
                timestamp=i.timestamp,
                full_rewards=(
                    [rr.normalize(rr.clip(r)) for r in i.full_rewards]
                    if i.full_rewards is not None
                    else None
                ),
                metadata=i.metadata,
            )
            for i in self._interactions
        ]
        return Dataset(out, self.action_space, RewardRange(0.0, 1.0, maximize=True))

    # -- persistence ----------------------------------------------------------

    def save_jsonl(self, path: str) -> None:
        """Write one JSON object per line (the scavengeable log format).

        Each line is ``json.dumps(interaction.to_dict())``, byte for
        byte, written through the log codec (:mod:`repro.core.codec`),
        which encodes each distinct context once.  A columns-backed
        dataset (:meth:`from_columns`) writes straight from its columns
        and sealed rows, building no per-row object: its rows' contexts
        are named by the columns' context ids, and its context table
        encodes them, beside the digests sealing already kept.
        """
        from repro.core import codec

        with open(path, "w", encoding="utf-8") as f:
            if self._rows is None:
                columns = self._columns_cache
                codec.write_columns(
                    f,
                    codec.ContextTable() if self._table is None else self._table,
                    columns.distinct_contexts, columns.context_ids,
                    columns.actions, columns.rewards,
                    columns.propensities, columns.timestamps, self._sealed,
                )
            else:
                codec.write_interactions(f, self._rows)

    @classmethod
    def load_jsonl(
        cls,
        path: str,
        action_space: Optional[ActionSpace] = None,
        reward_range: Optional[RewardRange] = None,
        mode: str = "strict",
        validator=None,
        verify_ledger: str = "auto",
    ) -> "Dataset":
        """Inverse of :meth:`save_jsonl`, with a validated data boundary.

        ``mode`` selects how defective records are handled (see
        :mod:`repro.core.validation`): ``"strict"`` (default) raises a
        :class:`ValueError` naming the file and 1-based line number of
        the first bad record; ``"quarantine"`` sets bad records aside
        with reasons; ``"repair"`` additionally fixes clampable defects.
        The quarantine is attached to the returned dataset as
        ``dataset.quarantine``.

        In strict mode without an explicit ``validator`` only the
        structural invariants are enforced (parseable JSON plus the
        :class:`Interaction` constructor's own checks), matching the
        historical contract; the non-strict modes also check action
        eligibility and the declared reward range.

        ``verify_ledger`` controls chain verification of ledgered logs
        (see :mod:`repro.audit.ledger`): ``"auto"`` (default) checks
        every record carrying ledger metadata and routes broken hash
        bindings through ``mode`` under the ``"ledger"`` reason — plain
        un-ledgered logs load exactly as before; ``"require"``
        additionally fails if the log carries no ledger at all;
        ``"off"`` skips chain checking.  In strict mode linkage gaps
        (missing records) are also hard failures; in
        quarantine/repair they are tolerated, since dropping a
        quarantined record necessarily leaves a gap — run
        :func:`repro.audit.ledger.rechain` over the survivors to
        restore a clean chain.

        Lines are read by the log codec's
        :class:`~repro.core.codec.LogReader`, which accepts exactly the
        records — with the same errors and quarantine reports — that
        :func:`repro.core.validation.validated_interactions` does, but
        splits each line the codec wrote by its template and parses and
        digests each distinct context once.  A line that is not UTF-8
        is unparseable.  The interactions keep their ``metadata`` and
        ``full_rewards``.
        """
        from repro.core.codec import LogReader
        from repro.core.validation import (
            Quarantine,
            RecordValidator,
            check_mode,
        )

        check_mode(mode)
        if verify_ledger not in ("auto", "require", "off"):
            raise ValueError(
                f"unknown verify_ledger {verify_ledger!r}; "
                "expected 'auto', 'require', or 'off'"
            )
        chain = None
        if verify_ledger != "off":
            from repro.audit.ledger import ChainFollower

            chain = ChainFollower(strict_links=(mode == "strict"))
        if validator is None:
            validator = (
                RecordValidator()
                if mode == "strict"
                else RecordValidator(
                    action_space=action_space, reward_range=reward_range
                )
            )
        quarantine = Quarantine()
        block = LogReader(
            path,
            mode=mode,
            validator=validator,
            quarantine=quarantine,
            chain=chain,
            keep_rows=True,
        ).read()
        if verify_ledger == "require" and (chain is None or not chain.engaged):
            raise ValueError(
                f"{path}: verify_ledger='require' but the log carries no "
                "ledger metadata"
            )
        dataset = cls(block.interactions, action_space, reward_range)
        dataset.quarantine = quarantine
        from repro.obs.metrics import get_metrics

        get_metrics().counter("engine.rows_ingested", backend="memory").inc(
            len(dataset)
        )
        return dataset

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, actions={self.action_space})"
