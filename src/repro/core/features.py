"""Feature engineering for scavenged contexts.

Step 1 of the methodology scavenges raw contextual information from
system logs; "some amount of feature engineering is required to convert
[it] into usable features" (§3).  This module provides that layer:
encoders from raw log records (mixed str/number dicts) to the numeric
:data:`~repro.core.types.Context` mappings the learners consume, and a
:class:`Featurizer` that turns contexts into dense vectors for the
regression oracles.
"""

from __future__ import annotations

import zlib
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.types import Context
from repro.obs.tracing import get_tracer

RawRecord = Mapping[str, Union[str, int, float, bool]]


class FeatureEncoder:
    """Encodes raw log records into numeric contexts.

    Categorical fields are one-hot encoded against a vocabulary learned
    with :meth:`fit` (unseen categories map to an ``<other>`` bucket);
    numeric fields pass through, optionally standardized.
    """

    def __init__(
        self,
        categorical: Sequence[str] = (),
        numeric: Sequence[str] = (),
        standardize: bool = False,
    ) -> None:
        overlap = set(categorical) & set(numeric)
        if overlap:
            raise ValueError(f"fields declared both kinds: {sorted(overlap)}")
        self.categorical = list(categorical)
        self.numeric = list(numeric)
        self.standardize = standardize
        self._vocab: dict[str, list[str]] = {}
        self._means: dict[str, float] = {}
        self._stds: dict[str, float] = {}
        self._fitted = False

    def fit(self, records: Sequence[RawRecord]) -> "FeatureEncoder":
        """Learn vocabularies and (optionally) scaling from records."""
        if not records:
            raise ValueError("cannot fit an encoder on zero records")
        columns: dict[str, list] = {}
        for fieldname in self.categorical:
            columns[fieldname] = [
                record.get(fieldname, "") for record in records
            ]
        for fieldname in self.numeric:
            columns[fieldname] = [
                float(record.get(fieldname, 0.0)) for record in records
            ]
        return self.fit_columns(columns)

    def fit_columns(self, columns: Mapping[str, Sequence]) -> "FeatureEncoder":
        """Learn what :meth:`fit` learns, from one column per field.

        ``columns[name]`` holds field ``name``'s value for every record,
        in record order; every declared field must be present.  Each
        vocabulary keeps first-seen order of the ``str`` values, and
        numeric columns are read as float64 — so the columns of a
        record list fit exactly the encoder the records fit.
        """
        for fieldname in self.categorical + self.numeric:
            if len(columns[fieldname]) == 0:
                raise ValueError(
                    f"cannot fit an encoder on an empty {fieldname!r} column"
                )
        for fieldname in self.categorical:
            values = map(str, columns[fieldname])
            self._vocab[fieldname] = list(dict.fromkeys(values))
        for fieldname in self.numeric:
            values = np.asarray(columns[fieldname], dtype=np.float64)
            self._means[fieldname] = float(values.mean())
            std = float(values.std())
            self._stds[fieldname] = std if std > 0 else 1.0
        self._fitted = True
        return self

    def encode(self, record: RawRecord) -> Context:
        """Encode one raw record into a numeric context."""
        if not self._fitted:
            raise RuntimeError("encoder must be fitted before encoding")
        out: dict[str, float] = {}
        for fieldname in self.categorical:
            value = str(record.get(fieldname, ""))
            vocab = self._vocab[fieldname]
            bucket = value if value in vocab else "<other>"
            out[f"{fieldname}={bucket}"] = 1.0
        for fieldname in self.numeric:
            value = float(record.get(fieldname, 0.0))
            if self.standardize:
                value = (value - self._means[fieldname]) / self._stds[fieldname]
            out[fieldname] = value
        return out

    def encode_all(self, records: Sequence[RawRecord]) -> list[Context]:
        """Encode a batch of records."""
        return [self.encode(record) for record in records]


class Featurizer:
    """Maps named-feature contexts to fixed-width dense vectors.

    Uses the hashing trick: each feature name hashes to one of
    ``n_dims`` slots (with a sign hash to reduce collision bias), so the
    learners never need a global feature dictionary — important when
    scavenging heterogeneous logs.  A constant bias slot is always set.

    For per-action models the featurizer can also produce
    action-interacted vectors (block per action), which is how a single
    linear model expresses action-dependent predictions.
    """

    def __init__(self, n_dims: int = 64, bias: bool = True) -> None:
        if n_dims < 2:
            raise ValueError("need at least 2 dims (one is the bias)")
        self.n_dims = n_dims
        self.bias = bias

    def _slot(self, name: str) -> tuple[int, float]:
        digest = zlib.crc32(name.encode("utf-8"))
        usable = self.n_dims - 1 if self.bias else self.n_dims
        index = digest % usable
        sign = 1.0 if (digest >> 16) & 1 else -1.0
        return index, sign

    def vector(self, context: Context) -> np.ndarray:
        """Hash a context into a dense vector of length ``n_dims``."""
        out = np.zeros(self.n_dims)
        for name, value in context.items():
            index, sign = self._slot(name)
            out[index] += sign * float(value)
        if self.bias:
            out[-1] = 1.0
        return out

    def action_vector(self, context: Context, action: int, n_actions: int) -> np.ndarray:
        """Context vector placed in the block belonging to ``action``.

        The returned vector has length ``n_dims * n_actions``; a single
        linear weight vector over it yields one prediction per action.
        """
        if not 0 <= action < n_actions:
            raise ValueError(f"action {action} out of range [0, {n_actions})")
        base = self.vector(context)
        out = np.zeros(self.n_dims * n_actions)
        start = action * self.n_dims
        out[start : start + self.n_dims] = base
        return out

    @property
    def cache_key(self) -> tuple:
        """Hashable configuration: featurizers with equal keys hash every
        context identically, so memos may share their matrices.
        Subclasses with extra configuration must extend it."""
        return (type(self), self.n_dims, self.bias)

    def matrix(self, contexts: Sequence[Context]) -> np.ndarray:
        """Hash contexts into an ``(n, n_dims)`` matrix, one row each.

        Bit-identical to stacking :meth:`vector` rows.  Rows are grouped
        by key order, each distinct name's ``(slot, sign)`` is resolved
        once, and ``sign · value`` is added column by column in key
        order — the order in which :meth:`vector` sums colliding slots.
        Subclasses that override :meth:`vector` or :meth:`_slot` get the
        per-row loop instead.
        """
        n = len(contexts)
        with get_tracer().span(
            "features.hash", rows=n, n_dims=self.n_dims
        ) as span:
            if (
                type(self).vector is not Featurizer.vector
                or type(self)._slot is not Featurizer._slot
            ):
                if not n:
                    return np.zeros((0, self.n_dims))
                return np.stack([self.vector(c) for c in contexts])
            # key order -> (its rows, their values flattened row-major)
            groups: dict[tuple[str, ...], tuple[list[int], list]] = {}
            for row, context in enumerate(contexts):
                names = tuple(context)
                group = groups.get(names)
                if group is None:
                    group = groups[names] = ([], [])
                group[0].append(row)
                group[1].extend(context.values())
            span.set(key_orders=len(groups))
            out = np.zeros((n, self.n_dims))
            slots: dict[str, tuple[int, float]] = {}
            for names, (rows, flat) in groups.items():
                if not names:
                    continue
                values = np.array(flat, dtype=float).reshape(len(rows), -1)
                at = np.asarray(rows)
                for column, name in enumerate(names):
                    if name not in slots:
                        slots[name] = self._slot(name)
                    index, sign = slots[name]
                    out[at, index] += sign * values[:, column]
            if self.bias:
                out[:, -1] = 1.0
            return out


def interaction_features(context: Context, pairs: Sequence[tuple[str, str]]) -> Context:
    """Augment a context with products of named feature pairs.

    Lets linear policy classes express simple non-linearities (e.g.
    ``load × request_size``) without a richer model family.
    Missing features are treated as 0, dropping the product term.
    """
    out = dict(context)
    for left, right in pairs:
        if left in context and right in context:
            out[f"{left}*{right}"] = float(context[left]) * float(context[right])
    return out
