"""Named, seeded randomness streams.

The whole point of the paper is that randomness is a *resource*: every
randomized decision a system makes is a datapoint for off-policy
evaluation.  For reproducible experiments we therefore need each
consumer of randomness (workload arrivals, policy decisions, fault
injection, ...) to draw from its *own* deterministic stream, so that
e.g. changing the logging policy does not perturb the workload.

:class:`RandomSource` derives independent child generators from a root
seed using stable string names.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, TypeVar

import numpy as np

from repro.audit.streams import derive_child_seed

T = TypeVar("T")


def choice_cdf(p: Sequence[float]) -> np.ndarray:
    """The cumulative weights :meth:`RandomSource.choice` searches.

    ``Generator.choice(p=p)`` normalizes ``cumsum(p)`` by its last
    entry and returns the right-side insertion point of one
    ``random()`` draw; searching this array (or ``bisect_right`` on its
    ``tolist()``) with the same draw returns the same index.
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


class RandomSource:
    """A tree of named, independently seeded NumPy generators."""

    def __init__(self, seed: int = 0, _name: str = "root") -> None:
        self._seed = int(seed)
        self._name = _name
        self._rng = np.random.default_rng(self._seed)

    @property
    def seed(self) -> int:
        """Root seed of this source."""
        return self._seed

    @property
    def name(self) -> str:
        """Dotted path of this source within the seed tree."""
        return self._name

    @property
    def generator(self) -> np.random.Generator:
        """The underlying NumPy generator."""
        return self._rng

    def child(self, name: str) -> "RandomSource":
        """Derive an independent, deterministic child stream.

        The same name always yields the same stream: the child seed is
        HKDF-SHA256 of the parent seed keyed by the (length-prefixed)
        child name, so distinct names — sibling or nested — never
        collide (see ``docs/adr-0001-rng-streams.md``).
        """
        return RandomSource(
            derive_child_seed(self._seed, name), _name=f"{self._name}.{name}"
        )

    # -- convenience draws -------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform float in ``[low, high)``."""
        return float(self._rng.uniform(low, high))

    def exponential(self, mean: float) -> float:
        """One exponential draw with the given mean (inter-arrival times)."""
        return float(self._rng.exponential(mean))

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """One Gaussian draw."""
        return float(self._rng.normal(loc, scale))

    def randint(self, low: int, high: int) -> int:
        """One integer in ``[low, high)``."""
        return int(self._rng.integers(low, high))

    def choice(self, items: Sequence[T], p: Optional[Sequence[float]] = None) -> T:
        """Choose one item, optionally with probabilities ``p``."""
        index = int(self._rng.choice(len(items), p=p))
        return items[index]

    def choice_indices(self, p: Sequence[float], size: int) -> np.ndarray:
        """``size`` weighted indices into ``p``, drawn in one batch.

        Equal, draw for draw, to ``size`` successive
        ``choice(range(len(p)), p=p)`` calls: one ``random(size)`` call
        searched against :func:`choice_cdf`, exactly what
        ``Generator.choice`` does on each call.
        """
        uniforms = self._rng.random(size)
        return np.searchsorted(choice_cdf(p), uniforms, side="right")

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct items uniformly without replacement."""
        if k > len(items):
            raise ValueError(f"cannot sample {k} from {len(items)} items")
        indices = self._rng.choice(len(items), size=k, replace=False)
        return [items[int(i)] for i in indices]

    def shuffle(self, items: Sequence[T]) -> list[T]:
        """Return a shuffled copy of ``items``."""
        out = list(items)
        self._rng.shuffle(out)  # type: ignore[arg-type]
        return out

    def bernoulli(self, p: float) -> bool:
        """One coin flip with success probability ``p``."""
        return bool(self._rng.random() < p)

    def zipf_index(self, n: int, alpha: float) -> int:
        """Draw an index in ``[0, n)`` with Zipf(alpha) popularity."""
        if n <= 0:
            raise ValueError("n must be positive")
        weights = 1.0 / np.power(np.arange(1, n + 1), alpha)
        weights /= weights.sum()
        return int(self._rng.choice(n, p=weights))

    def poisson_process(self, rate: float, horizon: float) -> Iterator[float]:
        """Yield arrival times of a Poisson process on ``[0, horizon)``."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        t = 0.0
        while True:
            t += self.exponential(1.0 / rate)
            if t >= horizon:
                return
            yield t
