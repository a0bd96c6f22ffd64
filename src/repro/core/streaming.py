"""Streaming (incremental) off-policy evaluation.

Footnote 1 of the paper: "'Offline' does not mean 'batch': off-policy
evaluation may incrementally update; it just does not intervene in a
live (online) system."  This module provides that incremental mode:
estimators that consume exploration tuples one at a time in O(1)
memory, so a tail of production logs can be followed continuously.

:class:`StreamingIPS` maintains, per candidate policy, the running IPS
mean, Welford variance, match count, and a normal-approximation CI.
:class:`StreamingEvaluationBoard` fans one stream out to many
candidates — the "evaluate K policies from one log" mode, live.
:class:`ValidatedInteractionStream` guards the front of that pipe: it
validates raw JSONL lines (or parsed records) on the fly, quarantining
defects instead of crashing, so a tail of messy production logs can be
followed indefinitely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.core.estimators.reductions import Moments
from repro.core.policies import Policy
from repro.core.types import ActionSpace, Interaction
from repro.core.validation import (
    Quarantine,
    RecordValidator,
    check_mode,
    validated_interactions,
)


@dataclass(frozen=True)
class StreamingSnapshot:
    """Point-in-time state of one streaming estimate."""

    policy_name: str
    n: int
    value: float
    std_error: float
    match_rate: float

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI at ``z`` standard errors."""
        return (self.value - z * self.std_error,
                self.value + z * self.std_error)


class StreamingIPS:
    """One candidate's running IPS estimate over an exploration stream.

    A thin wrapper over the reduction kernel's
    :class:`~repro.core.estimators.reductions.Moments` accumulator:
    ``update`` is one Welford ``push`` of the IPS term, so the standard
    error is available at every step without storing the stream, and
    two streams that consumed disjoint tails can be combined with
    :meth:`merge_in` (Chan's parallel-variance merge — the same
    associativity chunked folds rely on).
    """

    def __init__(self, policy: Policy, action_space: ActionSpace) -> None:
        self.policy = policy
        self.action_space = action_space
        self._moments = Moments()
        self._matches = 0

    @property
    def n(self) -> int:
        """Number of exploration tuples consumed."""
        return self._moments.n

    def update(self, interaction: Interaction) -> None:
        """Fold one exploration tuple into the running estimate."""
        actions = self.action_space.actions(interaction.context)
        pi_prob = self.policy.probability_of(
            interaction.context, actions, interaction.action
        )
        weight = pi_prob / interaction.propensity
        if weight > 0:
            self._matches += 1
        self._moments.push(weight * interaction.reward)

    def update_all(self, interactions: Iterable[Interaction]) -> None:
        """Consume a batch (convenience; still O(1) memory)."""
        for interaction in interactions:
            self.update(interaction)

    def merge_in(self, other: "StreamingIPS") -> None:
        """Absorb another stream's state (e.g. a partitioned tail)."""
        if other.policy.name != self.policy.name:
            raise ValueError(
                "cannot merge streams tracking different policies "
                f"({self.policy.name!r} vs {other.policy.name!r})"
            )
        self._moments.merge_in(other._moments)
        self._matches += other._matches

    def snapshot(self) -> StreamingSnapshot:
        """The current estimate; callable at any point in the stream."""
        if self._moments.n == 0:
            raise ValueError("no data consumed yet")
        return StreamingSnapshot(
            policy_name=self.policy.name,
            n=self._moments.n,
            value=self._moments.mean,
            std_error=self._moments.std_error(),
            match_rate=self._matches / self._moments.n,
        )


class ValidatedInteractionStream:
    """Validate a live stream of raw records into clean Interactions.

    Wraps :func:`repro.core.validation.validated_interactions` with an
    owned :class:`~repro.core.validation.Quarantine`, so streaming
    consumers (:class:`StreamingIPS`, :class:`StreamingEvaluationBoard`)
    read clean tuples and can inspect what was set aside at any point —
    still O(1) memory apart from the quarantine's bounded examples::

        stream = ValidatedInteractionStream(tail_f(path), mode="quarantine")
        board.update_all(stream)
        print(stream.quarantine.summary_text())

    ``source`` may mix raw JSONL strings and parsed dicts.  In strict
    mode the first defect raises; ``quarantine``/``repair`` keep going.
    Pass an explicit ``quarantine`` to aggregate across streams or to
    opt out of metrics mirroring
    (``Quarantine(record_metrics=False)`` — the chunked engine's
    discovery pass does, so two-pass runs count each defect once).
    """

    def __init__(
        self,
        source: Iterable[Union[str, Mapping]],
        mode: str = "quarantine",
        validator: Optional[RecordValidator] = None,
        source_name: str = "<stream>",
        quarantine: Optional[Quarantine] = None,
    ) -> None:
        check_mode(mode)
        self.mode = mode
        self.quarantine = quarantine if quarantine is not None else Quarantine()
        self.n_accepted = 0
        self._iterator = validated_interactions(
            source,
            mode=mode,
            validator=validator,
            quarantine=self.quarantine,
            source_name=source_name,
        )

    def __iter__(self) -> Iterator[Interaction]:
        for interaction in self._iterator:
            self.n_accepted += 1
            yield interaction


class StreamingEvaluationBoard:
    """Evaluate many candidates from one live exploration stream.

    The data-reuse property of §4 operationalized: a single pass over
    the log advances every candidate's estimate simultaneously.
    """

    def __init__(
        self, policies: Sequence[Policy], action_space: ActionSpace
    ) -> None:
        if not policies:
            raise ValueError("need at least one candidate")
        self._streams = [StreamingIPS(p, action_space) for p in policies]

    def update(self, interaction: Interaction) -> None:
        """Feed one tuple to every candidate."""
        for stream in self._streams:
            stream.update(interaction)

    def update_all(self, interactions: Iterable[Interaction]) -> None:
        """Feed a batch to every candidate."""
        for interaction in interactions:
            self.update(interaction)

    def merge_in(self, other: "StreamingEvaluationBoard") -> None:
        """Absorb another board that consumed a disjoint stream slice."""
        if len(other._streams) != len(self._streams):
            raise ValueError("boards track different candidate sets")
        for mine, theirs in zip(self._streams, other._streams):
            mine.merge_in(theirs)

    def snapshots(self) -> list[StreamingSnapshot]:
        """Current estimates for every candidate."""
        return [stream.snapshot() for stream in self._streams]

    def leader(self, maximize: bool = True) -> StreamingSnapshot:
        """The currently best-looking candidate."""
        snaps = self.snapshots()
        key = (lambda s: s.value) if maximize else (lambda s: -s.value)
        return max(snaps, key=key)

    def resolved(self, z: float = 1.96, maximize: bool = True) -> bool:
        """Whether the leader's CI is separated from every other
        candidate's CI — the streaming stopping rule."""
        snaps = self.snapshots()
        if len(snaps) == 1:
            return True
        lead = self.leader(maximize)
        for snap in snaps:
            if snap.policy_name == lead.policy_name:
                continue
            lead_lo, lead_hi = lead.confidence_interval(z)
            other_lo, other_hi = snap.confidence_interval(z)
            if maximize and lead_lo <= other_hi:
                return False
            if not maximize and lead_hi >= other_lo:
                return False
        return True
