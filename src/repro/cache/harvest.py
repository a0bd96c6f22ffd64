"""Harvesting the keyspace log (steps 1–2 for Redis).

The reward of an eviction — time until the evicted item is next
accessed — is not in any single log record, because "Redis does not
maintain state for evicted items.  Instead, we reconstruct this
information during step 1 by looking ahead in the logs to when the
item next appears" (§3).  :func:`reconstruct_rewards` performs exactly
that look-ahead; evictions whose victim never reappears get the
censoring cap (evicting a never-again-used item is the best possible
outcome).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cache.eviction import candidate_features
from repro.cache.keyspace_log import KeyspaceEvent, parse_keyspace_line
from repro.core.features import Featurizer
from repro.core.learners.cb import PerActionFeaturesLearner
from repro.core.policies import Policy, UniformRandomPolicy
from repro.core.propensity import DeclaredPropensityModel
from repro.core.types import ActionSpace, Context, Dataset, Interaction, RewardRange
from repro.obs.metrics import get_metrics
from repro.obs.tracing import get_tracer

#: Censoring cap for "never accessed again", in workload time units.
DEFAULT_REWARD_CAP = 2000.0


def _context_from_candidates(
    candidates: Sequence[tuple[str, float, float, float, float]]
) -> Context:
    context: dict[str, float] = {}
    for slot, (_key, idle, freq, size, age) in enumerate(candidates):
        context[f"cand{slot}_idle"] = idle
        context[f"cand{slot}_freq"] = freq
        context[f"cand{slot}_size"] = size
        context[f"cand{slot}_age"] = age
    return context


def reconstruct_rewards(
    events: Sequence[KeyspaceEvent],
    reward_cap: float = DEFAULT_REWARD_CAP,
) -> list[tuple[KeyspaceEvent, float]]:
    """Pair each EVICT event with its look-ahead reward.

    One forward pass: for every key, collect the sorted times of its
    GETs; for each eviction, binary-search the first access after the
    eviction time.  Rewards are clipped at ``reward_cap`` (also the
    value assigned when the key never reappears).
    """
    import bisect

    access_times: dict[str, list[float]] = {}
    for event in events:
        if event.kind == "GET":
            access_times.setdefault(event.key, []).append(event.time)
    # Log shippers may reorder lines; the look-ahead keys on
    # timestamps, so sort each key's accesses before binary search.
    for times in access_times.values():
        times.sort()
    rewarded = []
    for event in events:
        if event.kind != "EVICT":
            continue
        times = access_times.get(event.key, [])
        index = bisect.bisect_right(times, event.time)
        if index < len(times):
            reward = min(times[index] - event.time, reward_cap)
        else:
            reward = reward_cap
        rewarded.append((event, reward))
    return rewarded


def candidate_reward_matrix(
    events: Sequence[KeyspaceEvent],
    sample_size: int = 5,
    reward_cap: float = DEFAULT_REWARD_CAP,
) -> tuple[list[KeyspaceEvent], np.ndarray]:
    """Per-slot look-ahead rewards for every logged eviction point.

    The full-feedback analogue of :func:`reconstruct_rewards`: because
    the keyspace log names *every sampled candidate* (not just the
    victim), the time-to-next-access look-ahead works for any slot the
    policy might have evicted.  Returns the EVICT events alongside an
    ``(N, sample_size)`` reward matrix — rows align with the events,
    entry ``[t, s]`` is the capped time until candidate ``s``'s key
    reappears after eviction time ``t`` (slots beyond the row's sample
    hold the cap, but are never eligible).  This is what lets
    :func:`exploration_shard_inputs` replay the same decision points
    under a different eviction policy.
    """
    import bisect

    access_times: dict[str, list[float]] = {}
    for event in events:
        if event.kind == "GET":
            access_times.setdefault(event.key, []).append(event.time)
    for times in access_times.values():
        times.sort()
    evictions = [event for event in events if event.kind == "EVICT"]
    rewards = np.full((len(evictions), sample_size), reward_cap)
    for row, event in enumerate(evictions):
        for slot, (key, *_features) in enumerate(event.candidates):
            if slot >= sample_size:
                break
            times = access_times.get(key, [])
            index = bisect.bisect_right(times, event.time)
            if index < len(times):
                rewards[row, slot] = min(times[index] - event.time, reward_cap)
    return evictions, rewards


def _coerce_events(lines_or_events) -> list[KeyspaceEvent]:
    """Parse raw log lines into events; pass parsed events through."""
    events: list[KeyspaceEvent] = []
    for item in lines_or_events:
        if isinstance(item, str):
            parsed = parse_keyspace_line(item)
            if parsed is not None:
                events.append(parsed)
        else:
            events.append(item)
    return events


def eviction_decision_points(
    lines_or_events,
    sample_size: int = 5,
    reward_cap: float = DEFAULT_REWARD_CAP,
) -> tuple[list[Context], list, np.ndarray, np.ndarray]:
    """Precompute the harvestable decision points of a keyspace log.

    Returns ``(contexts, eligible, timestamps, rewards)`` — one row
    per EVICT event: the candidate-feature context, the per-row
    eligible slots, the event time, and the ``(N, sample_size)``
    look-ahead reward matrix of :func:`candidate_reward_matrix`.
    This is the whole deterministic prepare step of an eviction
    harvest (see the shard-input builder,
    :func:`exploration_shard_inputs`) — the decision points depend only
    on the log, never on the harvesting policy or RNG.
    """
    events = _coerce_events(lines_or_events)
    evictions, rewards = candidate_reward_matrix(events, sample_size, reward_cap)
    if not evictions:
        raise ValueError("no EVICT events to resample")
    contexts = [
        _context_from_candidates(event.candidates[:sample_size])
        for event in evictions
    ]
    eligible = [
        tuple(range(min(len(event.candidates), sample_size))) or (0,)
        for event in evictions
    ]
    timestamps = np.array([event.time for event in evictions])
    return contexts, eligible, timestamps, rewards


def exploration_shard_inputs(job, registry):
    """Shard-input builder for coordinated cache harvests.

    See :data:`repro.core.coordinator.SCENARIO_BUILDERS`.  Recognized
    ``job.config`` keys: ``seed`` (workload + sim + logging policy),
    ``capacity``, ``n_big``, ``n_small``, ``sample_size``,
    ``reward_cap``.  The keyspace log is regenerated by replaying the
    big-small workload through :class:`~repro.cache.sim.CacheSim` —
    deterministic in the config, so every build yields identical
    decision points.  Note ``job.rows`` counts workload *requests*;
    the harvested row count is the number of EVICT events the sim
    produces (the coordinator plans shards over the latter).
    """
    from repro.cache.eviction import random_eviction_policy
    from repro.cache.sim import CacheSim
    from repro.cache.workload import BigSmallWorkload
    from repro.core.coordinator import HarvestInputs
    from repro.simsys.random_source import RandomSource

    config = job.config
    seed = int(config.get("seed", 0))
    sample_size = int(config.get("sample_size", 5))
    reward_cap = float(config.get("reward_cap", DEFAULT_REWARD_CAP))
    workload = BigSmallWorkload(
        n_big=int(config.get("n_big", 20)),
        n_small=int(config.get("n_small", 200)),
        randomness=RandomSource(seed, _name="harvest-wl"),
    )
    sim = CacheSim(
        int(config.get("capacity", 150)),
        random_eviction_policy(),
        sample_size=sample_size,
        seed=seed,
    )
    result = sim.run(workload.requests(job.rows), keep_log=True)
    contexts, eligible, timestamps, rewards = eviction_decision_points(
        result.log_lines, sample_size, reward_cap
    )

    def reveal(indices: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return rewards[indices, actions]

    return HarvestInputs(
        contexts=tuple(contexts),
        reward_fn=reveal,
        eligible=tuple(eligible),
        action_space=eviction_action_space(sample_size),
        reward_range=RewardRange(0.0, reward_cap, maximize=True),
        timestamps=timestamps,
    )


def eviction_action_space(sample_size: int) -> ActionSpace:
    """Action space for eviction decisions: slots into the sample.

    The eligible actions depend on the context — near-empty caches
    yield samples smaller than ``maxmemory-samples``, so only the slots
    actually present (detected by their ``cand{i}_size`` feature) are
    eligible.  This is the paper's "the set A may depend on x" in the
    flesh.
    """

    def eligibility(context):
        eligible = [
            slot
            for slot in range(sample_size)
            if f"cand{slot}_size" in context
        ]
        return eligible or [0]

    return ActionSpace(sample_size, eligibility=eligibility)


def eviction_dataset_from_log(
    lines_or_events,
    logging_policy: Optional[Policy] = None,
    sample_size: int = 5,
    reward_cap: float = DEFAULT_REWARD_CAP,
) -> Dataset:
    """Keyspace log → exploration dataset for eviction decisions.

    Accepts raw log lines (str) or parsed :class:`KeyspaceEvent`
    objects.  ``logging_policy`` defaults to Redis's uniform random
    eviction (the Table 3 collection policy) for propensity
    declaration.
    """
    with get_tracer().span(
        "harvest.cache", sample_size=sample_size
    ) as span:
        events: list[KeyspaceEvent] = []
        dropped = 0
        for item in lines_or_events:
            if isinstance(item, str):
                parsed = parse_keyspace_line(item)
                if parsed is not None:
                    events.append(parsed)
                else:
                    dropped += 1
            else:
                events.append(item)
        if not events:
            raise ValueError("no parseable keyspace events")
        model = DeclaredPropensityModel(logging_policy or UniformRandomPolicy())
        dataset = Dataset(
            action_space=eviction_action_space(sample_size),
            reward_range=RewardRange(0.0, reward_cap, maximize=True),
        )
        for event, reward in reconstruct_rewards(events, reward_cap):
            context = _context_from_candidates(event.candidates)
            actions = list(range(len(event.candidates)))
            propensity = model.propensity(context, event.victim_slot, actions)
            dataset.append(
                Interaction(
                    context=context,
                    action=event.victim_slot,
                    reward=reward,
                    propensity=propensity,
                    timestamp=event.time,
                )
            )
        span.set(rows=len(dataset), events=len(events), dropped=dropped)
    metrics = get_metrics()
    metrics.counter("harvest.rows", scenario="cache").inc(len(dataset))
    if dropped:
        metrics.counter("harvest.dropped", scenario="cache").inc(dropped)
    return dataset


def train_cb_eviction(
    dataset: Dataset,
    passes: int = 3,
    learning_rate: float = 0.2,
    name: str = "CB policy",
) -> Policy:
    """Train the greedy CB eviction policy of Table 3.

    A shared model over candidate features (idle, freq, size, age)
    predicts time-to-next-access; the policy greedily evicts the
    candidate predicted to stay cold longest.  Table 3's lesson is that
    this *succeeds at its own objective* yet fails on hit rate, because
    the greedy reward ignores the opportunity cost of the bytes.
    """
    if passes <= 0:
        raise ValueError("passes must be positive")
    learner = PerActionFeaturesLearner(
        features_of=candidate_features,
        featurizer=Featurizer(n_dims=32),
        learning_rate=learning_rate,
        maximize=True,
        name=name,
    )
    for _ in range(passes):
        learner.observe_all(dataset)
    return learner.policy()
