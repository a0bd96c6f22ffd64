"""Full-feedback datasets and exploration simulation (Figs. 3–4).

At collection time Azure "was using a safe default policy of waiting
the maximal amount of time (10 min) before rebooting, which actually
gives us full feedback on what would have happened if we waited
{1,...,9} min" (§3).  We build exactly that object: every interaction
carries the downtime of *all ten* wait times, logged under the
deterministic wait-10 default.

From it we can

- compute any policy's **ground truth** value by lookup
  (:func:`ground_truth_value`),
- **simulate exploration** — reveal only the reward of a randomly
  chosen action, hiding the rest (:func:`simulate_exploration`) — the
  construction behind the 1000 partial-information simulations of
  Fig. 3 and the CB learning curves of Fig. 4.

Rewards are *downtimes* (minutes × VMs): smaller is better, so every
learner/optimizer in these experiments runs with ``maximize=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.audit.ledger import DecisionLedger
from repro.core import harvest
from repro.core.columns import DatasetColumns, distinct_rows
from repro.core.features import FeatureEncoder
from repro.core.policies import Policy, UniformRandomPolicy
from repro.core.types import ActionSpace, Dataset, Interaction, RewardRange
from repro.machinehealth.failures import (
    WAIT_TIMES,
    DowntimeModel,
    FailureColumns,
    FailureEvent,
    failure_columns,
)
from repro.machinehealth.fleet import FAILURE_KINDS, FleetConfig, generate_fleet
from repro.obs.metrics import get_metrics
from repro.obs.tracing import get_tracer
from repro.simsys.random_source import RandomSource

#: Index of the safe default action ("wait 10 minutes") in WAIT_TIMES.
DEFAULT_ACTION = len(WAIT_TIMES) - 1

#: Downtime cap (minutes × VMs) used as the reward range upper bound.
DOWNTIME_CAP = 600.0


@dataclass
class MachineHealthDataset:
    """A full-feedback machine-health dataset plus its provenance."""

    full: Dataset
    events: list[FailureEvent]
    encoder: FeatureEncoder

    @property
    def n_actions(self) -> int:
        """Number of wait-time actions (10)."""
        return len(WAIT_TIMES)

    def split(self, train_fraction: float = 0.5) -> tuple[Dataset, Dataset]:
        """(train, test) split in logged order."""
        return self.full.split(train_fraction)


@dataclass(frozen=True, eq=False)
class _IncidentColumns:
    """One scenario build: the columns both dataset views are read from.

    ``contexts`` holds one encoded context per distinct (machine,
    failure kind) pair, and incident ``t``'s context is
    ``contexts[context_ids[t]]``; ``profiles`` is the
    ``(N, len(WAIT_TIMES))`` matrix of capped downtimes.
    """

    failures: FailureColumns
    encoder: FeatureEncoder
    contexts: tuple
    context_ids: np.ndarray
    profiles: np.ndarray


def _incident_columns(
    n_events: int,
    n_machines: int,
    seed: int,
    model: Optional[DowntimeModel] = None,
) -> _IncidentColumns:
    """Draw the fleet and its incidents and encode them, column-wise.

    The encoder is fitted on the per-incident columns (the values its
    records would hold, in incident order), and every distinct (machine,
    kind) pair is encoded once; an incident names its pair's context by
    id.
    """
    randomness = RandomSource(seed, _name="machine-health")
    machines = generate_fleet(FleetConfig(n_machines=n_machines), randomness)
    failures = failure_columns(
        machines, n_events, randomness.child("failures"), model
    )
    rows = failures.machine

    def per_incident(field: str, dtype) -> np.ndarray:
        fleet = np.asarray([getattr(m, field) for m in machines], dtype=dtype)
        return fleet[rows]

    encoder = FeatureEncoder(
        categorical=["hardware_sku", "os_version", "failure_kind"],
        numeric=["age_years", "n_vms", "prior_failures"],
        standardize=True,
    )
    encoder.fit_columns(
        {
            "hardware_sku": per_incident("hardware_sku", object),
            "os_version": per_incident("os_version", object),
            "failure_kind": np.asarray(FAILURE_KINDS, dtype=object)[
                failures.kind
            ],
            "age_years": per_incident("age_years", np.float64),
            "n_vms": per_incident("n_vms", np.int64),
            "prior_failures": per_incident("prior_failures", np.int64),
        }
    )
    # The distinct pairs in ascending order, and each incident's
    # position among them.
    pairs = rows * len(FAILURE_KINDS) + failures.kind
    first, context_ids = distinct_rows(pairs)
    contexts = []
    for pair in pairs[first].tolist():
        machine, kind = divmod(pair, len(FAILURE_KINDS))
        record = machines[machine].context_record()
        record["failure_kind"] = FAILURE_KINDS[kind]
        contexts.append(encoder.encode(record))
    return _IncidentColumns(
        failures=failures,
        encoder=encoder,
        contexts=tuple(contexts),
        context_ids=context_ids,
        profiles=np.minimum(failures.downtime_profiles(), DOWNTIME_CAP),
    )


def _action_space() -> ActionSpace:
    return ActionSpace(
        len(WAIT_TIMES), labels=[f"wait-{w}min" for w in WAIT_TIMES]
    )


def _reward_range() -> RewardRange:
    return RewardRange(0.0, DOWNTIME_CAP, maximize=False)


def build_full_feedback_dataset(
    n_events: int = 5000,
    n_machines: int = 1000,
    seed: int = 0,
    model: Optional[DowntimeModel] = None,
) -> MachineHealthDataset:
    """Generate a fleet and a fully-logged incident dataset.

    Draws ``n_events`` incidents and logs them under the wait-10
    default with full feedback attached.  The dataset, its events and
    its encoder are materialized from the same columns the coordinated
    harvest builds its inputs from (:func:`exploration_shard_inputs`).
    """
    incidents = _incident_columns(n_events, n_machines, seed, model)
    contexts = incidents.contexts
    dataset = Dataset(
        [
            Interaction(
                # Each row of a row-by-row dataset owns its context.
                context=contexts[context_id].copy(),
                action=DEFAULT_ACTION,
                reward=profile[DEFAULT_ACTION],
                propensity=1.0,  # the default policy is deterministic
                timestamp=float(index),
                full_rewards=profile,
            )
            for index, (context_id, profile) in enumerate(
                zip(
                    incidents.context_ids.tolist(),
                    incidents.profiles.tolist(),
                )
            )
        ],
        action_space=_action_space(),
        reward_range=_reward_range(),
    )
    return MachineHealthDataset(
        full=dataset,
        events=incidents.failures.events(),
        encoder=incidents.encoder,
    )


def _stack_full_feedback(full_dataset: Dataset) -> tuple:
    """``(contexts, profiles, timestamps)`` of a full-feedback dataset.

    ``profiles`` is the ``(N, n_actions)`` matrix every harvest of the
    dataset gathers its revealed rewards from.
    """
    interactions = list(full_dataset)
    if any(interaction.full_rewards is None for interaction in interactions):
        raise ValueError("exploration simulation requires full feedback")
    profiles = np.asarray(
        [interaction.full_rewards for interaction in interactions],
        dtype=np.float64,
    )
    contexts = tuple(interaction.context for interaction in interactions)
    timestamps = np.asarray(
        [interaction.timestamp for interaction in interactions],
        dtype=np.float64,
    )
    return contexts, profiles, timestamps


def simulate_exploration_columns(
    full_dataset: Dataset,
    rng: "harvest.HarvestRNG",
    logging_policy: Optional[Policy] = None,
    batch_size: int = harvest.DEFAULT_BATCH_SIZE,
    ledger: Optional["DecisionLedger"] = None,
) -> "DatasetColumns":
    """Batched partial-feedback simulation, returned columnar.

    The vectorized core of :func:`simulate_exploration`: the logging
    policy samples all rows through
    :meth:`~repro.core.policies.Policy.act_batch` in ``batch_size``
    chunks, and the revealed rewards are gathered from the stacked
    full-feedback profiles with one fancy-index per batch.  Output
    feeds the vectorized estimators directly; results are invariant to
    ``batch_size`` for a fixed generator (the harvest determinism
    contract).  Audit hooks (a sharded
    :class:`~repro.audit.streams.StreamRNG` as ``rng`` and/or a
    :class:`~repro.audit.ledger.DecisionLedger`) pass straight through
    to the engine.
    """
    if len(full_dataset) == 0:
        raise ValueError("empty dataset")
    logging_policy = logging_policy or UniformRandomPolicy()
    contexts, profiles, timestamps = _stack_full_feedback(full_dataset)
    space = full_dataset.action_space

    def reveal(indices: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return profiles[indices, actions]

    with get_tracer().span(
        "harvest.machinehealth", policy=logging_policy.name
    ) as span:
        columns = harvest.harvest_columns(
            logging_policy,
            contexts,
            reveal,
            rng,
            eligible=None if space is not None else tuple(
                range(profiles.shape[1])
            ),
            action_space=space,
            batch_size=batch_size,
            reward_range=full_dataset.reward_range,
            scenario="machinehealth",
            timestamps=timestamps,
            ledger=ledger,
        )
        span.set(rows=columns.n)
    get_metrics().counter("harvest.rows", scenario="machinehealth").inc(
        columns.n
    )
    return columns


def exploration_shard_inputs(job, registry):
    """Shard-input builder for coordinated machine-health harvests.

    See :data:`repro.core.coordinator.SCENARIO_BUILDERS`.  Recognized
    ``job.config`` keys: ``seed`` (fleet + failure draw), ``n_machines``.
    The inputs are deterministic in ``(rows, seed, n_machines)`` —
    exactly the :class:`~repro.core.coordinator.HarvestInputs`
    determinism contract — so every build yields identical contexts
    and reward profiles from the config alone.  They are read straight
    off the scenario's columns: the same contexts, profiles and
    timestamps :func:`build_full_feedback_dataset` logs, without a
    per-row event, interaction, dataset or context dict — each distinct
    (machine, failure kind) context once, plus one id per incident.
    """
    from repro.core.coordinator import HarvestInputs

    config = job.config
    incidents = _incident_columns(
        job.rows,
        int(config.get("n_machines", 1000)),
        int(config.get("seed", 0)),
    )
    profiles = incidents.profiles

    def reveal(indices: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return profiles[indices, actions]

    return HarvestInputs(
        contexts=incidents.contexts,
        reward_fn=reveal,
        action_space=_action_space(),
        reward_range=_reward_range(),
        timestamps=np.arange(len(profiles), dtype=np.float64),
        trace_attributes={"distinct_contexts": len(incidents.contexts)},
        context_ids=incidents.context_ids,
    )


def simulate_exploration(
    full_dataset: Dataset,
    rng: np.random.Generator,
    logging_policy: Optional[Policy] = None,
    batch_size: int = harvest.DEFAULT_BATCH_SIZE,
) -> Dataset:
    """Simulate partial feedback from a full-feedback dataset.

    For every interaction, the logging policy (uniform random over the
    10 wait times unless overridden) chooses an action; only that
    action's reward is revealed, "hiding all others" (§4).

    Decisions are sampled in batches through the policy's
    :meth:`~repro.core.policies.Policy.act_batch` (see
    :func:`simulate_exploration_columns`, which this materializes).
    """
    return simulate_exploration_columns(
        full_dataset, rng, logging_policy, batch_size=batch_size
    ).to_dataset()


def ground_truth_value(policy: Policy, full_dataset: Dataset) -> float:
    """Exact average reward of ``policy`` on a full-feedback dataset.

    Full feedback lets us just look up the reward of whatever action
    the policy picks — no off-policy correction needed.
    """
    if len(full_dataset) == 0:
        raise ValueError("empty dataset")
    space = full_dataset.action_space
    total = 0.0
    for interaction in full_dataset:
        if interaction.full_rewards is None:
            raise ValueError("ground truth requires full feedback")
        actions = (
            space.actions(interaction.context)
            if space is not None
            else list(range(len(interaction.full_rewards)))
        )
        chosen = policy.action(interaction.context, actions)
        total += interaction.full_rewards[chosen]
    return total / len(full_dataset)


def default_policy_reward(full_dataset: Dataset) -> float:
    """Average downtime of the wait-10 default used during collection."""
    if len(full_dataset) == 0:
        raise ValueError("empty dataset")
    total = 0.0
    for interaction in full_dataset:
        if interaction.full_rewards is None:
            raise ValueError("requires full feedback")
        total += interaction.full_rewards[DEFAULT_ACTION]
    return total / len(full_dataset)
