"""Harvesting the load-balancer access log (steps 1–2 for Nginx).

Turns parsed :class:`~repro.loadbalance.access_log.AccessLogEntry`
records into exploration datasets: the context is the decision-time
snapshot the log line carries (connection counts + request features),
the action is the chosen upstream, and the reward is the *negative-ish*
request latency (we keep raw latency and minimize, per Table 1's CB
reward "[-] request latency").

For *generating* exploration data at scale the module also ships a
batched path: :func:`synthetic_decision_snapshots` draws decision-time
snapshots (connection counts + request features) without running the
event-driven proxy, and :func:`exploration_shard_inputs` pairs them
with the Fig. 5 latency law, fully vectorized, for the shard
coordinator (:class:`~repro.core.coordinator.HarvestCoordinator`) to
sample through any policy's
:meth:`~repro.core.policies.Policy.act_batch` — the per-request
feedback loop of :class:`~repro.loadbalance.proxy.LoadBalancerSim` is
deliberately absent, which is exactly what makes the rows independent
and batchable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.audit.streams import ShardedNormal, StreamKey, StreamRegistry
from repro.core.columns import distinct_rows
from repro.core.harvest import HarvestPipeline, LogScavenger
from repro.core.propensity import (
    DeclaredPropensityModel,
    EmpiricalPropensityModel,
    PropensityModel,
)
from repro.core.types import ActionSpace, Context, Dataset, Interaction, RewardRange
from repro.loadbalance.access_log import AccessLogEntry
from repro.loadbalance.server import ServerConfig
from repro.loadbalance.workload import DEFAULT_MIX, RequestType
from repro.obs.metrics import get_metrics
from repro.obs.tracing import get_tracer
from repro.simsys.random_source import RandomSource

#: Latency cap (seconds) for the declared reward range.
LATENCY_CAP = 10.0


def _entry_context(entry: AccessLogEntry) -> Context:
    context: dict[str, float] = {
        f"conns_{server}": float(c) for server, c in enumerate(entry.connections)
    }
    context[f"req_{entry.kind}"] = 1.0
    context["req_weight"] = entry.request_weight
    return context


def lb_action_space(n_servers: int) -> ActionSpace:
    """Action space: one action per backend server."""
    return ActionSpace(n_servers, labels=[f"server-{i}" for i in range(n_servers)])


def lb_reward_range() -> RewardRange:
    """Latency in seconds, minimized."""
    return RewardRange(0.0, LATENCY_CAP, maximize=False)


def exploration_dataset_from_entries(
    entries: Sequence[AccessLogEntry],
    propensity_model: PropensityModel,
    n_servers: Optional[int] = None,
) -> Dataset:
    """Annotate parsed log entries with propensities → exploration data."""
    if not entries:
        raise ValueError("no log entries to harvest")
    if n_servers is None:
        n_servers = len(entries[0].connections)
    actions = list(range(n_servers))
    dataset = Dataset(
        action_space=lb_action_space(n_servers), reward_range=lb_reward_range()
    )
    with get_tracer().span(
        "harvest.loadbalance", n_servers=n_servers
    ) as span:
        for entry in entries:
            context = _entry_context(entry)
            propensity = propensity_model.propensity(
                context, entry.upstream, actions
            )
            dataset.append(
                Interaction(
                    context=context,
                    action=entry.upstream,
                    reward=entry.upstream_response_time,
                    propensity=propensity,
                    timestamp=entry.time,
                )
            )
        span.set(rows=len(dataset))
    get_metrics().counter("harvest.rows", scenario="loadbalance").inc(
        len(dataset)
    )
    return dataset


def access_log_scavenger() -> LogScavenger:
    """A :class:`LogScavenger` over *raw dict* records, for use with the
    generic :class:`~repro.core.harvest.HarvestPipeline`.

    Accepts dicts shaped like ``AccessLogEntry.__dict__`` (e.g. produced
    by JSON-ifying the access log).
    """

    def context_of(record: dict) -> Optional[Context]:
        connections = record.get("connections")
        if connections is None:
            return None
        context: dict[str, float] = {
            f"conns_{server}": float(c) for server, c in enumerate(connections)
        }
        context[f"req_{record.get('kind', 'unknown')}"] = 1.0
        context["req_weight"] = float(record.get("request_weight", 1.0))
        return context

    return LogScavenger(
        context_of=context_of,
        action_of=lambda record: int(record["upstream"]),
        reward_of=lambda record: float(record["upstream_response_time"]),
        timestamp_of=lambda record: float(record.get("time", 0.0)),
    )


def build_lb_pipeline(
    n_servers: int,
    logging_policy=None,
    entries_for_empirical: Optional[Sequence[AccessLogEntry]] = None,
) -> HarvestPipeline:
    """A ready-made pipeline for load-balancer logs.

    If the logging policy is known (code inspection), pass it; otherwise
    supply entries so propensities can be estimated empirically.
    """
    if logging_policy is not None:
        propensity_model: PropensityModel = DeclaredPropensityModel(logging_policy)
    elif entries_for_empirical is not None:
        propensity_model = EmpiricalPropensityModel().fit(
            [entry.upstream for entry in entries_for_empirical]
        )
    else:
        raise ValueError(
            "need either a declared logging policy or entries to fit "
            "empirical propensities"
        )
    return HarvestPipeline(
        scavenger=access_log_scavenger(),
        propensity_model=propensity_model,
        action_space=lb_action_space(n_servers),
        reward_range=lb_reward_range(),
    )


def dataset_from_access_log(
    entries: Sequence[AccessLogEntry],
    logging_policy=None,
) -> Dataset:
    """One-call harvest: entries → exploration dataset.

    Uses declared propensities when the logging policy is given,
    empirical frequencies otherwise.
    """
    if logging_policy is not None:
        model: PropensityModel = DeclaredPropensityModel(logging_policy)
    else:
        model = EmpiricalPropensityModel().fit([e.upstream for e in entries])
    return exploration_dataset_from_entries(entries, model)


def train_cb_policy(
    dataset: Dataset,
    n_servers: int,
    passes: int = 4,
    learning_rate: float = 0.5,
    name: str = "CB policy",
):
    """Train the Table 2 CB policy from harvested exploration data.

    Reduction to importance-weighted regression: per-server latency
    models over the logged context, augmented with weight×connections
    interaction terms (latency is multiplicative in request cost), then
    greedy argmin — "the CB algorithm learns a good estimator of each
    server's latency based on context, and greedily picking the lowest
    latency yields a good policy" (§5).
    """
    from repro.core.features import Featurizer, interaction_features
    from repro.core.learners.cb import EpsilonGreedyLearner
    from repro.core.policies import GreedyRegressorPolicy

    if passes <= 0:
        raise ValueError("passes must be positive")
    pairs = [("req_weight", f"conns_{server}") for server in range(n_servers)]

    def augment(context: Context) -> Context:
        return interaction_features(context, pairs)

    augmented = Dataset(
        action_space=dataset.action_space, reward_range=dataset.reward_range
    )
    for interaction in dataset:
        augmented.append(
            Interaction(
                context=augment(interaction.context),
                action=interaction.action,
                reward=interaction.reward,
                propensity=interaction.propensity,
                timestamp=interaction.timestamp,
            )
        )
    learner = EpsilonGreedyLearner(
        n_servers,
        featurizer=Featurizer(n_dims=64),
        learning_rate=learning_rate,
        maximize=False,
    )
    for _ in range(passes):
        learner.observe_all(augmented)
    return GreedyRegressorPolicy(
        lambda context, action: learner.predict(augment(context), action),
        maximize=False,
        name=name,
    )


@dataclass
class DecisionSnapshots:
    """A batch of decision-time snapshots in both dict and array form.

    ``contexts`` is what policies see (the same vocabulary the proxy
    logs: ``conns_<i>``, ``req_<kind>``, ``req_weight``), each distinct
    snapshot once, and row ``t``'s is ``contexts[context_ids[t]]``; the
    parallel arrays are what the vectorized latency law consumes, so
    harvesting never re-parses feature dicts.
    """

    contexts: tuple
    context_ids: np.ndarray  #: ``(N,)`` row → index into :attr:`contexts`.
    connections: np.ndarray  #: ``(N, n_servers)`` open-connection counts.
    kind_index: np.ndarray  #: ``(N,)`` index into :attr:`kinds`.
    weights: np.ndarray  #: ``(N,)`` request weights.
    kinds: list[str]  #: Distinct request-kind names, index order.

    def __len__(self) -> int:
        return len(self.context_ids)


def synthetic_decision_snapshots(
    n: int,
    n_servers: int,
    seed: int = 0,
    mix: Sequence[RequestType] = DEFAULT_MIX,
    mean_connections: float = 4.0,
) -> DecisionSnapshots:
    """Draw ``n`` independent decision-time snapshots.

    Connection counts are Poisson(``mean_connections``) per server and
    request kinds/weights follow ``mix`` — the stationary marginals a
    long uniform-random proxy run produces, without the event loop's
    sequential dependence.  That independence is the point: rows can be
    harvested in batches of any size with identical results.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n_servers <= 0:
        raise ValueError("need at least one server")
    randomness = RandomSource(seed, _name="lb-snapshots")
    connections = randomness.child("connections").generator.poisson(
        mean_connections, size=(n, n_servers)
    ).astype(np.float64)
    probabilities = np.array([t.probability for t in mix])
    kind_index = randomness.child("types").generator.choice(
        len(mix), size=n, p=probabilities / probabilities.sum()
    )
    weights = np.array([t.weight for t in mix])[kind_index]
    kinds = [t.name for t in mix]
    # A context is a function of the row's request kind and connection
    # counts, so rows equal in both, bit for bit, share one context.
    # The groups compare the counts' raw bits, which never merges
    # values that compare equal but encode differently.
    first, context_ids = distinct_rows(
        np.column_stack(
            [kind_index.astype(np.int64), connections.view(np.int64)]
        )
    )
    contexts: list[Context] = []
    for row in first.tolist():
        context: dict[str, float] = {
            f"conns_{server}": connections[row, server]
            for server in range(n_servers)
        }
        context[f"req_{kinds[kind_index[row]]}"] = 1.0
        context["req_weight"] = float(weights[row])
        contexts.append(context)
    return DecisionSnapshots(
        contexts=tuple(contexts),
        context_ids=context_ids,
        connections=connections,
        kind_index=kind_index,
        weights=weights,
        kinds=kinds,
    )


def batch_latency_law(
    snapshots: DecisionSnapshots,
    server_configs: Sequence[ServerConfig],
) -> np.ndarray:
    """``(N, n_servers)`` Fig. 5 latencies for every snapshot × server.

    Vectorizes :meth:`~repro.loadbalance.server.BackendServer.
    service_latency` over the snapshot arrays: ``weight × multiplier ×
    (base + slope × conns)``, with per-kind multipliers gathered from a
    ``(n_kinds, n_servers)`` table.
    """
    base = np.array([c.base_latency for c in server_configs])
    slope = np.array([c.latency_per_connection for c in server_configs])
    multipliers = np.array(
        [
            [config.multiplier_for(kind) for config in server_configs]
            for kind in snapshots.kinds
        ]
    )
    return (
        snapshots.weights[:, None]
        * multipliers[snapshots.kind_index]
        * (base[None, :] + slope[None, :] * snapshots.connections)
    )


def latency_noise_stream(
    registry: StreamRegistry,
    shard_size: int,
    scale: float,
) -> ShardedNormal:
    """The sharded latency-noise stream of an audited loadbalance harvest.

    Noise values are addressed by *global row*, derived per
    ``shard_size`` rows from the registry's master seed — so a shard
    harvested in isolation (or on another machine) reads exactly the
    noise a serial run would, with no up-front whole-run draw.
    """
    return ShardedNormal(
        registry,
        StreamKey("loadbalance", "harvest", "latency-noise"),
        shard_size=shard_size,
        scale=scale,
    )


def exploration_shard_inputs(job, registry: StreamRegistry):
    """Shard-input builder for coordinated loadbalance harvests.

    See :data:`repro.core.coordinator.SCENARIO_BUILDERS`.  Recognized
    ``job.config`` keys: ``seed`` (snapshot draw), ``n_servers``,
    ``mean_connections``, ``servers`` (explicit
    :class:`~repro.loadbalance.server.ServerConfig` list; defaults to
    the Fig. 5 pair), ``latency_noise`` (scale; 0 disables), and
    ``timeout``.  Latency noise rides the sharded
    ``loadbalance/harvest/latency-noise`` stream
    (:func:`latency_noise_stream`) keyed by global row, so rows
    ``[k·S, (k+1)·S)`` derive exactly their own noise shard — no
    up-front whole-run draw, and any shard re-derives in isolation.
    """
    from repro.core.coordinator import HarvestInputs
    from repro.loadbalance.proxy import fig5_servers

    config = job.config
    seed = int(config.get("seed", 0))
    servers = config.get("servers")
    if servers is None:
        servers = fig5_servers()
    n_servers = int(config.get("n_servers", len(servers)))
    if n_servers != len(servers):
        raise ValueError(
            f"config names {n_servers} servers but supplies {len(servers)} "
            f"server configs"
        )
    snapshots = synthetic_decision_snapshots(
        job.rows,
        n_servers,
        seed=seed,
        mean_connections=float(config.get("mean_connections", 4.0)),
    )
    latency_matrix = batch_latency_law(snapshots, servers)
    scale = float(config.get("latency_noise", 0.01))
    timeout = float(config.get("timeout", LATENCY_CAP))
    noise = (
        latency_noise_stream(registry, job.shard_size, scale)
        if scale > 0
        else None
    )

    def reward_fn(indices: np.ndarray, actions: np.ndarray) -> np.ndarray:
        latency = latency_matrix[indices, actions]
        if noise is not None:
            latency = latency + noise.values(indices)
        return np.minimum(np.maximum(latency, 0.001), timeout)

    return HarvestInputs(
        contexts=snapshots.contexts,
        reward_fn=reward_fn,
        action_space=lb_action_space(n_servers),
        reward_range=lb_reward_range(),
        context_ids=snapshots.context_ids,
    )
