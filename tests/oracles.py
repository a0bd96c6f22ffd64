"""Per-row reference implementations the equivalence suites check against.

The estimators fold array math over columnar views
(:mod:`repro.core.estimators.reductions`).  The loops here compute the
same quantities the slow, obviously correct way: walk the log one
:class:`~repro.core.types.Interaction` at a time and ask the policy for
its distribution per row.  They produce the reduction's
:class:`~repro.core.estimators.reductions.ChunkTerms` from that loop and
then reuse the reduction's own ``fold_chunk``/``finalize``, so a
disagreement localizes to the per-row quantities, not the bookkeeping.

Used by the equivalence suites and by the perf bench's scalar rows.
:func:`fit_reward_model_rows` is the same kind of reference for
:meth:`~repro.core.estimators.direct.RewardModel.fit`, and
:func:`bootstrap_replicates` (with :func:`mean_shard` and
:func:`ratio_shard`) for the bootstrap: each policy drawing its own
whole index matrix and summing each replicate over its draw counts,
which the shared, row-blocked draw must match bit for bit.  The gather
shards (:func:`gather_mean_shard`, :func:`gather_ratio_shard`) sum the
gathered terms instead, as the bootstrap did before it counted draws.

:func:`harvest_shard` re-derives one shard of a harvest in isolation,
from ``(master seed, stream key, start ordinal)`` and the shard map's
recorded ``prev`` — the fork-equivalence reference the one-pass
coordinator's rows and chain must match shard by shard.

The machine-health references (:func:`machinehealth_rows` and the
builder :func:`machinehealth_shard_inputs`) build the scenario one
machine and one incident at a time, with one
:meth:`~repro.simsys.random_source.RandomSource.choice` call per pick —
the loop the columnar build in :mod:`repro.machinehealth` must match
bit for bit.  :func:`verify_sharded_records` is the two-walk sharded
verifier (every record checked by the whole-log walk and again by its
shard's walk, each record routed by a scan over the shards) that
:func:`repro.audit.shards.verify_sharded_records` must report exactly.

:class:`ValueKeyedContexts`, :func:`value_chain` and :func:`value_log`
are the by-value log codec: every row's context keyed by value, as the
ledger sealed and the writers wrote before rows carried context ids —
the reference the id path's log bytes and chain heads must equal.
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.audit.ledger import (
    GENESIS,
    ChainFollower,
    DecisionLedger,
    context_digest,
    entry_hash,
    verify_records,
)
from repro.audit.shards import ShardedVerification, _splice_geometry_issues
from repro.audit.streams import StreamRegistry, StreamRNG
from repro.core.bootstrap import BOOTSTRAP_SHARD
from repro.core.codec import context_key
from repro.core.coordinator import HarvestInputs
from repro.core.estimators.base import EstimatorResult, eligible_actions_fn
from repro.core.estimators.direct import RewardModel
from repro.core.estimators.fallback import FallbackEstimator, select_down_ladder
from repro.core.estimators.reductions import (
    ChunkTerms,
    DirectMethodReduction,
    DoublyRobustReduction,
    IPSReduction,
    LogSummary,
    ReductionContext,
    SwitchReduction,
)
from repro.core.features import FeatureEncoder
from repro.core.harvest import harvest_columns
from repro.core.types import ActionSpace, Dataset, RewardRange
from repro.machinehealth.dataset import DOWNTIME_CAP
from repro.machinehealth.failures import NEVER, WAIT_TIMES, DowntimeModel, FailureEvent
from repro.machinehealth.fleet import (
    FAILURE_KINDS,
    HARDWARE_SKUS,
    OS_VERSIONS,
    FleetConfig,
    Machine,
)
from repro.simsys.random_source import RandomSource


def fit_reward_model_rows(model: RewardModel, dataset: Dataset) -> RewardModel:
    """The per-row reference for ``model.fit(dataset)``.

    Hashes each interaction with ``featurizer.vector``, stacks the rows
    of each logged action, and solves that action's ridge normal
    equations; the global mean comes from the reward list.
    """
    by_action: dict[int, list] = {}
    for interaction in dataset:
        by_action.setdefault(interaction.action, []).append(interaction)
    dims = model.featurizer.n_dims
    weights = {}
    for action, rows in by_action.items():
        X = np.stack([model.featurizer.vector(r.context) for r in rows])
        y = np.array([r.reward for r in rows])
        gram = X.T @ X + model.l2 * np.eye(dims)
        weights[action] = np.linalg.solve(gram, X.T @ y)
    model._weights = weights
    model._global_mean = float(dataset.rewards().mean())
    model._fitted = True
    return model


def match_weights(policy, dataset: Dataset) -> np.ndarray:
    """Importance ratios ``π(a_t|x_t)/p_t``, one ``probability_of`` per row."""
    eligible = eligible_actions_fn(dataset)
    weights = np.empty(len(dataset))
    for index, interaction in enumerate(dataset):
        pi_prob = policy.probability_of(
            interaction.context, eligible(interaction), interaction.action
        )
        weights[index] = pi_prob / interaction.propensity
    return weights


def weighted_rewards(policy, dataset: Dataset) -> np.ndarray:
    """IPS terms ``π(a_t|x_t)/p_t · r_t``, row by row."""
    return match_weights(policy, dataset) * dataset.rewards()


def _weights_and_coverage(policy, dataset, observed):
    eligible = eligible_actions_fn(dataset)
    observed_set = set(np.asarray(observed).tolist())
    weights = np.empty(len(dataset))
    coverage_sum = 0.0
    for index, interaction in enumerate(dataset):
        actions = eligible(interaction)
        probs = policy.distribution(interaction.context, actions)
        pi_prob = 0.0
        for position, action in enumerate(actions):
            if action == interaction.action:
                pi_prob = float(probs[position])
            if action in observed_set:
                coverage_sum += float(probs[position])
        weights[index] = pi_prob / interaction.propensity
    return weights, coverage_sum


def _model_value(model, context, probs, actions) -> float:
    return sum(p * model.predict(context, a) for p, a in zip(probs, actions))


def _direct_terms(reduction, dataset) -> ChunkTerms:
    eligible = eligible_actions_fn(dataset)
    observed_set = set(np.asarray(reduction.context.observed_actions).tolist())
    predictions = np.empty(len(dataset))
    coverage_sum = 0.0
    for index, interaction in enumerate(dataset):
        actions = eligible(interaction)
        probs = reduction.policy.distribution(interaction.context, actions)
        predictions[index] = _model_value(
            reduction.model, interaction.context, probs, actions
        )
        coverage_sum += sum(
            float(p) for p, a in zip(probs, actions) if a in observed_set
        )
    return ChunkTerms(
        n=len(dataset),
        terms=predictions,
        coverage_sum=coverage_sum,
        matched=len(dataset),
    )


def _doubly_robust_terms(reduction, dataset) -> ChunkTerms:
    eligible = eligible_actions_fn(dataset)
    observed_set = set(np.asarray(reduction.context.observed_actions).tolist())
    model = reduction.model
    terms = np.empty(len(dataset))
    weights = np.empty(len(dataset))
    matched = 0
    coverage_sum = 0.0
    for index, interaction in enumerate(dataset):
        actions = eligible(interaction)
        probs = reduction.policy.distribution(interaction.context, actions)
        baseline = _model_value(model, interaction.context, probs, actions)
        pi_prob = 0.0
        for position, action in enumerate(actions):
            if action == interaction.action:
                pi_prob = float(probs[position])
            if action in observed_set:
                coverage_sum += float(probs[position])
        ratio = pi_prob / interaction.propensity
        if ratio > 0:
            matched += 1
        residual = interaction.reward - model.predict(
            interaction.context, interaction.action
        )
        terms[index] = baseline + ratio * residual
        weights[index] = ratio
    return ChunkTerms(
        n=len(dataset),
        terms=terms,
        weights=weights,
        coverage_sum=coverage_sum,
        matched=matched,
    )


def _switch_terms(reduction, dataset) -> ChunkTerms:
    eligible = eligible_actions_fn(dataset)
    terms = np.empty(len(dataset))
    switched = 0
    matched = 0
    for index, interaction in enumerate(dataset):
        actions = eligible(interaction)
        pi_prob = reduction.policy.probability_of(
            interaction.context, actions, interaction.action
        )
        weight = pi_prob / interaction.propensity
        if weight > 0:
            matched += 1
        if weight <= reduction.tau:
            terms[index] = weight * interaction.reward
        else:
            switched += 1
            probs = reduction.policy.distribution(interaction.context, actions)
            terms[index] = _model_value(
                reduction.model, interaction.context, probs, actions
            )
    return ChunkTerms(
        n=len(dataset), terms=terms, matched=matched, switched=switched
    )


def _chunk_terms(reduction, dataset: Dataset) -> ChunkTerms:
    """The reduction's per-row quantities, computed one row at a time."""
    if isinstance(reduction, IPSReduction):
        weights, coverage_sum = _weights_and_coverage(
            reduction.policy, dataset, reduction.context.observed_actions
        )
        return reduction._chunk_from_weights(
            weights, dataset.rewards(), coverage_sum
        )
    if isinstance(reduction, DirectMethodReduction):
        return _direct_terms(reduction, dataset)
    if isinstance(reduction, DoublyRobustReduction):
        return _doubly_robust_terms(reduction, dataset)
    if isinstance(reduction, SwitchReduction):
        return _switch_terms(reduction, dataset)
    raise TypeError(f"no per-row reference for {type(reduction).__name__}")


def estimate(estimator, policy, dataset: Dataset) -> EstimatorResult:
    """The per-row reference for ``estimator.estimate(policy, dataset)``.

    The fallback ladder walks its rungs through this same reference,
    exactly as :meth:`FallbackEstimator.estimate` walks them lazily.
    """
    if isinstance(estimator, FallbackEstimator):
        return select_down_ladder(
            (estimate(rung, policy, dataset) for rung in estimator.ladder),
            estimator.name,
            policy.name,
        )
    estimator._require_data(dataset)
    context = ReductionContext.from_dataset(dataset)
    reduction = estimator._reduction(policy, dataset, context)
    state = reduction.fold_chunk(
        reduction.init_state(), _chunk_terms(reduction, dataset)
    )
    return reduction.finalize(
        state, LogSummary.from_columns(dataset.columns())
    )


# -- bootstrap ----------------------------------------------------------------


def resampled_sum(counts: np.ndarray, terms: np.ndarray) -> float:
    """One replicate's sum of ``terms``: each term times its draw count."""
    return np.einsum("i,i->", counts, terms)


def _draw_counts(count: int, n: int, rng) -> list[np.ndarray]:
    """Float64 draw counts of every replicate of one ``(count, n)`` draw."""
    indices = rng.integers(0, n, size=(count, n))
    return [np.bincount(row, minlength=n).astype(float) for row in indices]


def mean_shard(terms: np.ndarray, count: int, rng) -> np.ndarray:
    """One policy's replicate means from one whole ``(count, n)`` draw."""
    sums = [
        resampled_sum(counts, terms)
        for counts in _draw_counts(count, terms.size, rng)
    ]
    return np.array(sums) / terms.size


def ratio_shard(numerators, weights, count: int, rng) -> np.ndarray:
    """One policy's resampled SNIPS ratios (pairs resampled jointly)."""
    draws = _draw_counts(count, weights.size, rng)
    num = np.array([resampled_sum(counts, numerators) for counts in draws])
    den = np.array([resampled_sum(counts, weights) for counts in draws])
    return np.divide(num, den, out=np.full(count, np.nan), where=den > 0)


def gather_mean_shard(terms: np.ndarray, count: int, rng) -> np.ndarray:
    """:func:`mean_shard` summed the historical way: gather, then sum."""
    indices = rng.integers(0, terms.size, size=(count, terms.size))
    return terms[indices].mean(axis=1)


def gather_ratio_shard(numerators, weights, count: int, rng) -> np.ndarray:
    """:func:`ratio_shard` summed the historical way: gather, then sum."""
    indices = rng.integers(0, weights.size, size=(count, weights.size))
    num = numerators[indices].sum(axis=1)
    den = weights[indices].sum(axis=1)
    return np.divide(num, den, out=np.full(count, np.nan), where=den > 0)


def bootstrap_replicates(shard_fn, arrays, n_boot: int, seed=None, rng=None):
    """The per-policy reference for one policy's replicates.

    Seeded: shards of :data:`~repro.core.bootstrap.BOOTSTRAP_SHARD`
    replicates, shard ``s`` drawn whole from ``default_rng((seed, s))``,
    concatenated in order.  Otherwise one draw of all ``n_boot`` from
    ``rng`` (default ``default_rng(0)``).  :mod:`repro.core.bootstrap`
    draws once for every policy and in row blocks, and must give these
    values exactly, row by row, with the counts shards; the gather
    shards sum in another order and agree to a relative tolerance.
    """
    if seed is None:
        rng = rng if rng is not None else np.random.default_rng(0)
        return shard_fn(*arrays, n_boot, rng)
    return np.concatenate([
        shard_fn(
            *arrays,
            min(BOOTSTRAP_SHARD, n_boot - start),
            np.random.default_rng((seed, start // BOOTSTRAP_SHARD)),
        )
        for start in range(0, n_boot, BOOTSTRAP_SHARD)
    ])


# -- machine health -----------------------------------------------------------


def fleet_rows(config: FleetConfig, randomness: RandomSource) -> list[Machine]:
    """The per-machine reference for ``generate_fleet``."""
    machines = []
    sku_rng = randomness.child("sku")
    attr_rng = randomness.child("attributes")
    for machine_id in range(config.n_machines):
        sku = sku_rng.choice(HARDWARE_SKUS, p=[0.25, 0.35, 0.15, 0.25])
        generation = HARDWARE_SKUS.index(sku)
        age_scale = max(0.5, (3 - generation)) / 3.0
        age = min(
            config.max_age_years,
            attr_rng.exponential(config.max_age_years * age_scale / 2.0),
        )
        prior_failures = min(
            config.max_prior_failures,
            int(attr_rng.exponential(1.0 + age / 2.0)),
        )
        machines.append(
            Machine(
                machine_id=machine_id,
                hardware_sku=sku,
                os_version=attr_rng.choice(OS_VERSIONS, p=[0.2, 0.45, 0.35]),
                age_years=round(age, 2),
                n_vms=attr_rng.randint(1, config.max_vms + 1),
                prior_failures=prior_failures,
            )
        )
    return machines


def sample_event_rows(
    model: DowntimeModel, machine: Machine, rng: RandomSource
) -> FailureEvent:
    """The per-draw reference for ``DowntimeModel.sample_event``."""
    kind = rng.choice(FAILURE_KINDS, p=model.failure_kind_probabilities(machine))
    if rng.bernoulli(model.recovery_probability(machine, kind)):
        scale = model.recovery_scale_minutes(machine, kind)
        recovery = float(math.exp(rng.normal(math.log(scale), 0.6)))
    else:
        recovery = NEVER
    return FailureEvent(
        machine=machine,
        failure_kind=kind,
        recovery_minutes=recovery,
        reboot_minutes=model.reboot_minutes(machine, rng),
    )


def failures_rows(
    machines: list[Machine], n_events: int, randomness: RandomSource
) -> list[FailureEvent]:
    """The per-incident reference for ``generate_failures``."""
    model = DowntimeModel()
    pick_rng = randomness.child("which-machine")
    event_rng = randomness.child("events")
    weights = [1.0 + m.prior_failures + m.age_years / 2.0 for m in machines]
    total = sum(weights)
    probabilities = [w / total for w in weights]
    return [
        sample_event_rows(
            model, pick_rng.choice(machines, p=probabilities), event_rng
        )
        for _ in range(n_events)
    ]


def machinehealth_rows(n_events: int, n_machines: int, seed: int) -> dict:
    """The per-row reference for the machine-health scenario build.

    Returns the fleet, the events, the fitted encoder, one encoded
    context per incident, the ``(N, 10)`` capped downtime profiles and
    the timestamps — what ``build_full_feedback_dataset`` logs and
    ``exploration_shard_inputs`` harvests.
    """
    randomness = RandomSource(seed, _name="machine-health")
    machines = fleet_rows(FleetConfig(n_machines=n_machines), randomness)
    events = failures_rows(machines, n_events, randomness.child("failures"))
    encoder = FeatureEncoder(
        categorical=["hardware_sku", "os_version", "failure_kind"],
        numeric=["age_years", "n_vms", "prior_failures"],
        standardize=True,
    )
    encoder.fit([event.context_record() for event in events])
    return {
        "machines": machines,
        "events": events,
        "encoder": encoder,
        "contexts": [encoder.encode(event.context_record()) for event in events],
        "profiles": np.asarray(
            [
                [min(d, DOWNTIME_CAP) for d in event.downtime_profile()]
                for event in events
            ],
            dtype=np.float64,
        ),
        "timestamps": np.asarray(
            [float(index) for index in range(n_events)], dtype=np.float64
        ),
    }


def machinehealth_shard_inputs(job, registry) -> HarvestInputs:
    """A ``HarvestJob.builder`` over :func:`machinehealth_rows`."""
    rows = machinehealth_rows(
        job.rows,
        int(job.config.get("n_machines", 1000)),
        int(job.config.get("seed", 0)),
    )
    profiles = rows["profiles"]

    def reveal(indices: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return profiles[indices, actions]

    return HarvestInputs(
        contexts=rows["contexts"],
        reward_fn=reveal,
        action_space=ActionSpace(
            len(WAIT_TIMES), labels=[f"wait-{w}min" for w in WAIT_TIMES]
        ),
        reward_range=RewardRange(0.0, DOWNTIME_CAP, maximize=False),
        timestamps=rows["timestamps"],
    )


# -- isolated shard harvest ---------------------------------------------------


def harvest_shard(job, inputs, spec, prev: str = GENESIS):
    """Re-derive shard ``spec`` of ``job`` in isolation: ``(columns, ledger)``.

    The decision stream derives at the shard's start ordinal, the
    shard sees only its own contexts, eligibility and (global-row)
    rewards, and its ledger is anchored at ``prev`` — the predecessor
    head the shard map records.  Nothing but ``inputs`` and the job's
    master seed is shared with the harvest being checked.
    """
    registry = StreamRegistry(job.master_seed)
    key = job.stream_key()
    ledger = DecisionLedger(
        key,
        shard_size=job.shard_size,
        genesis=prev,
        start_ordinal=spec.start,
        master_fingerprint=registry.master_fingerprint,
    )

    def shard_rewards(indices: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return inputs.reward_fn(indices + spec.start, actions)

    contexts, context_ids = inputs.context_slice(spec.start, spec.stop)
    columns = harvest_columns(
        job.policy,
        contexts,
        shard_rewards,
        StreamRNG(
            registry, key, shard_size=job.shard_size, start_ordinal=spec.start
        ),
        eligible=inputs.eligible_slice(spec.start, spec.stop),
        action_space=inputs.action_space,
        batch_size=job.batch_size,
        reward_range=inputs.reward_range,
        scenario=job.scenario,
        ledger=ledger,
        context_ids=context_ids,
    )
    return columns, ledger


# -- sharded ledger verification ----------------------------------------------


def jsonl_records(path: str):
    """``(line number, record)`` per non-blank line: the per-line
    reference parse of a log for ``verify_records``.  A line that does
    not parse, or is not a JSON object, stands in as an empty ledger
    block, so it fails its binding at its line number."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            raw = line.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError:
                record = None
            if not isinstance(record, dict):
                record = {"metadata": {"ledger": {}}}
            yield line_number, record


def verify_sharded_records(
    records, shards, expected_head=None, expected_n=None, genesis="0" * 64
) -> ShardedVerification:
    """The two-walk reference for ``shards.verify_sharded_records``."""
    records = list(records)
    ordered = sorted(shards, key=lambda shard: int(shard["start"]))
    overall = verify_records(
        iter(records),
        expected_head=expected_head,
        genesis=genesis,
        expected_n=expected_n,
    )
    splice_issues = _splice_geometry_issues(ordered, genesis, expected_head)
    grouped: dict[int, list] = {position: [] for position in range(len(ordered))}
    starts = [int(shard["start"]) for shard in ordered]
    stops = [int(shard["start"]) + int(shard["n"]) for shard in ordered]
    for line_number, record in records:
        meta = ChainFollower.metadata_of(record)
        if meta is None or "ordinal" not in meta:
            continue
        try:
            ordinal = int(meta["ordinal"])
        except (TypeError, ValueError):
            continue
        for position, (start, stop) in enumerate(zip(starts, stops)):
            if start <= ordinal < stop:
                grouped[position].append((line_number, record))
                break
        else:
            splice_issues.append(
                f"line {line_number}: ledgered ordinal {ordinal} falls "
                f"outside every manifest shard"
            )
    result = ShardedVerification(overall=overall, splice_issues=splice_issues)
    for position, shard in enumerate(ordered):
        result.shards.append(
            {
                "index": int(shard.get("index", position)),
                "start": int(shard["start"]),
                "n": int(shard["n"]),
                "prev": str(shard["prev"]),
                "head": str(shard["head"]),
                "verification": verify_records(
                    iter(grouped[position]),
                    expected_head=str(shard["head"]),
                    genesis=str(shard["prev"]),
                    expected_n=int(shard["n"]),
                ),
            }
        )
    return result


# -- by-value log codec -------------------------------------------------------


class ValueKeyedContexts:
    """The by-value context memo the log writers keyed every row with
    before rows carried context ids.

    Each ``dict`` context with string keys is looked up under its exact
    :func:`repro.core.codec.context_key` (values, types and packed float
    bits); any other context gets an entry of its own.  An entry is
    ``[digest, text, context]``, filled on first request.
    """

    def __init__(self) -> None:
        self._entries: dict = {}

    def entry(self, context) -> list:
        """The memo entry of ``context``."""
        key = context_key(context) if type(context) is dict else None
        if key is None or not all(type(name) is str for name in key[0]):
            return [None, None, context]
        return self._entries.setdefault(key, [None, None, context])

    def row_entries(self, contexts) -> list:
        """One entry per context, in order."""
        return [self.entry(context) for context in contexts]

    def digests(self, contexts) -> list:
        """``context_digest`` of every context, once per entry."""
        out = []
        for entry in self.row_entries(contexts):
            if entry[0] is None:
                entry[0] = context_digest(entry[2])
            out.append(entry[0])
        return out

    def texts(self, contexts) -> list:
        """``json.dumps(dict(context))`` of every context, once per entry."""
        out = []
        for entry in self.row_entries(contexts):
            if entry[1] is None:
                entry[1] = json.dumps(dict(entry[2]))
            out.append(entry[1])
        return out


def value_chain(
    stream, contexts, actions, propensities, genesis=GENESIS, start_ordinal=0
):
    """``(context digests, entry hashes)`` of rows sealed by value."""
    shas = ValueKeyedContexts().digests(contexts)
    hashes = []
    head = genesis
    for offset, (sha, action, propensity) in enumerate(
        zip(shas, actions, propensities)
    ):
        head = entry_hash(
            head, stream, start_ordinal + offset, sha, int(action),
            float(propensity),
        )
        hashes.append(head)
    return shas, hashes


def value_log(
    contexts, actions, rewards, propensities, timestamps, stream=None,
    genesis=GENESIS, start_ordinal=0,
) -> str:
    """The log text of these rows as the by-value writer wrote it: each
    context's JSON text from the memo, the rest of the record (and, with
    ``stream``, its by-value ledger block) from ``json.dumps``."""
    texts = ValueKeyedContexts().texts(contexts)
    chain = None
    if stream is not None:
        chain = value_chain(
            stream, contexts, actions, propensities, genesis, start_ordinal
        )
    lines = []
    for row, text in enumerate(texts):
        rest = {
            "action": int(actions[row]),
            "reward": float(rewards[row]),
            "propensity": float(propensities[row]),
            "timestamp": float(timestamps[row]),
        }
        if chain is not None:
            shas, hashes = chain
            rest["metadata"] = {"ledger": {
                "v": 1, "stream": stream, "ordinal": start_ordinal + row,
                "prev": hashes[row - 1] if row else genesis,
                "context_sha": shas[row], "hash": hashes[row],
            }}
        lines.append('{"context": ' + text + ", " + json.dumps(rest)[1:] + "\n")
    return "".join(lines)
