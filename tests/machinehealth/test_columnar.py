"""The columnar machine-health build equals the per-row loop, bit for bit.

``tests/oracles.py`` builds the scenario one machine and one incident
at a time, one ``RandomSource.choice`` call per pick; the library
draws the picks in batches, evaluates each machine's laws once and
encodes each distinct (machine, kind) pair once.  Every draw, context,
profile and chain head must agree exactly.
"""

import numpy as np
import pytest

from repro.audit.streams import StreamRegistry
from repro.core.coordinator import HarvestCoordinator, HarvestJob, build_inputs
from repro.core.policies import UniformRandomPolicy
from repro.machinehealth import (
    DowntimeModel,
    FleetConfig,
    build_full_feedback_dataset,
    generate_failures,
    generate_fleet,
)
from repro.simsys.random_source import RandomSource
from tests import oracles

#: (rows, seed, n_machines): one row, fewer rows than machines, a
#: one-machine fleet (every numeric std is 0 and becomes 1.0), a
#: two-machine fleet, and the default fleet.
GRID = [
    (1, 3, 1000),
    (7, 11, 50),
    (300, 4, 1),
    (500, 5, 2),
    (2000, 2017, 1000),
]


def context_bits(contexts):
    """Contexts as key-ordered ``(name, float.hex)`` lists."""
    return [
        [(name, type(value), float(value).hex()) for name, value in c.items()]
        for c in contexts
    ]


def event_fields(events):
    return [
        (
            event.machine,
            event.failure_kind,
            event.recovery_minutes.hex(),
            event.reboot_minutes.hex(),
        )
        for event in events
    ]


@pytest.fixture(scope="module", params=GRID, ids=lambda p: "rows%d-seed%d-m%d" % p)
def case(request):
    rows, seed, n_machines = request.param
    return rows, seed, n_machines, oracles.machinehealth_rows(rows, n_machines, seed)


class TestColumnarBuild:
    def test_harvest_inputs_match(self, case):
        rows, seed, n_machines, reference = case
        job = HarvestJob(
            scenario="machinehealth", rows=rows, master_seed=1,
            policy=UniformRandomPolicy(),
            config={"seed": seed, "n_machines": n_machines},
        )
        inputs = build_inputs(job, StreamRegistry(1))
        rows_contexts = [inputs.contexts[i] for i in inputs.context_ids.tolist()]
        assert context_bits(rows_contexts) == context_bits(reference["contexts"])
        profiles = reference["profiles"]
        n, k = profiles.shape
        got = inputs.reward_fn(
            np.repeat(np.arange(n), k), np.tile(np.arange(k), n)
        ).reshape(n, k)
        assert got.tobytes() == profiles.tobytes()
        assert inputs.timestamps.tobytes() == reference["timestamps"].tobytes()
        # Each distinct (machine, failure kind) pair's context is built
        # once, and its rows name it by id.
        pairs = {(e.machine.machine_id, e.failure_kind) for e in reference["events"]}
        assert len(inputs.contexts) == len(pairs)
        assert len({id(c) for c in inputs.contexts}) == len(pairs)

    def test_full_feedback_dataset_matches(self, case):
        rows, seed, n_machines, reference = case
        scenario = build_full_feedback_dataset(
            n_events=rows, n_machines=n_machines, seed=seed
        )
        full = list(scenario.full)
        assert context_bits([i.context for i in full]) == context_bits(
            reference["contexts"]
        )
        assert [list(i.full_rewards) for i in full] == reference["profiles"].tolist()
        assert [i.reward for i in full] == reference["profiles"][:, -1].tolist()
        assert [i.timestamp for i in full] == reference["timestamps"].tolist()
        assert event_fields(scenario.events) == event_fields(reference["events"])
        assert vars(scenario.encoder) == vars(reference["encoder"])

    def test_fleet_and_failures_match(self, case):
        rows, seed, n_machines, reference = case
        randomness = RandomSource(seed, _name="machine-health")
        machines = generate_fleet(FleetConfig(n_machines=n_machines), randomness)
        assert machines == reference["machines"]
        events = generate_failures(machines, rows, randomness.child("failures"))
        assert event_fields(events) == event_fields(reference["events"])


def test_sample_event_draws_what_it_drew_before():
    machines = generate_fleet(FleetConfig(n_machines=40), RandomSource(9))
    model = DowntimeModel()
    ours, theirs = RandomSource(21), RandomSource(21)
    for machine in machines:
        assert event_fields([model.sample_event(machine, ours)]) == event_fields(
            [oracles.sample_event_rows(model, machine, theirs)]
        )
    # Both streams consumed exactly the same raw draws.
    assert ours.uniform() == theirs.uniform()


def test_choice_indices_equal_successive_choices():
    p = [0.1, 0.05, 0.6, 0.25]
    batch = RandomSource(4).choice_indices(p, 5000)
    one_by_one = RandomSource(4)
    assert batch.tolist() == [one_by_one.choice(range(4), p=p) for _ in range(5000)]


@pytest.mark.parametrize("seed", [1, 2])
def test_coordinated_heads_match_the_reference_builder(seed):
    def head(builder):
        job = HarvestJob(
            scenario="machinehealth", rows=3000, master_seed=seed,
            policy=UniformRandomPolicy(), shard_size=512,
            config={"seed": seed}, sealed=True, builder=builder,
        )
        return HarvestCoordinator(job).run().head

    assert head(None) == head("tests.oracles:machinehealth_shard_inputs")
