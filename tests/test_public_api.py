"""Public API surface checks.

Every name a package's ``__init__`` exports must import and be listed
in ``__all__``; downstream users program against this surface.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.estimators",
    "repro.core.learners",
    "repro.simsys",
    "repro.loadbalance",
    "repro.cache",
    "repro.machinehealth",
    "repro.chaos",
    "repro.obs",
    "repro.audit",
    "repro.serve",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} must define __all__"
    for name in package.__all__:
        assert hasattr(package, name), (
            f"{package_name}.__all__ lists {name!r} which does not exist"
        )


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_has_no_duplicates(package_name):
    package = importlib.import_module(package_name)
    assert len(package.__all__) == len(set(package.__all__))


def test_version_string():
    import repro

    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_core_star_import_is_clean():
    namespace = {}
    exec("from repro.core import *", namespace)  # noqa: S102
    assert "IPSEstimator" in namespace
    assert "Dataset" in namespace
    # Nothing private leaks.
    assert not any(name.startswith("_") for name in namespace
                   if name != "__builtins__")


def test_readme_quickstart_names_exist():
    """The README's import list must stay valid."""
    from repro.core import (  # noqa: F401
        ConstantPolicy,
        Dataset,
        EmpiricalPropensityModel,
        Interaction,
        IPSEstimator,
    )


def test_key_estimators_share_interface():
    from repro.core.estimators import (
        DirectMethodEstimator,
        DoublyRobustEstimator,
        IPSEstimator,
        OffPolicyEstimator,
        SNIPSEstimator,
        SwitchEstimator,
    )

    for cls in (IPSEstimator, SNIPSEstimator, DirectMethodEstimator,
                DoublyRobustEstimator, SwitchEstimator):
        assert issubclass(cls, OffPolicyEstimator)


#: Names the one-path refactors (evaluation, harvest, then bootstrap)
#: removed, by module; ``None`` marks a module that is gone as a whole.
REMOVED = {
    "repro.core": (
        "get_default_backend", "set_default_backend", "use_backend",
        "harvest_rows",
    ),
    "repro.core.engine": (
        "BACKENDS", "get_default_backend", "set_default_backend",
        "resolve_backend", "use_backend", "reset_fallback_warnings",
        "get_workers",
    ),
    "repro.core.columns": ("iter_chunk_columns",),
    "repro.core.harvest": ("harvest_rows",),
    "repro.simsys.random_source": ("DERIVATIONS",),
    "repro.loadbalance": ("batch_exploration_columns",),
    "repro.loadbalance.harvest": ("batch_exploration_columns",),
    "repro.cache": ("resample_eviction_columns",),
    "repro.cache.harvest": ("resample_eviction_columns",),
    "repro.core.coordinator": (
        "ShardPayloadError", "_shard_worker", "_worker_inputs",
        "_INPUTS_CACHE", "_harvest_shard_impl",
    ),
    "repro.core.pool": None,
    "repro.core.bootstrap": (
        "_seeded_shard", "_traced_shard", "_parallel_shard_outcomes",
    ),
    "repro.audit": ("chain_digests",),
    "repro.audit.shards": ("chain_digests",),
    "repro.obs.monitors": ("RetryStormMonitor",),
}


@pytest.mark.parametrize("module_name", sorted(REMOVED))
def test_removed_names_stay_gone(module_name):
    if REMOVED[module_name] is None:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module_name)
        return
    module = importlib.import_module(module_name)
    for name in REMOVED[module_name]:
        assert not hasattr(module, name), f"{module_name}.{name} is back"


def test_shared_memory_transport_is_gone():
    from repro.core.columns import DatasetColumns

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.shm")
    assert not hasattr(DatasetColumns, "shared_block")
    assert not hasattr(DatasetColumns, "release_shared_block")


def test_harvest_coordinator_takes_no_workers():
    import inspect

    from repro.core.coordinator import HarvestCoordinator

    parameters = inspect.signature(HarvestCoordinator).parameters
    assert list(parameters) == ["job", "inputs"]
    for name in ("_run_in_process", "_run_pool", "_harvest_local",
                 "_validate_payload", "_receive", "_accept", "_assemble"):
        assert not hasattr(HarvestCoordinator, name), name


def test_harvest_worker_merge_is_gone():
    from repro.audit.ledger import DecisionLedger
    from repro.audit.streams import StreamRegistry
    from repro.obs.monitors import HealthMonitor, MonitorSuite, NullMonitors

    assert not hasattr(DecisionLedger, "adopt")
    assert not hasattr(StreamRegistry, "absorb")
    for owner in (MonitorSuite, NullMonitors):
        assert not hasattr(owner, "absorb")
        assert not hasattr(owner, "observe_shards")
    assert not hasattr(HealthMonitor, "fold_shards")
    assert not hasattr(HealthMonitor, "merge")


def test_evaluation_folds_take_no_workers():
    import inspect

    from repro.core.engine import evaluate_jsonl_chunked

    assert "workers" not in inspect.signature(
        evaluate_jsonl_chunked
    ).parameters


def test_bootstrap_takes_no_workers():
    import inspect

    from repro.core import bootstrap

    for fn in (
        bootstrap.bootstrap_interval_from_terms,
        bootstrap.bootstrap_ips_interval,
        bootstrap.bootstrap_snips_interval,
        bootstrap._replicate_sums,
        bootstrap._check_replication,
    ):
        assert "workers" not in inspect.signature(fn).parameters, fn


def test_cross_process_merges_are_gone():
    from repro.obs.profiler import NullProfiler, SpanProfiler
    from repro.obs.tracing import NullTracer, Span, Tracer

    for owner in (Tracer, NullTracer):
        assert not hasattr(owner, "attach")
    for owner in (SpanProfiler, NullProfiler):
        assert not hasattr(owner, "absorb")
    assert not hasattr(Span, "from_dict")


def test_no_public_signature_takes_a_backend():
    import inspect

    from repro.core import bootstrap, comparison, estimators
    from repro.core.harvest import HarvestPipeline

    # dir(), not vars(): a package's exports enter its namespace only
    # when first read, and dir() lists them all.
    public = [HarvestPipeline] + [
        obj
        for module in (estimators, bootstrap, comparison)
        for name in dir(module)
        if not name.startswith("_")
        and callable(obj := getattr(module, name))
    ]
    for obj in public:
        methods = inspect.getmembers(obj, callable) if inspect.isclass(obj) else []
        for fn in [obj] + [method for _, method in methods]:
            try:
                parameters = inspect.signature(fn).parameters
            except (TypeError, ValueError):  # builtins without signatures
                continue
            assert "backend" not in parameters, fn


def test_estimators_expose_no_backend_attribute():
    from repro.core.estimators import IPSEstimator, OffPolicyEstimator

    for owner in (OffPolicyEstimator, IPSEstimator()):
        assert not hasattr(owner, "backend")
        assert not hasattr(owner, "resolved_backend")


def test_evaluate_rejects_the_backend_flag(tmp_path, capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", str(tmp_path / "log.jsonl"),
              "--backend", "vectorized"])
    assert excinfo.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_random_source_has_one_derivation():
    from repro.simsys.random_source import RandomSource

    with pytest.raises(TypeError):
        RandomSource(1, derivation="legacy")


def test_gate_config_has_no_chunk_size():
    import dataclasses

    from repro.serve.gate import GateConfig

    assert "chunk_size" not in {
        field.name for field in dataclasses.fields(GateConfig)
    }
