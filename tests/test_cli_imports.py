"""Each CLI subcommand imports only the modules it runs.

Every batch stage is a fresh ``python -m repro`` process, so what a
stage imports is paid on every run.  These tests spawn the CLI under
``python -X importtime``, which lists on stderr every module the
process imports, and pin what each subcommand must leave unloaded.
"""

import re
import subprocess
import sys
import textwrap

import pytest

#: One ``-X importtime`` line: ``import time: self | cumulative | name``.
IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)\s*$", re.M)

#: Modules no subcommand that evaluates nothing may load.
ESTIMATION = ("repro.core.estimators", "repro.core.learners")
BOOTSTRAP = ("repro.core.bootstrap",)


def spawn(*args):
    """Run ``python -X importtime ARGS``; return the result and its modules."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result, set(IMPORT_LINE.findall(result.stderr))


def under(modules, *prefixes):
    """The modules that are, or sit inside, any of ``prefixes``."""
    return sorted(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


def test_importing_the_cli_loads_no_numpy():
    _, modules = spawn("-c", "import repro.__main__")
    assert "repro.__main__" in modules
    assert not under(modules, "numpy")
    assert under(modules, "repro") == [
        "repro", "repro.__main__", "repro._lazy",
    ]


def test_catalog_loads_no_numpy():
    result, modules = spawn("-m", "repro")
    assert "Harvesting Randomness" in result.stdout
    assert not under(modules, "numpy")


@pytest.fixture(scope="module")
def ledgered(tmp_path_factory):
    """A ledgered machinehealth harvest: its log, manifest and modules."""
    work = tmp_path_factory.mktemp("ledgered")
    log, manifest = str(work / "mh.jsonl"), str(work / "mh.json")
    _, modules = spawn(
        "-m", "repro", "harvest", "machinehealth", log, "--rows", "600",
        "--ledger", "--manifest", manifest,
    )
    return log, manifest, modules


def test_verify_ledger_loads_no_estimation_serving_or_reports(ledgered):
    log, manifest, _ = ledgered
    result, modules = spawn(
        "-m", "repro", "verify-ledger", log, "--manifest", manifest, "--json"
    )
    assert '"ok": true' in result.stdout
    assert "repro.audit.ledger" in modules
    assert not under(
        modules, "repro.serve", *ESTIMATION, *BOOTSTRAP,
        "repro.obs.dashboard", "repro.obs.report", "repro.obs.history",
    )


@pytest.mark.parametrize("scenario", ["machinehealth", "loadbalance"])
def test_harvest_loads_no_folds_pool_or_serving(
    ledgered, tmp_path, scenario
):
    if scenario == "machinehealth":
        modules = ledgered[2]
    else:
        _, modules = spawn(
            "-m", "repro", "harvest", scenario, str(tmp_path / "lb.jsonl"),
            "--rows", "600",
        )
    assert "repro.core.harvest" in modules
    assert not under(
        modules, "repro.core.estimators.reductions", *BOOTSTRAP,
        "repro.serve", "numpy.ma",
    )


def test_evaluate_modes_match_validation():
    # The parser spells the mode names out so that parsing imports no
    # numpy; they must stay the validator's.
    from repro.__main__ import VALIDATION_MODES
    from repro.core.validation import MODES

    assert VALIDATION_MODES == MODES


@pytest.fixture(scope="module")
def evaluate_manifest(tmp_path_factory):
    """A manifest of a bootstrapped ``evaluate`` over a small harvest."""
    work = tmp_path_factory.mktemp("manifest")
    log, manifest = str(work / "lb.jsonl"), str(work / "run.json")
    for args in (
        ("harvest", "loadbalance", log, "--rows", "400"),
        ("evaluate", log, "--policy", "constant:1", "--bootstrap", "50",
         "--seed", "1", "--manifest", manifest),
    ):
        subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, check=True, timeout=120,
        )
    return work, manifest


def test_bootstrapped_evaluate_loads_no_numpy_ma(evaluate_manifest):
    # lb-search's estimators and bootstrap: the percentile interval
    # reads its quantiles without ``np.quantile`` (which imports
    # ``numpy.ma`` through ``np.unique``).
    work, _ = evaluate_manifest
    result, modules = spawn(
        "-m", "repro", "evaluate", str(work / "lb.jsonl"),
        "--policy", "uniform", "--policy", "constant:1",
        "--estimator", "ips", "--estimator", "snips", "--estimator", "dr",
        "--bootstrap", "200", "--seed", "7",
    )
    assert result.stdout.count("bootstrap[ips") == 2
    assert "repro.core.bootstrap" in modules
    assert not under(modules, "numpy.ma")


@pytest.mark.parametrize("command", ["report", "dashboard"])
def test_manifest_renderers_load_no_numpy(evaluate_manifest, command):
    work, manifest = evaluate_manifest
    page = work / "dash.html"
    extra = ("--out", str(page)) if command == "dashboard" else ()
    result, modules = spawn("-m", "repro", command, manifest, *extra)
    rendered = result.stdout if command == "report" else page.read_text()
    assert "bootstrap" in rendered
    assert not under(modules, "numpy")


#: Boots a service, flushes a log, then reports the ``repro`` and
#: ``numpy`` modules an in-process gate evaluation adds.
GATE_PROBE = textwrap.dedent(
    """
    import sys

    from repro.core.policies import ConstantPolicy, UniformRandomPolicy
    from repro.serve.service import DecisionService

    service = DecisionService(
        "machinehealth", UniformRandomPolicy(), pool_rows=512,
        log_path=sys.argv[1],
    )
    service.decide(600)
    service.flush()
    import repro.serve.server  # noqa: F401  (what `serve` imports)
    from repro.serve.gate import evaluate_candidate

    before = set(sys.modules)
    decision = evaluate_candidate(
        sys.argv[1], "cand", ConstantPolicy(1), UniformRandomPolicy()
    )
    service.close()
    assert decision.n == 600, decision
    added = sorted(set(sys.modules) - before)
    print(" ".join(m for m in added if m.split(".")[0] in ("repro", "numpy")))
    """
)


def test_gate_evaluation_imports_nothing_after_boot(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", GATE_PROBE, str(tmp_path / "serve.jsonl")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == []
