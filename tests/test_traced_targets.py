"""The pipeline benchmark's timing wrappers name code that exists.

``benchmarks/pipeline/traced.py`` wraps each of its ``TARGETS`` when
its module is imported, so a target renamed away in ``src/`` crashes
the traced round only when that round runs.  This resolves every
target the way ``_patch_target`` does, without patching anything.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "benchmarks/pipeline/traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("pipeline_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves():
    targets = load_traced().TARGETS
    assert targets
    for _name, target in targets:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if inspect.isclass(owner):
            # Class attributes are patched through the class __dict__,
            # so an inherited or renamed one does not count.
            assert attr in owner.__dict__, target
        else:
            assert callable(getattr(owner, attr, None)), target
