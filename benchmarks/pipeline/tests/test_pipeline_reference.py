"""The reference work and the speed adjustment built on it."""

import ast

import pytest

import reference
import run


def test_reference_work_is_fixed():
    assert reference.work(1) == reference.work(1)
    assert reference.work(1) != reference.work(2)


def test_reference_does_not_import_the_program():
    with open(reference.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").partition(".")[0])
    assert imported <= {"__future__", "hashlib", "json", "numpy"}


def test_an_item_is_judged_by_the_references_around_it():
    sample = run.Sample("mh-audit", refs=[0.6, 1.0, 0.9])
    # Item 0 ran between references 0 and 1, item 1 between 1 and 2.
    assert sample.adjust(4.0, 0) == pytest.approx(4.0 * run.REF_SECONDS / 0.8)
    assert sample.adjust(4.0, 1) == pytest.approx(4.0 * run.REF_SECONDS / 0.95)
    # An item no reference has closed yet is judged by the one before it.
    assert sample.adjust(4.0, 2) == pytest.approx(4.0 * run.REF_SECONDS / 0.9)


def test_reference_indices_open_items_in_order():
    class FakeRunner:
        def __init__(self, times):
            self.times = iter(times)

        def reference(self):
            return next(self.times)

    runner = FakeRunner([0.5, 0.7])
    sample = run.Sample("mh-audit")
    assert sample.reference(runner) == 0
    assert sample.reference(runner) == 1
    assert sample.refs == [0.5, 0.7]
