"""Span self-time and coverage arithmetic, and the recording wrappers."""

import asyncio

import pytest

import traced


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        span("stage", 0.0, 10.0),
        span("ingest.load", 1.0, 4.0, 0),
        span("estimators.dr", 5.0, 9.0, 0),
        span("features.hashed_matrix", 6.0, 7.0, 2),
    ]
    assert traced.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_overlapping_children_are_counted_once():
    spans = [
        span("stage", 0.0, 10.0),
        span("serve.ask", 1.0, 5.0, 0),
        span("serve.ask", 3.0, 6.0, 0),
        span("serve.decide", 12.0, 14.0, 0),  # outside the parent: clipped
    ]
    assert traced.self_times(spans)[0] == pytest.approx(5.0)


def test_coverage_and_layer_totals():
    spans = [
        span("stage", 0.0, 10.0),
        span("io.write", 0.5, 2.5, 0, {"bytes": 3_000_000}),
        span("audit.seal", 3.0, 9.5, 0),
        span("audit.seal", 4.0, 5.0, 2),
    ]
    covered, root = traced.coverage(spans)
    assert (covered, root) == pytest.approx((8.5, 10.0))
    totals = traced.layer_totals(spans)
    assert totals["trace.coverage"] == pytest.approx(0.85)
    assert totals["trace.unattributed_s"] == pytest.approx(1.5)
    # Nested spans of one layer add up to the outer span, never more.
    assert totals["audit.seal_s"] == pytest.approx(6.5)
    assert totals["io.write_s"] == pytest.approx(2.0)
    assert totals["io.write_mb"] == pytest.approx(3.0)


def test_merge_rebases_parents_of_each_stage():
    first = [span("stage", 0.0, 1.0), span("io.write", 0.2, 0.8, 0)]
    second = [span("stage", 2.0, 4.0), span("ingest.load", 2.5, 3.5, 0)]
    merged = traced.merge([first, second])
    assert [s[3] for s in merged] == [-1, 0, -1, 2]
    assert traced.coverage(merged) == pytest.approx((1.6, 3.0))


def test_queue_wait_runs_to_the_decide_that_served_each_ask():
    spans = [
        span("stage", 0.0, 10.0),
        span("serve.ask", 1.0, 2.0, 0),
        span("serve.ask", 1.5, 2.0, 0),
        span("serve.decide", 1.75, 1.9, 0, {"n": 64}),
        span("serve.ask", 3.0, 3.5, 0),
        span("serve.decide", 3.0, 3.4, 0, {"n": 32}),
    ]
    assert traced.queue_wait(spans) == pytest.approx(0.75 + 0.25 + 0.0)
    totals = traced.layer_totals(spans)
    assert totals["serve.decide_calls"] == 2
    assert totals["serve.decisions_per_decide"] == 48


def test_wrappers_record_nesting_across_sync_and_async_calls():
    recorder = traced.Recorder()
    inner =recorder.wrap("features.hashed_matrix", lambda x: x * 2)
    outer = recorder.wrap("estimators.*", lambda self, x: inner(x) + 1)

    class Estimator:
        name = "doubly-robust"

    async def ask(n):
        await asyncio.sleep(0)
        return n

    wrapped_ask = recorder.wrap("serve.ask", ask)

    async def two_asks():
        return await asyncio.gather(wrapped_ask(1), wrapped_ask(2))

    result = recorder.run_root(
        lambda: (outer(Estimator(), 3), asyncio.run(two_asks()))
    )
    assert result == (7, [1, 2])
    names = [(s[0], s[3]) for s in recorder.spans]
    assert names[:3] == [("stage", -1), ("estimators.dr", 0),
                         ("features.hashed_matrix", 1)]
    # Concurrent asks are siblings under the root, not nested in each other.
    assert sorted(names[3:]) == [("serve.ask", 0), ("serve.ask", 0)]
    assert all(s[2] >= s[1] for s in recorder.spans)
