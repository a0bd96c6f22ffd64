"""Tracer correctness: nesting, exception safety, serialization."""

import json

import pytest

from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)


class TestSpanNesting:
    def test_with_blocks_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-a"):
                pass
            with tracer.span("inner-b"):
                with tracer.span("leaf"):
                    pass
        tree = tracer.span_tree()
        assert [root["name"] for root in tree] == ["outer"]
        children = tree[0]["children"]
        assert [c["name"] for c in children] == ["inner-a", "inner-b"]
        assert children[1]["children"][0]["name"] == "leaf"

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r["name"] for r in tracer.span_tree()] == ["first", "second"]

    def test_timings_populate_on_exit(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            assert span.wall_s is None and span.cpu_s is None
        assert span.wall_s >= 0.0
        assert span.cpu_s >= 0.0

    def test_attributes_at_open_and_mid_span(self):
        tracer = Tracer()
        with tracer.span("s", rows=10) as span:
            span.set(chunks=3)
        node = tracer.span_tree()[0]
        assert node["attributes"] == {"rows": 10, "chunks": 3}


class TestExceptionSafety:
    def test_span_closes_and_records_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        node = tracer.span_tree()[0]
        assert node["error"] == "RuntimeError: boom"
        assert node["wall_s"] is not None  # duration still recorded

    def test_unwinding_closes_nested_spans(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("deep failure")
        outer = tracer.span_tree()[0]
        inner = outer["children"][0]
        assert "ValueError" in inner["error"]
        assert "ValueError" in outer["error"]
        # The stack fully unwound: a new span is a fresh root.
        with tracer.span("after"):
            pass
        assert tracer.span_tree()[1]["name"] == "after"


class TestSerialization:
    def test_round_trip(self):
        # A span tree survives the JSON a manifest stores it as.
        tracer = Tracer()
        with tracer.span("root", rows=5):
            with tracer.span("child"):
                pass
        node = tracer.span_tree()[0]
        assert json.loads(json.dumps(node)) == node
        assert node["attributes"] == {"rows": 5}
        assert [child["name"] for child in node["children"]] == ["child"]


class TestNullTracer:
    def test_default_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_null_span_is_shared_and_inert(self):
        span_a = NULL_TRACER.span("x", rows=1)
        span_b = NULL_TRACER.span("y")
        assert span_a is span_b
        with span_a as s:
            s.set(anything=1)
        assert NULL_TRACER.span_tree() == []

    def test_null_tracer_does_not_swallow_exceptions(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.span("z"):
                raise KeyError("propagates")


class TestScoping:
    def test_use_tracer_installs_and_restores(self):
        assert isinstance(get_tracer(), NullTracer)
        with use_tracer() as tracer:
            assert get_tracer() is tracer
            assert isinstance(tracer, Tracer)
            with get_tracer().span("inside"):
                pass
        assert isinstance(get_tracer(), NullTracer)
        assert tracer.span_tree()[0]["name"] == "inside"

    def test_use_tracer_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_tracer():
                raise RuntimeError
        assert isinstance(get_tracer(), NullTracer)

    def test_set_tracer_none_restores_null(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER
