"""Unit tests for the span-attributing sampling profiler."""

import signal
import sys

import pytest

from repro.obs.profiler import (
    DEFAULT_INTERVAL,
    NULL_PROFILER,
    UNSPANNED,
    NullProfiler,
    SpanProfiler,
    get_profiler,
    set_profiler,
    use_profiler,
)
from repro.obs.tracing import Tracer, use_tracer


def current_frame():
    return sys._getframe()


class TestManualSampling:
    """Deterministic path: explicit sample() calls, no timer."""

    def test_sample_with_explicit_span(self):
        profiler = SpanProfiler()
        profiler.sample(current_frame(), span="harvest")
        profiler.sample(current_frame(), span="harvest")
        profiler.sample(current_frame(), span="bootstrap")
        assert profiler.samples == 3
        assert set(profiler.tables) == {"harvest", "bootstrap"}
        (site, count), = profiler.tables["bootstrap"].items()
        assert count == 1
        # file:function:firstlineno — stable across runs, and points
        # at this test file.
        assert site.startswith("test_profiler.py:")

    def test_sample_without_frame_uses_manual_site(self):
        profiler = SpanProfiler()
        profiler.sample(span="x")
        assert profiler.tables["x"] == {"<manual>": 1}

    def test_sample_outside_any_span_lands_in_unspanned(self):
        profiler = SpanProfiler()
        with use_tracer(Tracer()):
            profiler.sample(current_frame())
        assert list(profiler.tables) == [UNSPANNED]

    def test_sample_attributes_to_innermost_open_span(self):
        profiler = SpanProfiler()
        with use_tracer(Tracer()) as tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    profiler.sample(current_frame())
                profiler.sample(current_frame())
        assert set(profiler.tables) == {"outer", "inner"}

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            SpanProfiler(interval=0.0)


class TestMergeAndExport:
    def test_to_dict_round_trip_shape(self):
        profiler = SpanProfiler(interval=0.01)
        profiler.sample(span="a")
        payload = profiler.to_dict()
        assert payload["interval_s"] == 0.01
        assert payload["samples"] == 1
        assert payload["spans"] == {"a": {"<manual>": 1}}
        assert isinstance(payload["supported"], bool)

    def test_flame_table_sorted_heaviest_first(self):
        profiler = SpanProfiler(interval=0.005)
        for _ in range(3):
            profiler.sample(span="hot")
        profiler.sample(span="cold")
        rows = profiler.flame_table()
        assert [row["span"] for row in rows] == ["hot", "cold"]
        assert rows[0]["samples"] == 3
        assert rows[0]["seconds"] == pytest.approx(3 * 0.005)
        assert rows[0]["site"] == "<manual>"

    def test_flame_table_top_limits_rows(self):
        profiler = SpanProfiler()
        for span in ("a", "b", "c"):
            profiler.sample(span=span)
        assert len(profiler.flame_table(top=2)) == 2


@pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="setitimer unavailable"
)
class TestTimerArming:
    def test_start_stop_restores_previous_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        profiler = SpanProfiler(interval=0.5)
        assert profiler.start() is True
        try:
            assert signal.getsignal(signal.SIGALRM) == profiler._handler
        finally:
            profiler.stop()
        assert signal.getsignal(signal.SIGALRM) == before

    def test_double_start_is_idempotent(self):
        profiler = SpanProfiler(interval=0.5)
        try:
            assert profiler.start() is True
            assert profiler.start() is True
        finally:
            profiler.stop()
        profiler.stop()  # double stop is a no-op too

    def test_timer_actually_samples_busy_loop(self):
        profiler = SpanProfiler(interval=0.001)
        with use_tracer(Tracer()) as tracer, tracer.span("busy"):
            assert profiler.start() is True
            try:
                deadline_total = 0
                while profiler.samples == 0 and deadline_total < 5_000_000:
                    deadline_total += 1
            finally:
                profiler.stop()
        assert profiler.samples >= 1
        assert "busy" in profiler.tables


class TestInstallation:
    def test_default_is_the_null_profiler(self):
        assert get_profiler() is NULL_PROFILER
        assert isinstance(get_profiler(), NullProfiler)
        assert not get_profiler().enabled

    def test_null_profiler_accepts_everything(self):
        null = NullProfiler()
        null.sample(span="x")
        assert null.start() is False
        null.stop()
        assert null.to_dict() == {}
        assert null.flame_table() == []
        assert null.samples == 0

    def test_use_profiler_scopes_installation(self):
        assert get_profiler() is NULL_PROFILER
        with use_profiler(arm=False) as profiler:
            assert get_profiler() is profiler
            assert isinstance(profiler, SpanProfiler)
            assert profiler.interval == DEFAULT_INTERVAL
        assert get_profiler() is NULL_PROFILER

    def test_use_profiler_arms_and_disarms(self):
        if not hasattr(signal, "setitimer"):
            pytest.skip("setitimer unavailable")
        before = signal.getsignal(signal.SIGALRM)
        with use_profiler(SpanProfiler(interval=0.5)) as profiler:
            assert profiler._armed
        assert not profiler._armed
        assert signal.getsignal(signal.SIGALRM) == before

    def test_use_profiler_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_profiler(arm=False):
                raise RuntimeError("boom")
        assert get_profiler() is NULL_PROFILER

    def test_set_profiler_none_restores_null(self):
        profiler = SpanProfiler()
        set_profiler(profiler)
        try:
            assert get_profiler() is profiler
        finally:
            set_profiler(None)
        assert get_profiler() is NULL_PROFILER
