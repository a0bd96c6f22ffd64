"""Discrete-event simulation kernel.

This package is the substrate on which the load-balancing (Nginx-like)
and caching (Redis-like) prototypes are built.  It provides:

- :class:`~repro.simsys.events.EventQueue` and
  :class:`~repro.simsys.events.Simulator`: a priority-queue driven
  event loop with a virtual clock.
- :class:`~repro.simsys.random_source.RandomSource`: named, seeded RNG
  streams so that every source of randomness in an experiment is
  independently reproducible.
- :mod:`~repro.simsys.metrics`: counters, time series and streaming
  percentile trackers used to compute rewards (e.g. request latency
  percentiles).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
    "repro.simsys.events": ("Event", "EventQueue", "Simulator"),
    "repro.simsys.metrics": (
        "Counter", "MetricRegistry", "PercentileTracker", "TimeSeries",
        "WindowedRate",
    ),
    "repro.simsys.random_source": ("RandomSource",),
})
