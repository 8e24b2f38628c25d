"""Always-on flight recorder: bounded span history + slow-call sampler.

Distributed tracing answers "where did this call spend its time" — but
only when it was switched on *before* the interesting call happened.
Production outliers do not announce themselves, so every ORB keeps its
span engine (:class:`~repro.obs.dtrace.SpanEngine`) running with the
ring retention by default: a cheap, bounded ring of recent invocation
roots, plus full span trees (all stages, all nested calls) for exactly
the calls that exceeded a latency threshold.  When a p99 spike shows up
on the ``/metrics`` latency histogram, the offending call's breakdown
is already captured.

Cost model — why this can be on by default:

* ids are sequential hex (one ``itertools.count``), no RNG draw;
* stage events attach to the innermost active span of the emitting
  thread or asyncio task via a ``contextvars`` chain, no locking on
  the emit path;
* fast calls keep only their root span *header* (name, duration,
  status) — the per-stage detail is dropped at finish time
  (``detail_dropped`` counts them), so ring memory stays flat;
* nothing is injected into the GIOP wire format: without distributed
  tracing the engine never adds a service context, so recorded and
  unrecorded ORBs are byte-identical on the wire.

Sync and async calls go through the same invocation engine, so both
record the same spans.  The captured trees render with the
``repro-metrics tree`` tooling and export as span-schema-v2 dumps.
"""

from __future__ import annotations

import time
from typing import Callable

from .dtrace import DEFAULT_SLOW_THRESHOLD, SpanEngine

__all__ = ["FlightRecorder", "DEFAULT_SLOW_THRESHOLD"]


class FlightRecorder(SpanEngine):
    """A span engine with the ring retention (the ORB default).

    ``keep`` bounds the recent ring (root span headers), ``slow_keep``
    the slow ring (full trees).  ``slow_threshold`` is in seconds and
    may be adjusted on a live recorder.  :meth:`disable` stops span
    production; ``ORBConfig(flight_recorder=False)`` leaves the engine
    out of the sink chain entirely, restoring the allocation-free
    ``stage_span`` fast path.
    """

    def __init__(self, slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
                 keep: int = 256, slow_keep: int = 32, node: str = "",
                 clock: Callable[[], float] = time.perf_counter):
        super().__init__(node=node, clock=clock, keep=keep,
                         slow_keep=slow_keep, slow_threshold=slow_threshold)

    def __repr__(self) -> str:  # pragma: no cover
        c = self.counters()
        return (f"<FlightRecorder {'on' if self.enabled else 'off'} "
                f"recorded={c['recorded_total']} "
                f"slow={c['slow_sampled']} "
                f"threshold={self.slow_threshold:g}s>")
