"""Spans for the traced run: recording, layout, self time, residual.

The traced run attaches :class:`StageSink` to the ORB through its
public ``sink=`` hook.  The ORB emits one ``StageEvent`` per Fig. 7
stage (name and duration only); the sink stamps each with the time it
arrived and the lane (caller) whose thread delivered it.  Around every
stub call the benchmark opens a root span, and :meth:`SpanLog.add_op`
turns the call's stage events into child spans on the call's timeline.

Layout.  A stage's end is the moment its event reached the sink.  The
reply stages (``server-wait``, ``deposit-recv``) are the exception: the
reactor reads the reply with their events captured and the caller
re-emits them when it wakes, so their arrival is late, never early.
They are laid back to back, ending where the next stage begins.  Every
child is then clipped to the call's window and to the end of the child
before it.  A pipelined connection starts the reader's ``server-wait``
when the *previous* message finished, possibly another caller's reply
or before this call was even sent; that part is not on this call's
blocking path, and the clipped time is reported on its own
(``orb.stage.clipped_us``) rather than dropped silently.

The reply stages run on the reader, concurrently with the caller:
besides the pipelined lead-in, a caller preempted between its send
syscall and the end of its ``control-send`` span sees the reply land
"during" its send (seen once in about 10k ``bulk_tcp`` calls).  The
clipped part of the reply stages is that overlap.

The check.  After clipping, stages plus residual equal the call by
construction, so the check is made on the stage durations as the ORB
emitted them: their sum, less the reply stages' clipped overlap, plus
the residual must equal the call's duration within
:data:`SUM_TOLERANCE_S`.  The difference is the clipped time of the
stages the caller's own thread runs one after another (marshal, the
two sends, demarshal) -- stage time the ORB reported that does not fit
inside the call after the stage before it.

A span is ``(name, start, end, parent, op)``; ``parent`` is the index
of the parent span in the same list, or -1 for a root.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.obs.events import EventSink, StageEvent
from repro.obs.stages import (CLIENT_STAGES, STAGE_DEPOSIT_RECV,
                              STAGE_SERVER_WAIT)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int


#: stages read on the reactor and re-emitted late on the caller's thread
REEMITTED = {STAGE_SERVER_WAIT, STAGE_DEPOSIT_RECV}
#: the per-op check: stages as emitted, less the reply stages' overlap,
#: plus the residual may exceed the call's duration by at most this
SUM_TOLERANCE_S = 1e-6


class StageSink(EventSink):
    """Collects stage events per lane; a lane is one caller.

    ``lane_of`` maps the emitting thread to a lane name.  Events are
    stamped with ``perf_counter`` on arrival; stage names outside the
    six client stages (a server's ``recv-wait``) are dropped.
    """

    def __init__(self, lane_of):
        super().__init__()
        self._lane_of = lane_of
        self._lanes: Dict[str, list] = {}
        self._lock = threading.Lock()

    def emit(self, event) -> None:
        if not isinstance(event, StageEvent):
            return
        now = time.perf_counter()
        if event.stage not in CLIENT_STAGES:
            return
        lane = self._lane_of()
        with self._lock:
            self._lanes.setdefault(lane, []).append((now, event))

    def take(self, lane: str) -> List[Tuple[float, StageEvent]]:
        """The lane's events since the last take, in arrival order."""
        with self._lock:
            return self._lanes.pop(lane, [])


def layout(t0: float, t1: float,
           events: Sequence[Tuple[float, StageEvent]]
           ) -> Tuple[List[Tuple[str, float, float]], float]:
    """Place stage events inside the call window ``[t0, t1]``.

    Returns ``([(stage, start, end), ...], clipped_s)``: the children
    in emission order, non-overlapping, and the stage time that fell
    outside the window or before the end of the stage before it.
    """
    placed = []
    cursor = float("inf")
    for arrived, ev in reversed(events):
        end = min(arrived, cursor) if ev.stage in REEMITTED else arrived
        start = end - ev.duration_s
        placed.append([ev.stage, start, end])
        cursor = start
    placed.reverse()
    clipped = 0.0
    prev_end = t0
    for child in placed:
        _, start, end = child
        want = end - start
        start = min(max(start, prev_end), t1)
        end = min(max(end, start), t1)
        clipped += want - (end - start)
        child[1], child[2] = start, end
        prev_end = end
    return [tuple(c) for c in placed], clipped


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's
    intervals, clipped to the span."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


class SpanLog:
    """The traced run's spans, kept in memory until the run ends."""

    def __init__(self):
        self.spans: List[Span] = []
        self.clipped_s = 0.0
        self.max_sum_error_s = 0.0
        self.stage_counts: Dict[str, int] = {}
        self.ops = 0
        self._lock = threading.Lock()

    def add_op(self, root: str, t0: float, t1: float,
               events: Sequence[Tuple[float, StageEvent]]) -> None:
        """Record one call: its root span and its stage children, and
        check that the stages as emitted (less the reply stages'
        overlap) plus the root's self time (the residual) add up to the
        call's duration."""
        children, clipped = layout(t0, t1, events)
        with self._lock:
            op = self.ops
            self.ops += 1
            local = [Span(root, t0, t1, -1, op)] + \
                [Span(name, s, e, 0, op) for name, s, e in children]
            selfs = self_times(local)
            # reply-stage time the layout cut off: the reader's overlap
            overlap = sum(ev.duration_s for _, ev in events
                          if ev.stage in REEMITTED) - sum(
                e - s for name, s, e in children if name in REEMITTED)
            emitted = sum(ev.duration_s for _, ev in events)
            error = emitted - overlap + selfs[0] - (t1 - t0)
            self.max_sum_error_s = max(self.max_sum_error_s, abs(error))
            self.clipped_s += clipped
            for name, _, _ in children:
                self.stage_counts[name] = self.stage_counts.get(name, 0) + 1
            parent = len(self.spans)
            self.spans.append(local[0])
            self.spans += [c._replace(parent=parent) for c in local[1:]]

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total duration and total self time."""
        selfs = self_times(self.spans)
        out: Dict[str, Dict[str, float]] = {}
        for s, own in zip(self.spans, selfs):
            row = out.setdefault(s.name, {"n": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["n"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += own
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines ``[name, start, end, parent,
        op]``, start and end in microseconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            for s in self.spans:
                f.write(f'["{s.name}",{(s.start - origin) * 1e6:.3f},'
                        f'{(s.end - origin) * 1e6:.3f},{s.parent},'
                        f'{s.op}]\n')
