"""Spans and the span engine: the flight recorder and distributed tracing.

The Fig. 7 stage timers of :mod:`repro.obs.stages` see one process at a
time.  This module follows a single invocation *across* processes: a
W3C-traceparent-style context — 128-bit trace id, 64-bit span id, a
sampled flag — rides every GIOP Request in a dedicated service context
(:data:`repro.giop.SVC_CTX_TRACE`), is extracted by the server
dispatcher, and is re-injected on any nested outbound call the servant
makes (a naming lookup, a backend invoke...).  The result is one span
tree per trace, spanning client, wire and server.

Each :class:`Span` carries the six Fig. 7 stages of its invocation as
sub-spans and splits its byte accounting along the paper's central
boundary: control-path bytes (GIOP headers + marshaled bodies) vs
deposit-path bytes (the zero-copy payloads).

One :class:`SpanEngine` per ORB produces every span: one per client
attempt (sync or async) and one per served request.  It is an
:class:`~repro.obs.events.EventSink` in the ORB's sink chain and
attributes each stage event to the innermost active span of the
emitting thread or asyncio task (the active chain is a
:class:`contextvars.ContextVar`).  A servant's nested calls run in the
context of the upcall, so the server span is exactly the innermost
active span when the nested proxy asks for the current context.  Two
retention policies keep finished spans: the always-on ring of the
flight recorder (:mod:`repro.obs.flightrec`) and, with
``orb.enable_tracing(distributed=True)``, a :class:`SpanCollector` —
shareable between ORBs of one process, or dumped as JSON (span schema
v2, see :mod:`repro.obs.export`) and merged offline by trace id for
genuinely distributed runs.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, Iterable, List, Optional

from ..giop.messages import (SVC_CTX_TRACE, GIOPError, ServiceContext,
                             decode_trace_context, encode_trace_context)
from .events import EventSink, StageEvent
from .stages import (STAGE_CONTROL_SEND, STAGE_DEPOSIT_RECV,
                     STAGE_DEPOSIT_SEND, STAGE_RECV_WAIT, STAGE_SERVER_WAIT)

__all__ = [
    "TraceContext", "Span", "SpanCollector", "SpanEngine",
    "DistributedTracer", "DEFAULT_SLOW_THRESHOLD", "InvocationScope",
    "extract_trace_context", "build_span_tree", "render_span_tree",
    "SpanNode",
]

#: stages whose byte counts are control-path wire bytes.  The blocking
#: read stages count the GIOP headers + bodies actually read, so the
#: receive side of the control path is attributed to them.
_CONTROL_SENT = (STAGE_CONTROL_SEND,)
_CONTROL_RECV = (STAGE_SERVER_WAIT, STAGE_RECV_WAIT)
_DEPOSIT_SENT = (STAGE_DEPOSIT_SEND,)
_DEPOSIT_RECV = (STAGE_DEPOSIT_RECV,)

#: default slow-call threshold (seconds) of the ring: loopback calls are
#: tens of microseconds, cross-host ones single-digit milliseconds, so
#: 50 ms flags genuine outliers on every transport without sampling noise
DEFAULT_SLOW_THRESHOLD = 0.050


@dataclass(frozen=True)
class TraceContext:
    """One propagated (trace id, span id, sampled) triple.

    Ids are lowercase hex strings — 32 chars (128 bits) for the trace,
    16 chars (64 bits) for the span — matching W3C traceparent.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def encode(self) -> bytes:
        return encode_trace_context(bytes.fromhex(self.trace_id),
                                    bytes.fromhex(self.span_id),
                                    self.sampled)

    @classmethod
    def decode(cls, data) -> "TraceContext":
        trace_id, span_id, sampled = decode_trace_context(data)
        return cls(trace_id=trace_id.hex(), span_id=span_id.hex(),
                   sampled=sampled)

    def to_service_context(self) -> ServiceContext:
        return ServiceContext(context_id=SVC_CTX_TRACE, data=self.encode())


def extract_trace_context(
        contexts: Iterable[ServiceContext]) -> Optional[TraceContext]:
    """The trace context riding in a service context list, if any.

    A malformed payload is treated as absent (a foreign peer's private
    tag colliding with ours must not break dispatch).
    """
    for sc in contexts:
        if sc.context_id == SVC_CTX_TRACE:
            try:
                return TraceContext.decode(sc.data)
            except GIOPError:
                return None
    return None


@dataclass
class Span:
    """One side of one invocation, with its stage record."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str  #: operation name
    kind: str  #: "client" or "server"
    node: str = ""  #: which ORB produced the span (e.g. "orb3")
    start_s: float = 0.0
    end_s: float = 0.0
    status: Optional[str] = None  #: reply status or exception type name
    request_id: Optional[int] = None
    stages: List[StageEvent] = field(default_factory=list)

    # -- derived views -------------------------------------------------------
    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def stage_s(self, stage: str) -> float:
        return sum(e.duration_s for e in self.stages if e.stage == stage)

    def stage_bytes(self, stage: str) -> int:
        return sum(e.nbytes for e in self.stages if e.stage == stage)

    def _bytes(self, stages) -> int:
        return sum(e.nbytes for e in self.stages if e.stage in stages)

    def _seconds(self, stages) -> float:
        return sum(e.duration_s for e in self.stages if e.stage in stages)

    @property
    def control_bytes_sent(self) -> int:
        return self._bytes(_CONTROL_SENT)

    @property
    def control_bytes_recv(self) -> int:
        return self._bytes(_CONTROL_RECV)

    @property
    def deposit_bytes_sent(self) -> int:
        return self._bytes(_DEPOSIT_SENT)

    @property
    def deposit_bytes_recv(self) -> int:
        return self._bytes(_DEPOSIT_RECV)

    @property
    def control_seconds(self) -> float:
        return self._seconds(_CONTROL_SENT + _CONTROL_RECV)

    @property
    def deposit_seconds(self) -> float:
        return self._seconds(_DEPOSIT_SENT + _DEPOSIT_RECV)

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    # -- schema v2 -----------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "request_id": self.request_id,
            "status": self.status,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "control_bytes": {"sent": self.control_bytes_sent,
                              "recv": self.control_bytes_recv},
            "deposit_bytes": {"sent": self.deposit_bytes_sent,
                              "recv": self.deposit_bytes_recv},
            "stages": [
                {"stage": e.stage, "duration_s": e.duration_s,
                 "nbytes": e.nbytes}
                for e in self.stages
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        span = cls(trace_id=d["trace_id"], span_id=d["span_id"],
                   parent_id=d.get("parent_id"), name=d.get("name", "?"),
                   kind=d.get("kind", "?"), node=d.get("node", ""),
                   start_s=float(d.get("start_s", 0.0)),
                   status=d.get("status"),
                   request_id=d.get("request_id"))
        span.end_s = span.start_s + float(d.get("duration_s", 0.0))
        span.stages = [StageEvent(stage=s["stage"],
                                  duration_s=float(s.get("duration_s", 0.0)),
                                  nbytes=int(s.get("nbytes", 0)))
                       for s in d.get("stages", [])]
        return span


class SpanCollector:
    """Thread-safe bounded store of finished spans.

    One collector can back the span engines of several ORBs
    (client + server ORBs of one process share it, so a cross-process
    trace assembles in memory); distributed deployments dump each
    process's collector and merge by trace id.
    """

    def __init__(self, keep: int = 2048):
        self._spans: Deque[Span] = deque(maxlen=keep)
        self._lock = threading.Lock()

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def for_trace(self, trace_id: str) -> List[Span]:
        with self._lock:
            return [s for s in self._spans if s.trace_id == trace_id]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-seen order."""
        seen: List[str] = []
        with self._lock:
            for s in self._spans:
                if s.trace_id not in seen:
                    seen.append(s.trace_id)
        return seen

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


@dataclass(frozen=True)
class InvocationScope:
    """The per-logical-call trace decision, fixed across retries.

    The proxy creates one scope per logical invocation; every
    attempt (the first try and each retry) opens a *fresh* span inside
    it, so a retried call keeps its trace id while each attempt on the
    wire is distinguishable.
    """

    trace_id: str
    parent_id: Optional[str]
    sampled: bool


class _ActiveSpan:
    """A started span: one link of an engine's immutable active chain.

    ``parent`` (the next span outward) and ``root`` (the outermost one)
    are fixed when the span starts, so a chain a task or thread sees
    never changes under it: pushing a span makes a new chain head.
    """

    __slots__ = ("span", "sampled", "wire", "parent", "root", "children",
                 "reply_status")

    def __init__(self, span: Span, sampled: bool, wire: bool,
                 parent: Optional["_ActiveSpan"]):
        self.span = span
        self.sampled = sampled
        #: whether this span's context rides the wire on a Request
        self.wire = wire
        self.parent = parent
        self.root = parent.root if parent is not None else self
        #: finished descendants, delivered here by :meth:`SpanEngine
        #: .finish` of the nested spans (only roots accumulate them)
        self.children: List[Span] = []
        #: the GIOP reply status of a client attempt that got a reply
        self.reply_status: Optional[str] = None

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.span.trace_id,
                            span_id=self.span.span_id,
                            sampled=self.sampled)


class SpanEngine(EventSink):
    """One span per client attempt or server request, two retentions.

    The proxy and dispatcher drive the lifecycle explicitly
    (:meth:`begin_invocation` / :meth:`start_client_span` /
    :meth:`start_server_span` / :meth:`finish`).  Stage events reaching
    :meth:`emit` are appended to the innermost active span of the
    emitting context: the active chain lives in a
    :class:`contextvars.ContextVar`, so each thread *and* each asyncio
    task has its own, and an executor hop run under
    ``contextvars.copy_context().run`` reports into its caller's span.

    A finished span is kept by up to two retention policies:

    * the **ring** (``keep > 0``): a bounded ring of root span headers
      plus full span trees of the roots that took at least
      ``slow_threshold`` seconds — the flight recorder;
    * the **collector** (after :meth:`trace_to`): every sampled span,
      with full stages, in a :class:`SpanCollector`.  Client spans then
      propagate their context on the wire, ids come from a seeded RNG
      (W3C-sized and nonzero) and roots make the ``sample_rate``
      decision — distributed tracing.

    Finished client spans are also handed to every ``listeners``
    callable as ``fn(span, reply_status)`` — the source of
    ``tracer.last`` and the per-invocation metrics.
    """

    #: the ring alone never asks the connection layer to split the
    #: control/deposit gather-write, so the always-on recorder leaves
    #: the zero-copy send path's wire geometry (syscall count,
    #: fault-injection timing) untouched; tracing sets it per instance
    wire_stages = False

    def __init__(self, node: str = "",
                 clock: Callable[[], float] = time.perf_counter,
                 keep: int = 0, slow_keep: int = 32,
                 slow_threshold: float = DEFAULT_SLOW_THRESHOLD):
        super().__init__(clock=clock)
        if slow_threshold < 0:
            raise ValueError(
                f"slow_threshold must be >= 0: {slow_threshold}")
        self.node = node
        self.enabled = True
        self.slow_threshold = slow_threshold
        self._chain: ContextVar[Optional[_ActiveSpan]] = ContextVar(
            "repro_span_chain", default=None)
        self._ids = itertools.count(1)  # .__next__ is atomic under the GIL
        self._rng: Optional[random.Random] = None
        self._lock = threading.Lock()
        self._ring: Optional[Deque[Span]] = \
            deque(maxlen=keep) if keep > 0 else None
        self._slow: Deque[List[Span]] = deque(maxlen=slow_keep)
        self.collector: Optional[SpanCollector] = None
        self.registry = None
        self.sample_rate = 1.0
        self.listeners: List[Callable[[Span, Optional[str]], None]] = []
        #: ring counters (lifetime; read by the telemetry sampler)
        self.recorded_total = 0
        self.slow_sampled = 0
        self.detail_dropped = 0

    def trace_to(self, collector: SpanCollector, registry=None,
                 sample_rate: float = 1.0,
                 seed: Optional[int] = None) -> None:
        """Turn on the collector retention and wire propagation."""
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1]: {sample_rate}")
        self.collector = collector
        self.registry = registry
        self.sample_rate = sample_rate
        self._rng = random.Random(seed)
        self.wire_stages = True

    # -- switches ------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        """Stop producing spans (the proxy and dispatcher check
        :attr:`enabled`); events to still-open spans are dropped."""
        self.enabled = False

    # -- ids and sampling ----------------------------------------------------
    def _id_bits(self, nbits: int) -> int:
        if self._rng is None:
            return next(self._ids)  # sequential: no RNG draw per span
        while True:
            bits = self._rng.getrandbits(nbits)
            if bits:  # the all-zero id is invalid (W3C)
                return bits

    def new_trace_id(self) -> str:
        return f"{self._id_bits(128):032x}"

    def new_span_id(self) -> str:
        return f"{self._id_bits(64):016x}"

    def _sample(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self._rng.random() < self.sample_rate

    def current_context(self) -> Optional[TraceContext]:
        """The innermost active span's context in this context."""
        top = self._chain.get()
        return top.context if top is not None else None

    # -- span lifecycle ------------------------------------------------------
    def begin_invocation(self) -> InvocationScope:
        """Fix the trace identity for one logical client call.

        Inside an active span (a servant's nested call) the scope joins
        that span's trace; at top level it roots a new trace and makes
        the sampling decision.
        """
        top = self._chain.get()
        if top is not None:
            return InvocationScope(trace_id=top.span.trace_id,
                                   parent_id=top.span.span_id,
                                   sampled=top.sampled)
        return InvocationScope(trace_id=self.new_trace_id(),
                               parent_id=None, sampled=self._sample())

    def start_client_span(self, name: str,
                          scope: InvocationScope) -> _ActiveSpan:
        return self._push(scope.trace_id, scope.parent_id, scope.sampled,
                          name, "client", None)

    def start_server_span(self, name: str,
                          ctx: Optional[TraceContext] = None,
                          request_id: Optional[int] = None) -> _ActiveSpan:
        """Open the server-side span of an incoming request.

        It joins the incoming context (honouring its sampled flag);
        without one it parents under the span active here — a
        same-ORB client span on a synchronous transport — or roots a
        new trace.
        """
        if ctx is not None:
            return self._push(ctx.trace_id, ctx.span_id, ctx.sampled, name,
                              "server", request_id)
        top = self._chain.get()
        if top is not None:
            return self._push(top.span.trace_id, top.span.span_id,
                              top.sampled, name, "server", request_id)
        return self._push(self.new_trace_id(), None, self._sample(), name,
                          "server", request_id)

    def _push(self, trace_id: str, parent_id: Optional[str], sampled: bool,
              name: str, kind: str,
              request_id: Optional[int]) -> _ActiveSpan:
        span = Span(trace_id=trace_id, span_id=self.new_span_id(),
                    parent_id=parent_id, name=name, kind=kind,
                    node=self.node, start_s=self.clock(),
                    request_id=request_id)
        active = _ActiveSpan(span, sampled, self.collector is not None,
                             self._chain.get())
        self._chain.set(active)
        return active

    def finish(self, active: _ActiveSpan,
               status: Optional[str] = None) -> Optional[Span]:
        """Close ``active`` and hand it to the retention policies.

        Everything above ``active`` in this context's chain is dropped
        too (an exception that skipped inner finishes).  Returns the
        span, or None when no policy kept it (an unsampled span with
        no ring).  A nested span rides with its root; a finished root
        enters the ring — with full stage detail when it crossed the
        slow threshold (its whole subtree then also enters the slow
        ring), as a header otherwise.
        """
        top = self._chain.get()
        while top is not None and top is not active:
            top = top.parent
        if top is not None:
            self._chain.set(active.parent)
        span = active.span
        span.end_s = self.clock()
        if status is not None:
            span.status = status
        if span.kind == "client":
            for fn in self.listeners:
                fn(span, active.reply_status)
        collected = self.collector is not None and active.sampled
        if collected:
            self.collector.add(span)
            self._record_metrics(span)
        if self._ring is None:
            return span if collected else None
        if active.parent is not None:
            active.root.children.append(span)
            return span
        members = active.children + [span]
        slow = span.duration_s >= self.slow_threshold
        header = span
        if not slow:
            # fast call: keep the header, drop the per-stage detail —
            # this is what keeps the default-on ring cheap.  A span the
            # collector also holds keeps its stages there.
            if collected:
                header = replace(span, stages=[])
            else:
                span.stages = []
        with self._lock:
            self.recorded_total += 1
            if slow:
                self.slow_sampled += 1
                self._slow.append(members)
            else:
                self.detail_dropped += 1
            self._ring.append(header)
        return span

    def _record_metrics(self, span: Span) -> None:
        reg = self.registry
        if reg is None:
            return
        reg.counter("spans_total", kind=span.kind,
                    operation=span.name).inc()
        reg.histogram("span_seconds",
                      kind=span.kind).observe(span.duration_s)
        ctl = span.control_bytes_sent + span.control_bytes_recv
        dep = span.deposit_bytes_sent + span.deposit_bytes_recv
        if ctl:
            reg.counter("span_control_bytes_total", kind=span.kind).inc(ctl)
        if dep:
            reg.counter("span_deposit_bytes_total", kind=span.kind).inc(dep)

    # -- sink interface ------------------------------------------------------
    def emit(self, event) -> None:
        if not self.enabled or not isinstance(event, StageEvent):
            return
        top = self._chain.get()
        if top is not None:
            top.span.stages.append(event)

    # -- ring readers --------------------------------------------------------
    def recent(self, n: int = 0) -> List[Span]:
        """The last ``n`` recorded root spans, oldest first (0 = all)."""
        with self._lock:
            spans = list(self._ring or ())
        return spans[-n:] if n > 0 else spans

    def slow_trees(self, n: int = 0) -> List[List[Span]]:
        """The last ``n`` slow-call span trees, oldest first (0 = all)."""
        with self._lock:
            trees = [list(t) for t in self._slow]
        return trees[-n:] if n > 0 else trees

    def spans(self, n: int = 0) -> List[Span]:
        """Slow-tree members plus recent roots, deduplicated by span
        id, oldest first — the ``/spans`` and ``recent_spans(n)``
        payload (``n`` bounds the *root* count, 0 = all)."""
        roots = self.recent(n)
        trees = self.slow_trees()
        keep_traces = {s.trace_id for s in roots}
        seen = {s.span_id for s in roots}
        out: List[Span] = []
        for tree in trees:
            for span in tree:
                if span.trace_id in keep_traces and span.span_id not in seen:
                    seen.add(span.span_id)
                    out.append(span)
        out.extend(roots)
        out.sort(key=lambda s: s.start_s)
        return out

    def counters(self) -> dict:
        """Lifetime ring counters + ring occupancy (for the sampler)."""
        with self._lock:
            return {
                "recorded_total": self.recorded_total,
                "slow_sampled": self.slow_sampled,
                "detail_dropped": self.detail_dropped,
                "ring_spans": len(self._ring or ()),
                "slow_trees": len(self._slow),
            }

    def clear(self) -> None:
        with self._lock:
            if self._ring is not None:
                self._ring.clear()
            self._slow.clear()


class DistributedTracer(SpanEngine):
    """A span engine with the collector retention only (no ring)."""

    def __init__(self, node: str = "", registry=None,
                 collector: Optional[SpanCollector] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 sample_rate: float = 1.0, seed: Optional[int] = None,
                 keep: int = 2048):
        super().__init__(node=node, clock=clock)
        self.trace_to(collector if collector is not None
                      else SpanCollector(keep=keep),
                      registry=registry, sample_rate=sample_rate, seed=seed)


# ---------------------------------------------------------------------------
# span trees
# ---------------------------------------------------------------------------

@dataclass
class SpanNode:
    """One node of an assembled span tree."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)


def build_span_tree(spans: Iterable[Span]) -> Dict[str, List[SpanNode]]:
    """Assemble spans into per-trace trees.

    Returns ``{trace_id: [roots]}``.  A span whose parent is unknown
    (the parent ran in a process whose dump was not merged, or was
    unsampled) becomes a root of its trace; roots and children are
    ordered by start time.
    """
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    out: Dict[str, List[SpanNode]] = {}
    for trace_id, members in by_trace.items():
        nodes = {s.span_id: SpanNode(s) for s in members}
        roots: List[SpanNode] = []
        for node in nodes.values():
            parent = nodes.get(node.span.parent_id) \
                if node.span.parent_id else None
            if parent is None or parent is node:
                roots.append(node)
            else:
                parent.children.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: n.span.start_s)
        roots.sort(key=lambda n: n.span.start_s)
        out[trace_id] = roots
    return out


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f}MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}KiB"
    return f"{n}B"


def _span_line(span: Span) -> str:
    out = (f"{span.kind} {span.name}  {span.duration_s * 1e3:.3f}ms")
    if span.node:
        out += f"  @{span.node}"
    out += (f"  ctl {_fmt_bytes(span.control_bytes_sent)}"
            f"/{_fmt_bytes(span.control_bytes_recv)}"
            f"  dep {_fmt_bytes(span.deposit_bytes_sent)}"
            f"/{_fmt_bytes(span.deposit_bytes_recv)}")
    if span.status not in (None, "NO_EXCEPTION"):
        out += f"  [{span.status}]"
    return out


def render_span_tree(spans: Iterable[Span]) -> str:
    """ASCII trees, one per trace: per-span durations and the
    control/deposit byte split (sent/received)."""
    lines: List[str] = []
    forest = build_span_tree(spans)
    for trace_id, roots in forest.items():
        members = list(_iter_nodes(roots))
        total = sum(r.span.duration_s for r in roots)
        lines.append(f"trace {trace_id}  "
                     f"({len(members)} span{'s' if len(members) != 1 else ''}"
                     f", {total * 1e3:.3f}ms)")
        for i, root in enumerate(roots):
            _render_node(root, "", i == len(roots) - 1, lines)
    return "\n".join(lines) + ("\n" if lines else "")


def _iter_nodes(roots: List[SpanNode]):
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _render_node(node: SpanNode, prefix: str, last: bool,
                 lines: List[str]) -> None:
    branch = "`-- " if last else "|-- "
    lines.append(prefix + branch + _span_line(node.span))
    child_prefix = prefix + ("    " if last else "|   ")
    for i, child in enumerate(node.children):
        _render_node(child, child_prefix, i == len(node.children) - 1, lines)
