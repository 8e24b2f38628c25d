"""IIOPProxy: the client-side invocation path.

The class mirrors MICO's ``IIOPProxy`` (Fig. 3): a static invocation
arrives from the stub, parameters are marshaled — or, for zero-copy
sequences, registered for deposit (§4.4) — a GIOP Request is written,
and the matching Reply demarshaled into results or raised exceptions.

On top of that sits the resilience layer (:mod:`repro.orb.policy`): the
proxy owns one logical connection to its endpoint, reconnecting the
underlying ``GIOPConn`` when the stream dies, retrying failed attempts
within the policy's budget (backoff + seeded jitter), and enforcing the
request deadline — which surfaces as the ``TIMEOUT`` system exception
with a completion status the client can trust.  Each retry re-marshals
from the original arguments, which re-registers any pending
direct-deposit payloads on the fresh connection; after an attempt whose
deposit payload was interrupted mid-stream, the retry falls back to the
copy path so zero-copy never compromises delivery (§4.4's regime is an
optimisation, not a correctness requirement).

One engine, two drivers: the attempt and the retry loop around it are
written once, as a sans-IO generator (:meth:`IIOPProxy._invocation`)
that yields three kinds of step — send this attempt, await this reply
future until this deadline, sleep before a retry.  :meth:`IIOPProxy.invoke`
performs the steps blocking on the caller's thread;
:meth:`IIOPProxy.invoke_async` performs them by awaiting, hopping the
dial+marshal+send through an executor.  Every hook — interceptor
points, the client span of the ORB's span engine, request-id stamping,
trace-context injection, reply-stage re-emission — therefore runs once,
identically, for sync and async calls.

Concurrency model: invocations are **pipelined**.  GIOP matches replies
to requests by ``request_id``, so any number of threads and tasks share
this proxy's single connection with overlapped in-flight requests.
Each call registers a :class:`~repro.orb.demux.ReplyFuture` with the
connection's :class:`~repro.orb.demux.ReplyDemux` before sending; only
the socket write itself is serialized (``GIOPConn._send_lock`` keeps
the control/deposit split atomic per message).  A deadline expiry
abandons only its own future — the connection stays up and a late
reply is dropped as stale — while a connection-fatal error fails every
in-flight future with the appropriate CORBA system exception.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from typing import Any, Callable, Optional, Sequence, Tuple, Union

from ..giop import ReplyHeader, ReplyStatus, RequestHeader
from ..obs.events import stage_span
from ..obs.stages import STAGE_DEMARSHAL, STAGE_MARSHAL
from ..transport.base import TransportError, TransportTimeout
from .connection import ConnStats, GIOPConn, ReceivedMessage
from .demux import ReplyDemux, ReplyFuture
from .exceptions import (COMM_FAILURE, INTERNAL, MARSHAL, TIMEOUT, TRANSIENT,
                         CompletionStatus, UserException,
                         decode_system_exception)
from .policy import NO_RETRY, Deadline, InvocationPolicy
from .signatures import OperationSignature

__all__ = ["IIOPProxy"]

#: a zero-arg factory producing a fresh, connected GIOPConn
Connector = Callable[[], GIOPConn]


def _abandon_sent(send_fut) -> None:
    """Done-callback for a send whose awaiter was cancelled mid-hop:
    retire whatever registration the executor made (demux.abandon is
    idempotent, so racing the executor's own state.abandoned check is
    harmless)."""
    if send_fut.cancelled() or send_fut.exception() is not None:
        return
    _conn, demux, future = send_fut.result()
    if future is not None:
        demux.abandon(future)


async def _wait_reply(loop, future: ReplyFuture,
                      timeout: Optional[float]) -> bool:
    """Await ``future`` without a thread: the demux (reader thread or
    reactor) completes it and a done-callback wakes this task via
    ``call_soon_threadsafe``.  False when ``timeout`` expired first."""
    afut = loop.create_future()

    def _wake(_fut) -> None:
        def _set() -> None:
            if not afut.done():
                afut.set_result(None)
        try:
            loop.call_soon_threadsafe(_set)
        except RuntimeError:
            pass  # caller's loop already closed; nobody is waiting

    future.add_done_callback(_wake)
    try:
        await asyncio.wait_for(afut, timeout)
    except asyncio.TimeoutError:
        return False
    return True


#: the steps the invocation engine yields to its driver:
#: ``(_SEND, attempt)`` — dial, marshal, register and send the attempt;
#: the driver sends back ``(conn, demux, future)``.
#: ``(_AWAIT, future, timeout)`` — wait for the reply future; the driver
#: sends back whether it completed in time.
#: ``(_SLEEP, sleep, delay)`` — call the policy's sleep before a retry.
_SEND, _AWAIT, _SLEEP = "send", "await", "sleep"


class _Attempt:
    """Per-attempt state.  One invocation may run several attempts, and
    several invocations run concurrently, so this cannot live on the
    proxy."""

    __slots__ = ("object_key", "sig", "args", "force_copy", "active",
                 "info", "had_deposits", "abandoned")

    def __init__(self, object_key: bytes, sig: OperationSignature,
                 args: Sequence[Any], force_copy: bool):
        self.object_key = object_key
        self.sig = sig
        self.args = args
        self.force_copy = force_copy
        #: the attempt's client span, when the ORB has a span engine
        self.active = None
        #: the interceptors' RequestInfo, when any are registered
        self.info = None
        self.had_deposits = False
        #: set when an async caller was cancelled during the send hop
        self.abandoned = False


class IIOPProxy:
    """Pipelined request/reply engine over one (logical) GIOPConn."""

    def __init__(self, conn: Union[GIOPConn, Connector],
                 policy: Optional[InvocationPolicy] = None,
                 orb=None, reactor=None):
        if isinstance(conn, GIOPConn):
            self._conn: Optional[GIOPConn] = conn
            self._connector: Optional[Connector] = None
            self._stats = conn.stats
        else:
            self._conn = None
            self._connector = conn
            self._stats = ConnStats()
        self.policy = policy
        #: the event-loop reactor handed to each ReplyDemux: adoptable
        #: connections get no reader thread.  None = threaded demux.
        self._reactor = reactor
        #: the owning ORB (for tracers/interceptors); falls back to the
        #: connection's ORB when constructed around a live GIOPConn
        self._orb = orb
        #: guards the conn/demux *lifecycle* (dial, reconnect) — never
        #: held across a send or a reply wait
        self._conn_lock = threading.Lock()
        self._demux: Optional[ReplyDemux] = None
        self.calls = 0

    # -- connection management -----------------------------------------------
    @property
    def conn(self) -> GIOPConn:
        """The live connection, dialing lazily on first use."""
        return self._ensure_conn()[0]

    @property
    def stats(self) -> ConnStats:
        """Cumulative stats across every connection this proxy used."""
        return self._stats

    def _ensure_conn(self) -> Tuple[GIOPConn, ReplyDemux]:
        """The live (conn, demux) pair, dialing or replacing a dead
        connection.  Concurrent callers race benignly: whoever gets the
        lock first dials; the rest reuse the result."""
        with self._conn_lock:
            conn = self._conn
            if conn is not None and not conn.closed:
                if self._demux is None:
                    # proxy constructed around a live GIOPConn: adopt it
                    self._demux = ReplyDemux(conn, reactor=self._reactor)
                    self._demux.start()
                return conn, self._demux
            replacing = conn is not None
            if conn is not None:
                conn.close()
                self._conn = None
                self._demux = None
            conn = self._dial()
            demux = ReplyDemux(conn, reactor=self._reactor)
            self._conn = conn
            self._demux = demux
            if replacing:
                self._stats.reconnects += 1
            demux.start()
            return conn, demux

    def _dial(self) -> GIOPConn:
        if self._connector is None:
            raise COMM_FAILURE(
                completed=CompletionStatus.COMPLETED_NO,
                message="connection closed and proxy has no connector")
        try:
            conn = self._connector()
        except TransportTimeout as e:
            # the dial deadline (ORBConfig.connect_timeout) expired: no
            # request was ever sent, so COMPLETED_NO is honest and the
            # call is safely retryable — TRANSIENT, like any other
            # failure to establish the connection
            self._stats.timeouts += 1
            raise TRANSIENT(completed=CompletionStatus.COMPLETED_NO,
                            message=f"connect timed out: {e}") from e
        except TransportError as e:
            raise TRANSIENT(completed=CompletionStatus.COMPLETED_NO,
                            message=f"connect failed: {e}") from e
        conn.adopt_stats(self._stats)
        return conn

    def reconnect(self) -> GIOPConn:
        """Tear down the current connection and dial a replacement; the
        shared ConnStats rides along."""
        with self._conn_lock:
            if self._conn is not None:
                self._conn.close()
        # _ensure_conn sees the dead conn and replaces it (counting the
        # reconnect); with no conn at all this is just the first dial
        return self._ensure_conn()[0]

    def close(self, timeout: float = 1.0) -> None:
        """Close the connection politely and join the demux reader
        thread (bounded) — ``ORB.shutdown`` calls this so the thread
        count returns to baseline."""
        with self._conn_lock:
            conn, demux = self._conn, self._demux
            self._conn = None
            self._demux = None
        if conn is not None:
            conn.send_close()
        if demux is not None:
            demux.close(timeout)
        elif conn is not None:
            conn.close()

    def _owner(self):
        """The owning ORB (for span engine and interceptors) — without
        dialing; falls back to the live connection's ORB."""
        if self._orb is not None:
            return self._orb
        return self._conn.orb if self._conn is not None else None

    # -- invocation: the drivers ---------------------------------------------
    def invoke(self, object_key: bytes, sig: OperationSignature,
               args: Sequence[Any],
               policy: Optional[InvocationPolicy] = None) -> Any:
        """One static invocation, blocking: drives :meth:`_invocation`
        on the calling thread.  Any number of threads may invoke
        through one proxy concurrently; their requests pipeline on the
        shared connection."""
        steps = self._invocation(object_key, sig, args, policy)
        value = exc = None
        while True:
            try:
                step = steps.throw(exc) if exc is not None \
                    else steps.send(value)
            except StopIteration as stop:
                return stop.value
            exc = None
            try:
                if step[0] is _SEND:
                    value = self._send_attempt(step[1])
                elif step[0] is _AWAIT:
                    value = step[1].wait(step[2])
                else:
                    value = step[1](step[2])
            except BaseException as e:
                # thrown into the engine, which handles or re-raises it
                value, exc = None, e

    async def invoke_async(self, object_key: bytes, sig: OperationSignature,
                           args: Sequence[Any],
                           policy: Optional[InvocationPolicy] = None) -> Any:
        """Coroutine twin of :meth:`invoke`: the same engine — deadline,
        retry budget, deposit fallback, interceptors, spans — driven by
        awaiting, so thousands of calls can be in flight on one task
        with no thread per call.

        Runs on *any* running event loop (the caller's ``asyncio.run``
        loop or a reactor shard).  The blocking pieces — the dial and
        the marshal+send, an injectable ``policy.sleep`` — hop through
        the loop's default executor so the loop itself never blocks.
        The send hop runs in a copy of the task's context, so its
        stage events land in the task's own client span.
        """
        loop = asyncio.get_running_loop()
        steps = self._invocation(object_key, sig, args, policy)
        value = exc = None
        while True:
            try:
                step = steps.throw(exc) if exc is not None \
                    else steps.send(value)
            except StopIteration as stop:
                return stop.value
            exc = None
            try:
                if step[0] is _SEND:
                    value = await self._send_hop(loop, step[1])
                elif step[0] is _AWAIT:
                    value = await _wait_reply(loop, step[1], step[2])
                else:
                    # the policy's sleep is injectable (tests replace
                    # it); honor the injection without stalling the loop
                    value = await loop.run_in_executor(None, step[1],
                                                       step[2])
            except BaseException as e:
                # thrown into the engine, which handles or re-raises it
                # (a CancelledError always propagates back out)
                value, exc = None, e

    async def _send_hop(self, loop, state: _Attempt):
        send_fut = loop.run_in_executor(
            None, contextvars.copy_context().run, self._send_attempt, state)
        try:
            return await asyncio.shield(send_fut)
        except asyncio.CancelledError:
            # the executor send outlives the cancellation — it may
            # already have registered (or even received) the reply.
            # Mark the attempt abandoned so the executor thread cleans
            # up after itself, and hook the wrapper future for the case
            # where the send finished before the flag was visible;
            # demux.abandon is idempotent, so both firing is fine.
            state.abandoned = True
            send_fut.add_done_callback(_abandon_sent)
            raise

    # -- invocation: the engine ----------------------------------------------
    def _invocation(self, object_key: bytes, sig: OperationSignature,
                    args: Sequence[Any],
                    policy: Optional[InvocationPolicy]):
        """The invocation engine, as a sans-IO generator: attempts
        under the effective policy, with deadline, retry budget,
        backoff and deposit fallback applied around them.  Yields the
        ``_SEND`` / ``_AWAIT`` / ``_SLEEP`` steps for a driver to
        perform and returns the call's result."""
        policy = policy or self.policy or NO_RETRY
        deadline = policy.start_deadline()
        orb = self._owner()
        engine = getattr(orb, "span_engine", None)
        if engine is not None and not engine.enabled:
            engine = None
        chain = getattr(orb, "interceptors", None)
        if chain is not None and not len(chain):
            chain = None
        # the trace identity of this logical call is fixed here, before
        # the retry loop: every attempt below shares the trace id but
        # opens a fresh span, so retries are distinguishable on the wire
        scope = engine.begin_invocation() if engine is not None else None
        attempt = 0
        force_copy = False
        while True:
            if deadline is not None and deadline.expired:
                self._stats.timeouts += 1
                raise TIMEOUT(
                    completed=CompletionStatus.COMPLETED_NO,
                    message=(f"deadline of {policy.timeout}s expired "
                             f"before the request was sent"))
            state = _Attempt(object_key, sig, args, force_copy)
            try:
                return (yield from self._attempt(state, deadline, engine,
                                                 scope, chain))
            except (TRANSIENT, COMM_FAILURE) as exc:
                if attempt >= policy.max_retries or \
                        not policy.retryable(exc, sig.idempotent):
                    raise
                if deadline is not None and deadline.expired:
                    # retry would be futile; report the deadline,
                    # carrying the completion status we actually know
                    self._stats.timeouts += 1
                    raise TIMEOUT(
                        completed=exc.completed,
                        message=(f"deadline of {policy.timeout}s "
                                 f"expired after "
                                 f"{attempt + 1} attempt(s): "
                                 f"{exc.message}")) from exc
                if state.had_deposits and not force_copy:
                    # a deposit payload died mid-stream: degrade to
                    # the copy path so the retry cannot be bitten by
                    # the same data-path failure
                    force_copy = True
                    self._stats.deposit_fallbacks += 1
                delay = policy.backoff(attempt)
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline.remaining))
                if delay > 0:
                    yield _SLEEP, policy.sleep, delay
                attempt += 1
                self._stats.retries += 1

    def _attempt(self, state: _Attempt, deadline: Optional[Deadline],
                 engine, scope, chain):
        """One attempt: its span, interceptor points, send, reply wait
        and demarshal."""
        self.calls += 1
        sig = state.sig
        active = state.active = engine.start_client_span(sig.name, scope) \
            if engine is not None else None
        try:
            info = None
            if chain is not None:
                from .interceptors import RequestInfo
                info = state.info = RequestInfo(
                    operation=sig.name, object_key=state.object_key,
                    response_expected=not sig.oneway)
                chain.run("send_request", info)
            conn, demux, future = yield _SEND, state
            if future is None:  # oneway: the send is the whole call
                return None
            timeout = None if deadline is None \
                else max(deadline.remaining, 1e-4)
            try:
                done = yield _AWAIT, future, timeout
            except BaseException:
                # a cancelled caller must not leak: forget the pending
                # registration, and release the reply's deposit buffers
                # whether it landed already or lands later
                demux.abandon(future)
                raise
            if not done:
                demux.discard(future.request_id)
                # re-check: the reply may have squeaked in between the
                # wait expiring and the discard — a completed future is
                # a reply, not a timeout (dropping it would leak its
                # deposits)
                if not future.done:
                    self._stats.timeouts += 1
                    raise TIMEOUT(
                        completed=CompletionStatus.COMPLETED_MAYBE,
                        message=(f"reply to request {future.request_id} "
                                 f"did not arrive within the deadline"))
            if future.exception is not None:
                raise future.exception
            rm = future.message
            assert rm is not None
            if conn.sink is not None:
                # the demux read this reply with its stage events
                # captured; re-emit them here, in the invoking thread or
                # task, so the active client span gets THIS call's
                for event in future.stages:
                    conn.sink.emit(event)
            reply = rm.msg.body_header
            if not isinstance(reply, ReplyHeader):
                raise INTERNAL(message=(
                    f"request {future.request_id} answered by "
                    f"{type(reply).__name__}"))
            status = reply.reply_status.name
            if active is not None:
                active.reply_status = status
            try:
                result = self._process_reply(conn, sig, rm)
            finally:
                # the reply point runs after demarshaling so
                # interceptors see honest wall time for the invocation
                if info is not None:
                    info.reply_status = status
                    chain.run("receive_reply", info)
            if active is not None:
                active.span.status = status
            return result
        except BaseException as exc:
            if active is not None:
                active.span.status = type(exc).__name__
            raise
        finally:
            if active is not None:
                engine.finish(active)

    def _send_attempt(self, state: _Attempt):
        """Dial, marshal, register and send one attempt — on the
        invoking thread (sync driver) or an executor thread (async
        driver), so every piece that may block (connect, socket write)
        or hold the send lock stays off the event loop."""
        conn, demux = self._ensure_conn()
        sig = state.sig
        with stage_span(conn.sink, STAGE_MARSHAL) as span:
            ctx = conn.make_marshal_context(force_copy=state.force_copy)
            enc = conn.body_encoder()
            sig.marshal_request(enc, state.args, ctx)
            # the encoder goes to send_message as a chunk plan — no
            # join; its nbytes is the same body length the old blob had
            span.add_bytes(enc.nbytes)
        state.had_deposits = bool(ctx.descriptors)
        request = RequestHeader(
            request_id=conn.next_request_id(),
            object_key=state.object_key,
            operation=sig.name,
            response_expected=not sig.oneway,
        )
        if state.info is not None:
            state.info.request_id = request.request_id
        active = state.active
        if active is not None:
            active.span.request_id = request.request_id
            if active.wire:
                request.service_contexts.append(
                    active.context.to_service_context())
        # register BEFORE sending: on synchronous-delivery transports
        # the reply can arrive inside send_message itself
        future = demux.register(request.request_id) \
            if not sig.oneway else None
        try:
            conn.send_message(request, enc, ctx)
        except BaseException:
            if future is not None:
                demux.discard(request.request_id)
            raise
        if future is not None and state.abandoned:
            # the awaiting task was cancelled while we were sending:
            # nobody will ever collect this reply, so retire it here,
            # on a thread that needs no event loop
            demux.abandon(future)
        return conn, demux, future

    # -- reply handling ---------------------------------------------------------
    def _process_reply(self, conn: GIOPConn, sig: OperationSignature,
                       rm: ReceivedMessage) -> Any:
        reply = rm.msg.body_header
        assert isinstance(reply, ReplyHeader)
        ctx = rm.make_demarshal_context(on_bytes=conn.bytes_hook(),
                                        generic_loop=conn.generic_loop,
                                        orb=conn.orb)
        dec = rm.params_decoder()
        status = reply.reply_status
        if status is ReplyStatus.NO_EXCEPTION:
            if dec is None:
                raise MARSHAL(message="reply without body")
            with stage_span(conn.sink, STAGE_DEMARSHAL) as span:
                result = sig.demarshal_reply(dec, ctx)
                span.add_bytes(dec.tell())
            return result
        if status is ReplyStatus.USER_EXCEPTION:
            from ..cdr import get_marshaller
            mark = dec.tell()
            repo_id = dec.get_string()
            tc = sig.exception_tc_by_id(repo_id)
            if tc is None:
                raise INTERNAL(message=(
                    f"server raised undeclared exception {repo_id}"))
            dec.seek(mark)
            exc = get_marshaller(tc).demarshal(dec, ctx)
            if not isinstance(exc, UserException):
                raise INTERNAL(message=(
                    f"exception {repo_id} demarshaled as "
                    f"{type(exc).__name__}; register its class"))
            raise exc
        if status is ReplyStatus.SYSTEM_EXCEPTION:
            raise decode_system_exception(dec)
        if status is ReplyStatus.LOCATION_FORWARD:
            raise TRANSIENT(message="LOCATION_FORWARD not supported; "
                                    "re-resolve the object reference")
        raise INTERNAL(message=f"unhandled reply status {status}")
