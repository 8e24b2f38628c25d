"""The one span engine: sync and async calls are observed alike.

Every client attempt — through a sync stub or an ``async_api`` stub —
opens one span in its ORB's span engine, and every served request one
server span.  The active chain lives in a ``ContextVar``, so concurrent
threads and concurrent asyncio tasks each fill their own span, and the
breakdowns behind ``tracer.last`` never mix two calls' stages.
"""

import asyncio
import contextvars
import json
import sys
import threading
import time
from collections import Counter

import pytest

from repro.core import OctetSequence
from repro.giop import SVC_CTX_TRACE
from repro.idl import compile_idl
from repro.obs import CLIENT_STAGES, SpanCollector, SpanEngine, StageEvent
from repro.orb import ORB, ORBConfig
from repro.orb.aio import async_api
from repro.orb.dispatcher import MethodDispatcher
from tests.conftest import make_store_impl

#: the stages every remote client span carries, traced or not
CALL_STAGES = ("marshal", "control-send", "server-wait", "demarshal")

RELAY_IDL = """
interface Relay { unsigned long relay(in unsigned long n); };
"""


def _wait(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not pred() and time.monotonic() < deadline:
        time.sleep(0.005)
    return pred()


async def _gather_puts(stub, n):
    ast = async_api(stub)
    return await asyncio.gather(*(ast.put_std(OctetSequence(b"a" * (i + 1)))
                                  for i in range(n)))


@pytest.fixture
def orbs():
    made = []

    def make(*configs):
        new = [ORB(cfg) for cfg in configs]
        made.extend(new)
        return new

    yield make
    for orb in made:
        orb.shutdown()


def _stub(client, server, impl):
    return client.string_to_object(
        server.object_to_string(server.activate(impl)))


class TestConcurrentBreakdowns:
    def test_sync_threads_and_async_gather_keep_breakdowns_apart(
            self, orbs, store_impl):
        """Three sync threads and an asyncio.gather share one tcp
        connection, with a short switch interval to force interleaving;
        every call still yields one breakdown holding exactly its own
        six stages."""
        server, client = orbs(ORBConfig(scheme="tcp"),
                              ORBConfig(scheme="tcp"))
        tracer = client.enable_tracing(keep=1024)
        stub = _stub(client, server, store_impl)
        n_threads, per_thread, n_async = 3, 30, 30
        errors = []

        def sync_lane():
            try:
                for _ in range(per_thread):
                    stub.put_std(OctetSequence(b"s"))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=sync_lane)
                   for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            asyncio.run(_gather_puts(stub, n_async))
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        total = n_threads * per_thread + n_async

        records = list(tracer.records)
        assert len(records) == total
        for rec in records:
            assert rec.operation == "put_std"
            assert rec.reply_status == "NO_EXCEPTION"
            assert Counter(e.stage for e in rec.stages) == \
                Counter(CLIENT_STAGES), rec.as_dict()
        assert len({rec.request_id for rec in records}) == total
        reg = tracer.registry
        assert reg.get("invocations_total", operation="put_std").value == \
            total
        for stage in CLIENT_STAGES:
            assert reg.get("stage_seconds", stage=stage).count == total


class TestAsyncObservable:
    N = 8

    def test_async_calls_record_client_roots(self, orbs, store_impl):
        client, server = orbs(ORBConfig(scheme="tcp",
                                        slow_call_threshold=0.0),
                              ORBConfig(scheme="tcp"))
        client.enable_tracing()
        rec = client.flightrec
        stub = _stub(client, server, store_impl)
        before = rec.recorded_total
        asyncio.run(_gather_puts(stub, self.N))
        assert rec.recorded_total - before == self.N
        roots = rec.recent()[-self.N:]
        assert {s.kind for s in roots} == {"client"}
        assert {s.name for s in roots} == {"put_std"}
        assert all(s.parent_id is None for s in roots)
        assert len({s.span_id for s in roots}) == self.N
        assert len({s.trace_id for s in roots}) == self.N
        for span in roots:
            seen = Counter(e.stage for e in span.stages)
            assert all(seen[stage] == 1 for stage in CALL_STAGES), seen

    def test_monitor_recent_spans_returns_async_roots(self, orbs, test_api,
                                                      store_impl):
        client, server = orbs(ORBConfig(scheme="tcp"),
                              ORBConfig(scheme="tcp"))
        client.activate(make_store_impl(test_api))  # hosts the monitor
        stub = _stub(client, server, store_impl)
        asyncio.run(_gather_puts(stub, self.N))
        roots = [s for s in client.flightrec.recent()
                 if s.name == "put_std"]
        assert len(roots) == self.N
        monitor = client.resolve_initial_references("ORBMonitor")
        doc = json.loads(monitor.recent_spans(0))
        listed = {s["span_id"] for s in doc["spans"]
                  if s["kind"] == "client" and s["name"] == "put_std"}
        assert listed == {s.span_id for s in roots}

    def test_async_request_carries_one_context_parenting_server_span(
            self, orbs, store_impl, monkeypatch):
        seen = []
        orig = MethodDispatcher.dispatch

        def spy(self, conn, rm):
            seen.append(list(rm.msg.body_header.service_contexts))
            return orig(self, conn, rm)

        monkeypatch.setattr(MethodDispatcher, "dispatch", spy)
        collector = SpanCollector()
        server, client = orbs(ORBConfig(scheme="tcp"),
                              ORBConfig(scheme="tcp"))
        server.enable_tracing(distributed=True, collector=collector,
                              trace_seed=1)
        client.enable_tracing(distributed=True, collector=collector,
                              trace_seed=2)
        stub = _stub(client, server, store_impl)
        asyncio.run(_gather_puts(stub, self.N))

        assert len(seen) == self.N
        for contexts in seen:
            assert [sc.context_id for sc in contexts] == [SVC_CTX_TRACE]
        assert _wait(lambda: len(collector) == 2 * self.N)
        cli = {s.span_id: s for s in collector.spans if s.kind == "client"}
        srv = [s for s in collector.spans if s.kind == "server"]
        assert len(cli) == len(srv) == self.N
        assert {s.parent_id for s in srv} == set(cli)
        for span in srv:
            assert span.trace_id == cli[span.parent_id].trace_id

    def test_async_call_nested_in_servant_joins_its_trace(
            self, orbs, store_impl):
        api = compile_idl(RELAY_IDL, module_name="_engine_relay_idl")
        collector = SpanCollector()
        backend, front, client = orbs(ORBConfig(scheme="tcp"),
                                      ORBConfig(scheme="tcp"),
                                      ORBConfig(scheme="tcp"))
        for i, orb in enumerate((backend, front, client)):
            orb.enable_tracing(distributed=True, collector=collector,
                               trace_seed=i + 1)
        back_stub = _stub(front, backend, store_impl)

        class RelayImpl(api.Relay_skel):
            def relay(self, n):
                # a fresh loop on the dispatch thread: its task copies
                # the upcall's context, server span included
                return asyncio.run(async_api(back_stub).put_std(
                    OctetSequence(b"r" * n)))

        relay = _stub(client, front, RelayImpl())
        assert relay.relay(5) == 5
        assert _wait(lambda: len(collector) == 4)
        spans = collector.spans
        assert len({s.trace_id for s in spans}) == 1
        by_id = {s.span_id: s for s in spans}
        chain = [(s.kind, s.name, by_id[s.parent_id].name
                  if s.parent_id else None)
                 for s in sorted(spans, key=lambda s: s.start_s)]
        assert chain == [("client", "relay", None),
                         ("server", "relay", "relay"),
                         ("client", "put_std", "relay"),
                         ("server", "put_std", "put_std")]
        nested = next(s for s in spans
                      if s.kind == "client" and s.name == "put_std")
        assert by_id[nested.parent_id].kind == "server"


class TestRetentionSplit:
    def test_collector_keeps_stages_while_ring_keeps_header(self, orbs,
                                                            store_impl):
        """Recorder and distributed tracing on together: a fast call's
        collected span keeps its stages; its ring entry is a header."""
        server, client = orbs(ORBConfig(scheme="loop"),
                              ORBConfig(scheme="loop"))
        tracer = client.enable_tracing(distributed=True)
        stub = _stub(client, server, store_impl)
        stub.put_std(OctetSequence(b"fast"))
        (collected,) = [s for s in tracer.spans.spans if s.kind == "client"]
        (header,) = client.flightrec.recent()
        assert header.span_id == collected.span_id
        assert header.duration_s < client.flightrec.slow_threshold
        assert header.stages == []
        assert Counter(e.stage for e in collected.stages) == \
            Counter(CLIENT_STAGES)
        assert client.flightrec.counters()["detail_dropped"] == 1


class TestContextChain:
    def test_tasks_on_one_loop_get_distinct_spans(self, clock):
        engine = SpanEngine(clock=clock, keep=16, slow_threshold=0.0)

        async def call(name):
            active = engine.start_client_span(name,
                                              engine.begin_invocation())
            await asyncio.sleep(0)  # let the other task open its span
            engine.emit(StageEvent(stage=name, duration_s=0.0))
            # an executor hop under a context copy reports here too
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, contextvars.copy_context().run, engine.emit,
                StageEvent(stage=name + "-hop", duration_s=0.0))
            nested = engine.begin_invocation()
            assert nested.parent_id == active.span.span_id
            return engine.finish(active)

        async def main():
            return await asyncio.gather(call("a"), call("b"))

        a, b = asyncio.run(main())
        assert [e.stage for e in a.stages] == ["a", "a-hop"]
        assert [e.stage for e in b.stages] == ["b", "b-hop"]
        assert a.parent_id is None and b.parent_id is None
        assert a.trace_id != b.trace_id
        assert engine.current_context() is None
