"""The native coroutine surface: ``await proxy.op(...)``, windowed
fan-out, the sync↔async bridge, and buffer hygiene when an awaited
call is cancelled mid-flight."""

import asyncio
import threading
import time

import pytest

from repro.core import BufferPool, OctetSequence
from repro.orb import BAD_OPERATION, ORB, ORBConfig
from repro.orb.aio import async_api, gather_window, run_sync
from tests.conftest import make_store_impl


def _settle(predicate, timeout=5.0, step=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


@pytest.fixture
def async_pair(test_api):
    impl = make_store_impl(test_api)
    server = ORB(ORBConfig(scheme="tcp"))
    client = ORB(ORBConfig(scheme="tcp"))
    stub = client.string_to_object(
        server.object_to_string(server.activate(impl)))
    yield async_api(stub), stub, impl, client, server
    client.shutdown()
    server.shutdown()


class TestAsyncStub:
    def test_await_returns_sync_result(self, async_pair):
        ast, stub, impl, *_ = async_pair

        async def go():
            return await ast.put_std(OctetSequence(b"hello"))

        assert asyncio.run(go()) == 5
        assert impl._total == 5

    def test_multiple_ops_and_user_exception(self, async_pair, test_api):
        ast, *_ = async_pair

        async def go():
            got = await ast.get_std(16)
            assert bytes(got) == bytes(i % 256 for i in range(16))
            with pytest.raises(test_api.Test_Failed) as ei:
                from repro.core import ZCOctetSequence
                await ast.put(ZCOctetSequence.from_data(b""))
            assert ei.value.code == 7

        asyncio.run(go())

    def test_unknown_operation_raises_at_call(self, async_pair):
        ast, *_ = async_pair

        async def go():
            await ast.no_such_op()

        with pytest.raises(BAD_OPERATION):
            asyncio.run(go())

    def test_private_attribute_stays_attribute_error(self, async_pair):
        ast, *_ = async_pair
        with pytest.raises(AttributeError):
            ast._private

    def test_sync_property_returns_wrapped_stub(self, async_pair):
        ast, stub, *_ = async_pair
        assert ast.sync is stub


class TestGatherWindow:
    def test_results_in_submission_order(self, async_pair):
        ast, *_ = async_pair

        async def go():
            return await gather_window(
                [lambda n=n: ast.get_std(n) for n in range(12)],
                window=3)

        results = asyncio.run(go())
        assert [len(bytes(r)) for r in results] == list(range(12))

    def test_return_exceptions(self, async_pair):
        ast, *_ = async_pair

        async def go():
            return await gather_window(
                [lambda: ast.get_std(4), lambda: ast.no_such_op()],
                window=2, return_exceptions=True)

        ok, err = asyncio.run(go())
        assert bytes(ok) == bytes([0, 1, 2, 3])
        assert isinstance(err, BAD_OPERATION)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            asyncio.run(gather_window([], window=0))

    def test_calls_to_different_servers_overlap(self):
        """Two slow tcp servers, one windowed call each: wall time ~ one
        call, not two."""
        from repro.idl import compile_idl
        api = compile_idl("""
        interface Slow { double work(in double seconds); };
        """, module_name="_aio_slow_idl")

        class SlowImpl(api.Slow_skel):
            def work(self, seconds):
                time.sleep(seconds)
                return seconds

        client = ORB(ORBConfig(scheme="tcp", collocated_calls=False))
        orbs, stubs = [], []
        for _ in range(2):
            orb = ORB(ORBConfig(scheme="tcp"))
            stubs.append(async_api(client.string_to_object(
                orb.object_to_string(orb.activate(SlowImpl())))))
            orbs.append(orb)

        async def go():
            t0 = time.perf_counter()
            results = await gather_window(
                [lambda s=s: s.work(0.3) for s in stubs], window=2)
            return results, time.perf_counter() - t0

        try:
            results, elapsed = asyncio.run(go())
            assert results == [0.3, 0.3]
            assert elapsed < 0.55  # overlapped, not 0.6+ serial
        finally:
            client.shutdown()
            for orb in orbs:
                orb.shutdown()


class TestRunSync:
    def test_bridges_from_a_plain_thread(self, async_pair):
        ast, *_ = async_pair
        got = run_sync(ast.get_std(5), timeout=30.0)
        assert len(bytes(got)) == 5

    def test_refuses_a_running_loops_thread(self):
        """On the reactor's own loop (or any running loop) run_sync
        raises at once instead of blocking that loop until timeout."""
        async def inner():
            return 1

        async def outer():
            t0 = time.perf_counter()
            with pytest.raises(RuntimeError):
                run_sync(inner(), timeout=2.0)
            return time.perf_counter() - t0

        assert run_sync(outer(), timeout=10.0) < 1.0
        assert asyncio.run(outer()) < 1.0


class TestCancellation:
    def test_cancelled_call_releases_deposit_buffers(self, test_api):
        """S3: cancel an awaited zero-copy reply mid-flight; when the
        stale reply lands later its deposit buffers must go straight
        back to the client's BufferPool — no leak."""
        pool = BufferPool()
        impl = make_store_impl(test_api)
        entered = threading.Event()
        release = threading.Event()
        orig_get = impl.get

        def slow_get(n):
            entered.set()
            assert release.wait(10.0)
            return orig_get(n)

        impl.get = slow_get
        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"), pool=pool)
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(impl)))
            ast = async_api(stub)

            async def go():
                task = asyncio.create_task(ast.get(256 * 1024))
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, entered.wait, 10)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                release.set()

            asyncio.run(go())

            # the late reply is stale: the demux drops it and releases
            # every deposit buffer it acquired from the pool
            def no_leak():
                s = pool.stats()
                acquired = s["hits"] + s["misses"]
                return acquired > 0 and acquired == s["reclaims"]

            assert _settle(no_leak), pool.stats()
        finally:
            release.set()
            client.shutdown()
            server.shutdown()

    def test_cancel_during_send_hop_releases_late_reply(
            self, test_api, monkeypatch):
        """The nastier race: cancellation lands while the marshal+send
        is still on the executor thread — the awaiter never reaches the
        reply wait, but the send completes anyway and registers a
        reply nobody will collect.  The registration must be retired
        and the late reply's buffers reclaimed."""
        from repro.orb.proxy import IIOPProxy

        pool = BufferPool()
        impl = make_store_impl(test_api)
        server = ORB(ORBConfig(scheme="tcp"))
        client = ORB(ORBConfig(scheme="tcp"), pool=pool)
        in_send = threading.Event()
        cancelled = threading.Event()
        orig_send = IIOPProxy._send_attempt

        def held_send(proxy, *a, **kw):
            in_send.set()
            assert cancelled.wait(10.0)
            return orig_send(proxy, *a, **kw)

        monkeypatch.setattr(IIOPProxy, "_send_attempt", held_send)
        try:
            stub = client.string_to_object(
                server.object_to_string(server.activate(impl)))
            ast = async_api(stub)

            async def go():
                task = asyncio.create_task(ast.get(256 * 1024))
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, in_send.wait, 10)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                cancelled.set()

            asyncio.run(go())

            def no_leak():
                s = pool.stats()
                acquired = s["hits"] + s["misses"]
                return acquired > 0 and acquired == s["reclaims"]

            assert _settle(no_leak), pool.stats()
        finally:
            cancelled.set()
            client.shutdown()
            server.shutdown()
