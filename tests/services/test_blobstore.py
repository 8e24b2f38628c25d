"""BlobStore service tests: chunked file streaming over the ORB.

Covers the IDL surface (open/stat/read_range/close and its error
exceptions), the bounded-window ``read_all`` client helper, and the
tier routing of the file-backed replies: kernel sendfile on TCP,
arena staging on shm, plain views everywhere else.
"""

import os
import threading
import time

import pytest

from repro.orb import ORB, ORBConfig
from repro.services import BlobStoreImpl, blob_api, read_all
from repro.transport.base import TransportRegistry
from repro.transport.loopback import LoopbackTransport
from repro.transport.shm import ShmTransport, shm_available


@pytest.fixture
def blob_root(tmp_path):
    data = bytes(os.urandom(3 * 1024 * 1024))
    (tmp_path / "movie.bin").write_bytes(data)
    (tmp_path / "small.txt").write_bytes(b"hello blob")
    return tmp_path, data


def _pair(scheme, blob_root, chunk_size=512 * 1024, **cfg):
    root, _ = blob_root
    impl = BlobStoreImpl(root, chunk_size=chunk_size)
    server = ORB(ORBConfig(scheme=scheme, **cfg))
    client = ORB(ORBConfig(scheme=scheme, collocated_calls=False, **cfg))
    ref = server.activate(impl)
    store = client.string_to_object(server.object_to_string(ref))
    return store, impl, client, server


class TestBlobStoreOps:
    def test_open_stat_read_close(self, blob_root):
        api = blob_api()
        store, impl, client, server = _pair("loop", blob_root)
        try:
            h = store.open("small.txt")
            info = store.stat(h)
            assert info.size == 10
            assert info.chunk_size == 512 * 1024
            assert store.read_range(h, 0, 100).tobytes() == b"hello blob"
            assert store.read_range(h, 6, 100).tobytes() == b"blob"
            store.close(h)
            with pytest.raises(api.Blob_BadHandle):
                store.stat(h)
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()

    def test_not_found_and_traversal_rejected(self, blob_root):
        api = blob_api()
        store, impl, client, server = _pair("loop", blob_root)
        try:
            for name in ("missing.bin", "../etc/passwd", "a/b", "", ".."):
                with pytest.raises(api.Blob_NotFound):
                    store.open(name)
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()

    def test_read_past_eof_is_empty(self, blob_root):
        store, impl, client, server = _pair("loop", blob_root)
        try:
            h = store.open("small.txt")
            assert store.read_range(h, 10, 100).tobytes() == b""
            assert store.read_range(h, 9999, 1).tobytes() == b""
            store.close(h)
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()

    def test_bad_handle(self, blob_root):
        api = blob_api()
        store, impl, client, server = _pair("loop", blob_root)
        try:
            with pytest.raises(api.Blob_BadHandle):
                store.read_range(12345, 0, 1)
            with pytest.raises(api.Blob_BadHandle):
                store.close(12345)
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()


class TestReadAll:
    def test_loopback_stream(self, blob_root):
        _, data = blob_root
        store, impl, client, server = _pair("loop", blob_root)
        try:
            assert read_all(store, "movie.bin") == data
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()

    def test_window_one_and_odd_chunk(self, blob_root):
        _, data = blob_root
        store, impl, client, server = _pair("loop", blob_root)
        try:
            got = read_all(store, "movie.bin", window=1,
                           chunk_size=999_983)  # prime: ragged tail
            assert got == data
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()

    def test_handles_released_on_error(self, blob_root):
        api = blob_api()
        store, impl, client, server = _pair("loop", blob_root)
        try:
            with pytest.raises(api.Blob_NotFound):
                read_all(store, "missing.bin")
            h = store.open("small.txt")
            store.close(h)
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()

    def test_window_bounds_concurrent_reads(self, blob_root):
        """More server workers (4) than the window (2): the servant never
        sees more than ``window`` read_range upcalls at once."""
        _, data = blob_root
        store, impl, client, server = _pair("tcp", blob_root,
                                            chunk_size=256 * 1024)
        read_range, lock = impl.read_range, threading.Lock()
        live = peak = 0

        def counting(handle, offset, count):
            nonlocal live, peak
            with lock:
                live += 1
                peak = max(peak, live)
            try:
                time.sleep(0.02)
                return read_range(handle, offset, count)
            finally:
                with lock:
                    live -= 1

        impl.read_range = counting
        try:
            assert read_all(store, "movie.bin", window=2) == data
            assert 1 <= peak <= 2
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()

    def test_failed_read_closes_handle(self, blob_root):
        """A read_range failing mid-stream raises out of read_all, and
        the handle is closed once the other reads are done."""
        api = blob_api()
        store, impl, client, server = _pair("loop", blob_root,
                                            chunk_size=256 * 1024)
        read_range = impl.read_range

        def failing(handle, offset, count):
            if offset == 512 * 1024:
                raise api.Blob_IOFailed(why="disk")
            return read_range(handle, offset, count)

        impl.read_range = failing
        try:
            with pytest.raises(api.Blob_IOFailed):
                read_all(store, "movie.bin", window=3)
            assert impl._handles == {}
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()


class TestTierRouting:
    def test_tcp_rides_kernel_sendfile(self, blob_root):
        """Over real TCP every ≥threshold chunk takes os.sendfile."""
        _, data = blob_root
        store, impl, client, server = _pair("tcp", blob_root)
        try:
            assert read_all(store, "movie.bin", window=2) == data
            conn = server._server._conns[0]
            # 3 MiB / 512 KiB chunks, all above the 256 KiB threshold
            assert conn.stats.sendfile_sends == 6
            assert conn.stats.sendfile_fallbacks == 0
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()

    def test_below_threshold_skips_sendfile(self, blob_root):
        """Chunks under sendfile_min_size go out as plain views."""
        _, data = blob_root
        store, impl, client, server = _pair(
            "tcp", blob_root, chunk_size=64 * 1024,
            sendfile_min_size=1 << 20)
        try:
            assert read_all(store, "movie.bin") == data
            conn = server._server._conns[0]
            assert conn.stats.sendfile_sends == 0
            assert conn.stats.sendfile_fallbacks == 0
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()

    def test_forced_fallback_byte_identity(self, blob_root):
        """With the kernel path disabled the stream copies — and the
        client-visible bytes are identical."""
        _, data = blob_root
        store, impl, client, server = _pair("tcp", blob_root)
        try:
            # prime the connection, then disable sendfile server-side
            h = store.open("movie.bin")
            store.close(h)
            conn = server._server._conns[0]
            conn.stream.sendfile_enabled = False
            assert read_all(store, "movie.bin") == data
            assert conn.stats.sendfile_sends == 0
            assert conn.stats.sendfile_fallbacks == 6
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()

    @pytest.mark.skipif(not shm_available(), reason="no usable /dev/shm")
    def test_shm_blob_larger_than_arena_slot(self, blob_root):
        """Chunks exceeding the arena slot degrade to on-wire bytes;
        the blob still arrives intact (chunk 256 KiB > slot 64 KiB)."""
        root, data = blob_root
        impl = BlobStoreImpl(root, chunk_size=256 * 1024)

        def registry():
            reg = TransportRegistry()
            reg.register(LoopbackTransport())
            reg.register(ShmTransport(slot_size=64 * 1024, slot_count=4))
            return reg

        server = ORB(ORBConfig(scheme="shm"), transports=registry())
        client = ORB(ORBConfig(scheme="shm", collocated_calls=False),
                     transports=registry())
        try:
            ref = server.activate(impl)
            store = client.string_to_object(server.object_to_string(ref))
            assert read_all(store, "movie.bin", window=2) == data
        finally:
            impl.shutdown()
            client.shutdown()
            server.shutdown()
