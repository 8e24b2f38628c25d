"""The repository benchmark: three workloads against the real ORB.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 20 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``rpc_small`` - closed loop on tcp, two callers on one client ORB and
  one connection: a sync stub thread and an asyncio task on
  ``async_api`` stubs.  Seeded mix of ``ping()``, ``echo`` of 16 B to
  4 KiB and a struct/string ``bump``;
* ``bulk_tcp`` - closed loop, one sync caller on tcp: half
  ``put(sequence<zc_octet>)``, half ``fetch(n)``, sizes log-uniform in
  64 KiB..4 MiB;
* ``pubsub_fanout`` - a ``TopicHubImpl`` in this process publishes
  256 KiB events to four subscribers, each its own shm ORB in the
  server process, in bursts of four events (at most four in flight).

Servants and subscribers live in a second OS process
(``perfbench/server.py``).  Every operation is verified; a wrong,
failed or undelivered one counts in ``failed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and prints the per-layer metrics.  The
last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the full record (host, sample counts, drift
check, per-layer table) goes to ``.perfbench/`` in the repository root.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path[:0] = [HERE, SRC]

import workloads as W  # noqa: E402  (the benchmark's own modules)

#: set-up is repeated this many times per untraced run; setup_s is the
#: median (the last set-up is the one measured)
SETUP_REPEATS = 5
#: warm-up: at least this many calls per caller, and until the client's
#: flight-recorder ring has wrapped
WARM_CALLS = {"rpc_small": 400, "bulk_tcp": 40, "pubsub_fanout": 100}
#: a pub/sub event with no acknowledgement for this long is lost
STALL_S = 2.0
#: the drift check flags a run whose two halves differ by more than this
DRIFT_LIMIT = 0.15
#: per-layer replays cover at most this many ops of the traced window
REPLAY_OPS = {"rpc_small": 3000, "bulk_tcp": 64, "pubsub_fanout": 200}
SERVER_TIMEOUT_S = 60.0
#: a run still going after this long is stuck: kill it, exit non-zero
WATCHDOG_S = 170

END_TO_END = [("ops_per_s", "1/s"), ("payload_mb_per_s", "MB/s"),
              ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
              ("cpu_ms_per_op", "ms"), ("rss_peak_mb", "MB"),
              ("setup_s", "s")]
STAGE_METRICS = ["marshal", "control_send", "deposit_send", "server_wait",
                 "deposit_recv", "demarshal"]
PER_LAYER = (
    [("cdr.marshal_us", "us"), ("cdr.demarshal_us", "us"),
     ("cdr.copied_ratio", "ratio"),
     ("giop.encode_us", "us"), ("giop.decode_us", "us"),
     ("giop.wire_bytes_per_op", "B"),
     ("core.pool_hit_ratio", "ratio"), ("core.pool_cached_mb", "MB"),
     ("transport.sendv_us", "us"), ("transport.deposit_us_per_mb", "us/MB"),
     ("transport.deposits_per_op", "count"),
     ("transport.shm_shared_ratio", "ratio"),
     ("transport.shm_fallback_ratio", "ratio"),
     ("orb.invoke_sync_us", "us"), ("orb.invoke_async_us", "us")]
    + [(f"orb.stage.{s}_us", "us") for s in STAGE_METRICS]
    + [("orb.stage.residual_us", "us"), ("orb.stage.clipped_us", "us"),
       ("orb.stage.sum_error_us", "us"), ("orb.servant_us", "us"),
       ("orb.retries", "count"), ("orb.timeouts", "count"),
       ("orb.deposit_fallbacks", "count"),
       ("services.publish_us", "us"), ("services.delivery_lag_us", "us"),
       ("services.fanout_posts_per_event", "count"),
       ("services.fanout_fallbacks", "count"),
       ("obs.flightrec_spans_per_op", "count"),
       ("obs.trace_overhead_ratio", "ratio")])


# -- the server process -------------------------------------------------------

class ServerProc:
    """``perfbench/server.py`` as a child process, plus the ack pipe its
    subscribers write to."""

    #: processes not yet closed, for _abort
    live: set = set()

    def __init__(self, cpus: List[int]):
        self.ack_r, ack_w = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "server.py"),
                 "--ack-fd", str(ack_w),
                 "--cpus", ",".join(map(str, cpus))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                pass_fds=(ack_w,), cwd=ROOT, text=True)
        finally:
            os.close(ack_w)
        ServerProc.live.add(self.proc)
        try:
            self._read()  # {"ready": true}
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    SERVER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("server process did not answer")
        return json.loads(line)

    def call(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            ServerProc.live.discard(self.proc)
            self.proc.stdout.close()
            os.close(self.ack_r)


# -- timed results ------------------------------------------------------------

class Tally:
    """One caller's verified operations: completion time and payload
    per op, and latency samples with the time each ended."""

    def __init__(self):
        self.ends: List[float] = []
        self.sizes: List[int] = []
        self.lat: List[float] = []
        self.lat_ends: List[float] = []
        self.ok = 0
        self.failed = 0
        self.payload = 0

    def add(self, t0: float, t1: float, ok: bool, payload: int,
            receipts: Sequence[float] = ()) -> None:
        """One op started at ``t0`` and complete at ``t1``; a pub/sub
        event passes each subscriber's receipt time as ``receipts``,
        one latency sample per delivery."""
        if ok:
            self.ok += 1
            self.ends.append(t1)
            self.sizes.append(payload)
            self.payload += payload
            for t in receipts or (t1,):
                self.lat.append(t - t0)
                self.lat_ends.append(t)
        else:
            self.failed += 1

    def merge(self, other: "Tally") -> "Tally":
        out = Tally()
        for t in (self, other):
            out.lat += t.lat
            out.lat_ends += t.lat_ends
            out.ends += t.ends
            out.sizes += t.sizes
            out.ok += t.ok
            out.failed += t.failed
            out.payload += t.payload
        return out


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def client_counters(orbs) -> Dict[str, int]:
    """Client-side ConnStats summed over ``orbs``."""
    out: Dict[str, int] = {}
    for orb in orbs:
        for entry in orb.connections_snapshot():
            if entry["role"] != "client":
                continue
            for key, value in entry.items():
                if isinstance(value, int):
                    out[key] = out.get(key, 0) + value
    return out


def split_cpus() -> tuple:
    """(generator CPUs, server CPUs): the first half of this process's
    CPUs and the rest, or all of them for both on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    half = max(1, len(cpus) // 2)
    return cpus[:half], (cpus[half:] or cpus)


#: each process gets its own cores, so the generator's threads never
#: compete with the servants' for a CPU
GENERATOR_CPUS, SERVER_CPUS = split_cpus()


#: where a run's shared-memory arenas may live, in order of preference:
#: a directory of its own on /dev/shm, the program's default place (a
#: tmpfs, so event pages never go to a disk), else under .perfbench/
SHM_DIRS = [os.path.join(parent, f"perfbench-shm-{os.getpid()}")
            for parent in ("/dev/shm", OUT)]


def make_shm_dir() -> str:
    """Create the first of SHM_DIRS that can be created; teardown and
    _abort remove it."""
    for path in SHM_DIRS:
        try:
            os.makedirs(path, exist_ok=True)
            return path
        except OSError:
            continue
    raise RuntimeError(f"cannot create any of {SHM_DIRS}")


def cpu_ticks() -> tuple:
    """(steal, total) jiffies of the whole machine from /proc/stat;
    (0, 0) where there is none."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# -- workloads ----------------------------------------------------------------

class Workload:
    """Set-up, warm-up, timed loop and teardown of one workload.

    ``log`` (a :class:`spans.SpanLog`) turns on the traced variant: a
    :class:`spans.StageSink` joins the client ORB's sink chain and every
    call is recorded as a span tree.
    """

    name = ""

    def __init__(self, seed: int, fault: bool, log=None):
        self.seed = seed
        self.fault = fault
        self.log = log
        self.base = W.base_buffer(seed)
        self.server: Optional[ServerProc] = None
        self.orbs: list = []
        self.pool = None
        self.replays: list = []
        self.sink = None
        self.tmp = None

    # subclass hooks
    def connect(self, iors: List[str]) -> None:
        raise NotImplementedError

    def loop(self, deadline: float, max_calls: int, warm: bool) -> Tally:
        raise NotImplementedError

    def warmed(self) -> bool:
        rec = self.orbs[0].flightrec if self.orbs else None
        return rec is None or rec.recorded_total > len(rec.recent())

    def extra_counters(self) -> Dict[str, float]:
        return {}

    # lifecycle
    def setup(self) -> None:
        from repro.core.buffers import BufferPool
        self.tmp = make_shm_dir()
        self.server = ServerProc(SERVER_CPUS)
        iors = self.server.call(op="setup", workload=self.name,
                                seed=self.seed, fault=self.fault,
                                tmp=self.tmp)["iors"]
        self.pool = BufferPool()
        if self.log is not None:
            from spans import StageSink
            self.sink = StageSink(self.lane)
        self.connect(iors)
        calls = WARM_CALLS[self.name]
        for _ in range(50):
            tally = self.loop(float("inf"), calls, warm=True)
            if tally.failed and not self.fault:
                raise RuntimeError(f"{self.name}: warm-up call failed")
            if self.warmed():
                break
        if self.sink is not None:
            for lane in ("sync", "async"):
                self.sink.take(lane)

    def lane(self) -> str:
        return "sync"

    def teardown(self) -> None:
        for orb in self.orbs:
            orb.shutdown()
        self.orbs = []
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def counters(self) -> Dict[str, float]:
        snap = self.server.call(op="snap")
        out = {f"srv.{k}": v for k, v in snap.items()}
        out.update({f"cli.{k}": v
                    for k, v in client_counters(self.orbs).items()})
        out["cpu_s"] = cpu_s()
        out["steal_ticks"], out["total_ticks"] = cpu_ticks()
        out["maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        out["pool_hits"] = self.pool.hits
        out["pool_misses"] = self.pool.misses
        out["pool_cached_bytes"] = self.pool.cached_bytes
        out["flightrec_total"] = sum(o.flightrec.recorded_total
                                     for o in self.orbs
                                     if o.flightrec is not None)
        out.update(self.extra_counters())
        return out

    def record(self, root: str, t0: float, t1: float, lane: str) -> None:
        if self.log is not None:
            self.log.add_op(root, t0, t1, self.sink.take(lane))

    def wants_replay(self) -> bool:
        """Whether the traced run still collects ops for the per-layer
        replays (see layers.py)."""
        return self.log is not None and \
            len(self.replays) < REPLAY_OPS[self.name]


class RpcSmall(Workload):
    name = "rpc_small"

    def connect(self, iors):
        from repro.idl import compile_idl
        from repro.orb import ORB, ORBConfig, async_api
        self.api = compile_idl(W.IDL, module_name="perfbench_idl")
        orb = ORB(ORBConfig(scheme="tcp"), pool=self.pool, sink=self.sink)
        self.orbs = [orb]
        self.stub = orb.string_to_object(iors[0])
        self.astub = async_api(self.stub)
        self._sync_ident = None

    def lane(self) -> str:
        return "sync" if threading.get_ident() == self._sync_ident \
            else "async"

    def _args(self, op):
        if op.kind == "echo":
            return (self.base[op.offset:op.offset + op.size],)
        if op.kind == "bump":
            rec = self.api.PB_Rec(name=op.name, id=op.ident,
                                  value=op.value, tags=list(op.tags))
            return (rec, op.suffix)
        return ()

    def _check(self, op, args, result) -> bool:
        if op.kind == "ping":
            return result is None
        if op.kind == "echo":
            return bytes(result.view()) == args[0]
        got = (result.name, result.id, result.value,
               tuple(int(t) for t in result.tags))
        return got == W.bump_expected(op.name, op.ident, op.value,
                                           op.tags, op.suffix)

    def _replay(self, op, args, result) -> None:
        from layers import Replay
        from repro.cdr import TC_SEQ_OCTET, TC_STRING
        if op.kind == "ping":
            self.replays.append(Replay("ping", [], []))
        elif op.kind == "echo":
            self.replays.append(Replay("echo", [(TC_SEQ_OCTET, args[0])],
                                       [(TC_SEQ_OCTET, args[0])]))
        else:
            tc = self.api.PB_Rec.TYPECODE
            self.replays.append(Replay("bump", [(tc, args[0]),
                                                (TC_STRING, args[1])],
                                       [(tc, result)]))

    def loop(self, deadline, max_calls, warm):
        streams = (W.WARM_SYNC, W.WARM_ASYNC) if warm else (W.SYNC, W.ASYNC)
        tallies = {"sync": Tally(), "async": Tally()}

        def finish(lane, op, args, t0, t1, result, ok) -> None:
            ok = ok and self._check(op, args, result)
            tallies[lane].add(t0, t1, ok, op.payload_bytes)
            if not warm:
                self.record(f"orb.invoke_{lane}", t0, t1, lane)
                if ok and self.wants_replay():
                    self._replay(op, args, result)

        def sync_lane() -> None:
            self._sync_ident = threading.get_ident()
            for i in range(max_calls):
                if time.perf_counter() >= deadline:
                    break
                op = W.rpc_op(self.seed, streams[0], i)
                args = self._args(op)
                t0 = time.perf_counter()
                try:
                    result, ok = getattr(self.stub, op.kind)(*args), True
                except Exception:  # a failed call is a counted outcome
                    result, ok = None, False
                finish("sync", op, args, t0, time.perf_counter(), result, ok)

        async def async_lane() -> None:
            for i in range(max_calls):
                if time.perf_counter() >= deadline:
                    break
                op = W.rpc_op(self.seed, streams[1], i)
                args = self._args(op)
                t0 = time.perf_counter()
                try:
                    result = await getattr(self.astub, op.kind)(*args)
                    ok = True
                except Exception:  # a failed call is a counted outcome
                    result, ok = None, False
                finish("async", op, args, t0, time.perf_counter(), result,
                       ok)

        thread = threading.Thread(target=sync_lane, name="bench-sync")
        thread.start()
        try:
            asyncio.run(async_lane())
        finally:
            thread.join()
        return tallies["sync"].merge(tallies["async"])


class BulkTcp(Workload):
    name = "bulk_tcp"

    def connect(self, iors):
        from repro.idl import compile_idl
        from repro.orb import ORB, ORBConfig
        compile_idl(W.IDL, module_name="perfbench_idl")
        orb = ORB(ORBConfig(scheme="tcp"), pool=self.pool, sink=self.sink)
        self.orbs = [orb]
        self.stub = orb.string_to_object(iors[0])

    def loop(self, deadline, max_calls, warm):
        from layers import Replay
        from repro.cdr import TC_SEQ_ZC_OCTET, TC_ULONG, TC_ULONGLONG
        stream = W.WARM_SYNC if warm else W.SYNC
        tally = Tally()
        base = memoryview(self.base)
        for i in range(max_calls):
            if time.perf_counter() >= deadline:
                break
            op = W.bulk_op(self.seed, stream, i)
            op_id = W.bulk_op_id(stream, i)
            data = base[op.offset:op.offset + op.size]
            t0 = time.perf_counter()
            try:
                if op.kind == "put":
                    result = self.stub.put(op_id, data)
                else:
                    result = self.stub.fetch(op_id, op.size)
            except Exception:  # a failed call is a counted outcome
                result = None
            t1 = time.perf_counter()
            if op.kind == "put":
                ok = result == op.size
            else:
                ok = result is not None and W.check_samples(
                    result.view(), self.base, op.offset, op.size,
                    op.samples)
                if result is not None:
                    result.release()
            tally.add(t0, t1, ok, op.size)
            if not warm:
                self.record("orb.invoke_sync", t0, t1, "sync")
                if self.wants_replay():
                    if op.kind == "put":
                        self.replays.append(Replay(
                            "put", [(TC_ULONGLONG, op_id),
                                    (TC_SEQ_ZC_OCTET, data)],
                            [(TC_ULONGLONG, op.size)]))
                    else:
                        self.replays.append(Replay(
                            "fetch", [(TC_ULONGLONG, op_id),
                                      (TC_ULONG, op.size)],
                            [(TC_SEQ_ZC_OCTET, data)]))
        return tally


class PubsubFanout(Workload):
    name = "pubsub_fanout"

    def connect(self, iors):
        from server import ACK
        from repro.obs.events import CompositeSink
        from repro.orb import ORB
        from repro.services import TopicHubImpl
        self.ack = ACK
        self.hub = TopicHubImpl(slot_size=W.EVENT_SIZE, slot_count=32,
                                directory=self.tmp)
        delivery = self.hub.delivery_orb
        if self.sink is not None:
            delivery.sink = self.sink if delivery.sink is None \
                else CompositeSink([self.sink, delivery.sink])
        resolver = ORB()
        for ior in iors:
            self.hub.subscribe(W.TOPIC, resolver.string_to_object(ior))
        resolver.shutdown()
        self.orbs = [delivery]
        self.seq = 0
        self.pending = bytearray()
        self.publish_s = 0.0
        self.lag_s = 0.0

    def teardown(self):
        hub = getattr(self, "hub", None)
        if hub is not None:
            hub.destroy()
            self.hub = None
            self.orbs = []
        super().teardown()

    def extra_counters(self):
        return {"fanout_posts": self.hub.fanout_posts,
                "fanout_fallbacks": self.hub.fanout_fallbacks,
                "publish_s": self.publish_s, "lag_s": self.lag_s}

    def _acks(self, timeout: float):
        """Acks that arrive within ``timeout``, as tuples."""
        ready, _, _ = select.select([self.server.ack_r], [], [], timeout)
        if ready:
            self.pending += os.read(self.server.ack_r, 1 << 16)
        size = self.ack.size
        whole = len(self.pending) // size * size
        chunk, self.pending = self.pending[:whole], self.pending[whole:]
        return list(self.ack.iter_unpack(bytes(chunk)))

    def loop(self, deadline, max_calls, warm):
        from layers import Replay
        from repro.cdr import TC_SEQ_ZC_OCTET, TC_STRING, TC_ULONGLONG
        tally = Tally()
        base = memoryview(self.base)
        subs = W.SUBSCRIBERS
        #: seq -> [publish start, publish end, ack bitmask, ok, receipts]
        flight: Dict[int, list] = {}

        def settle(timeout: float) -> bool:
            acks = self._acks(timeout)
            for index, ok, seq, receipt in acks:
                entry = flight.get(seq)
                bit = 1 << index
                if entry is None or entry[2] & bit:
                    tally.failed += 1  # unknown or duplicate delivery
                    continue
                entry[2] |= bit
                entry[3] = entry[3] and bool(ok)
                entry[4].append(receipt)
                if entry[2] == (1 << subs) - 1:
                    del flight[seq]
                    last = max(entry[4])
                    tally.add(entry[0], last, entry[3], W.EVENT_SIZE * subs,
                              receipts=entry[4])
                    if not warm and entry[3]:
                        self.lag_s += last - entry[1]
            return bool(acks)

        def drain(limit: int) -> None:
            quiet_since = time.perf_counter()
            while len(flight) > limit:
                if settle(STALL_S):
                    quiet_since = time.perf_counter()
                elif time.perf_counter() - quiet_since >= STALL_S:
                    tally.failed += len(flight)  # undelivered
                    flight.clear()

        published = 0
        while published < max_calls and time.perf_counter() < deadline:
            if published % W.WINDOW == 0:
                # bursts of WINDOW events, each burst into an empty pipe
                drain(0)
            self.seq += 1
            seq = self.seq
            off = W.event_offset(self.seed, seq)
            payload = base[off:off + W.EVENT_SIZE]
            t0 = time.perf_counter()
            try:
                delivered = self.hub.publish(W.TOPIC, payload)
            except Exception:  # a failed publish is a counted outcome
                delivered = -1
            t1 = time.perf_counter()
            published += 1
            if delivered != subs:
                tally.failed += 1
                continue
            flight[seq] = [t0, t1, 0, True, []]
            if not warm:
                self.publish_s += t1 - t0
                self.record("services.publish", t0, t1, "sync")
                if self.wants_replay():
                    for _ in range(subs):
                        self.replays.append(Replay(
                            "deliver", [(TC_STRING, W.TOPIC),
                                        (TC_ULONGLONG, seq),
                                        (TC_SEQ_ZC_OCTET, payload)], None))
            settle(0.0)
        drain(0)
        return tally


WORKLOADS = {w.name: w for w in (RpcSmall, BulkTcp, PubsubFanout)}


# -- measurement --------------------------------------------------------------

def measured(wl: Workload, seconds: float):
    """Counters before, the timed tally, counters after, window."""
    before = wl.counters()
    start = time.perf_counter()
    tally = wl.loop(start + seconds, 1 << 60, warm=False)
    window = (max(tally.ends) if tally.ends else time.perf_counter()) \
        - start
    after = wl.counters()
    delta = {k: after[k] - before.get(k, 0) for k in after}
    delta["start"] = start
    return tally, max(window, 1e-9), delta, after


def drift(tally: Tally, start: float, window: float) -> float:
    """Relative rate change from the first to the second half."""
    mid = start + window / 2
    first = sum(1 for t in tally.ends if t < mid)
    second = len(tally.ends) - first
    return (second - first) / first if first else 0.0


def window_stats(sizes: List[int], lat: List[float],
                 seconds: float) -> Dict[str, float]:
    """Rates of the ops with payloads ``sizes`` and percentiles of the
    latency samples ``lat``, over ``seconds`` of time."""
    lat_ms = [x * 1e3 for x in lat]
    return {"ops_per_s": len(sizes) / seconds,
            "payload_mb_per_s": sum(sizes) / seconds / 1e6,
            "latency_p50_ms": percentile(lat_ms, 50),
            "latency_p99_ms": percentile(lat_ms, 99),
            "samples": len(lat)}


def end_to_end(tally, window, delta, after, setup_times) -> dict:
    ops = max(tally.ok, 1)
    whole = window_stats(tally.sizes, tally.lat, window)
    return {
        **{k: whole[k] for k in ("ops_per_s", "payload_mb_per_s",
                                 "latency_p50_ms", "latency_p99_ms")},
        "cpu_ms_per_op": (delta["cpu_s"] + delta["srv.cpu_s"]) / ops * 1e3,
        "rss_peak_mb": (after["maxrss_kb"] + after["srv.maxrss_kb"]) / 1024,
        "setup_s": statistics.median(setup_times),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(wl, tally, delta, after, log, overhead_ratio,
              layer_metrics) -> dict:
    ops = max(tally.ok + tally.failed, 1)
    roots = {"orb.invoke_sync": [], "orb.invoke_async": []}
    for s in log.spans:
        if s.parent < 0 and s.name in roots:
            roots[s.name].append(s.end - s.start)
    totals = log.layer_totals()
    m = {}
    m["giop.wire_bytes_per_op"] = (delta.get("cli.bytes_sent", 0)
                                   + delta.get("cli.bytes_received", 0)) / ops
    hits = delta["pool_hits"] + delta["srv.pool_hits"]
    misses = delta["pool_misses"] + delta["srv.pool_misses"]
    m["core.pool_hit_ratio"] = _ratio(hits, hits + misses)
    m["core.pool_cached_mb"] = (after["pool_cached_bytes"]
                                + after["srv.pool_cached_bytes"]) / 2**20
    m["transport.deposits_per_op"] = (
        delta.get("cli.deposits_sent", 0)
        + delta.get("cli.deposits_received", 0)) / ops
    shm = delta.get("cli.shm_deposits", 0)
    fallback = delta.get("cli.shm_fallbacks", 0)
    events = tally.ok + tally.failed
    m["transport.shm_shared_ratio"] = _ratio(
        delta.get("cli.shm_shared_refs", 0),
        events * W.SUBSCRIBERS if wl.name == "pubsub_fanout" else 0)
    m["transport.shm_fallback_ratio"] = _ratio(fallback, shm + fallback)
    for name, durations in roots.items():
        m[f"{name}_us"] = statistics.fmean(durations) * 1e6 \
            if durations else 0.0
    for stage in STAGE_METRICS:
        row = totals.get(stage.replace("_", "-"))
        m[f"orb.stage.{stage}_us"] = \
            row["total_s"] / log.ops * 1e6 if row and log.ops else 0.0
    root_self = sum(row["self_s"] for name, row in totals.items()
                    if name in roots or name == "services.publish")
    m["orb.stage.residual_us"] = _ratio(root_self, log.ops) * 1e6
    m["orb.stage.clipped_us"] = _ratio(log.clipped_s, log.ops) * 1e6
    m["orb.stage.sum_error_us"] = log.max_sum_error_s * 1e6
    m["orb.servant_us"] = _ratio(delta["srv.servant_s"],
                                 delta["srv.servant_calls"]) * 1e6
    m["orb.retries"] = delta.get("cli.retries", 0)
    m["orb.timeouts"] = delta.get("cli.timeouts", 0)
    m["orb.deposit_fallbacks"] = delta.get("cli.deposit_fallbacks", 0)
    m["services.publish_us"] = _ratio(delta.get("publish_s", 0.0),
                                      events) * 1e6
    m["services.delivery_lag_us"] = _ratio(delta.get("lag_s", 0.0),
                                           tally.ok) * 1e6
    m["services.fanout_posts_per_event"] = _ratio(
        delta.get("fanout_posts", 0), events)
    m["services.fanout_fallbacks"] = delta.get("fanout_fallbacks", 0)
    m["obs.flightrec_spans_per_op"] = (delta["flightrec_total"]
                                       + delta["srv.flightrec_total"]) / ops
    m["obs.trace_overhead_ratio"] = overhead_ratio
    m.update(layer_metrics)
    return m


def host_record(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_before": os.getloadavg(), "seed": seed,
            "generator_cpus": GENERATOR_CPUS, "server_cpus": SERVER_CPUS}


def run(workload: str, seed: int, seconds: float, trace: bool,
        fault: bool = False) -> dict:
    """One benchmark run; returns the full result record."""
    cls = WORKLOADS[workload]
    record = {"workload": workload, "trace": int(trace),
              "seconds": seconds, "host": host_record(seed)}
    if not trace:
        setup_times = []
        for k in range(SETUP_REPEATS):
            wl = cls(seed, fault)
            t0 = time.perf_counter()
            try:
                wl.setup()
            except BaseException:
                wl.teardown()
                raise
            setup_times.append(time.perf_counter() - t0)
            if k < SETUP_REPEATS - 1:
                wl.teardown()
        try:
            tally, window, delta, after = measured(wl, seconds)
        finally:
            wl.teardown()
        metrics = end_to_end(tally, window, delta, after, setup_times)
        units = dict(END_TO_END)
        record["setup_times_s"] = setup_times
    else:
        from layers import cdr_and_giop, transport
        from spans import SUM_TOLERANCE_S, SpanLog
        wl = cls(seed, fault)
        try:
            wl.setup()
            plain, plain_window, _, _ = measured(wl, seconds / 2)
        finally:
            wl.teardown()
        log = SpanLog()
        wl = cls(seed, fault, log=log)
        try:
            wl.setup()
            tally, window, delta, after = measured(wl, seconds / 2)
        finally:
            wl.teardown()
        layer, messages, payloads = cdr_and_giop(wl.replays)
        layer.update(transport(messages, payloads))
        overhead = (tally.ok / window) / (plain.ok / plain_window)
        metrics = per_layer(wl, tally, delta, after, log, overhead, layer)
        units = dict(PER_LAYER)
        record["layer_table"] = log.layer_totals()
        record["stage_counts"] = log.stage_counts
        record["sum_check"] = {
            "max_error_us": log.max_sum_error_s * 1e6,
            "tolerance_us": SUM_TOLERANCE_S * 1e6,
            "ok": log.max_sum_error_s <= SUM_TOLERANCE_S}
        os.makedirs(OUT, exist_ok=True)
        log.dump(os.path.join(OUT, f"spans-{workload}-{seed}.jsonl"))
    record["host"]["loadavg_after"] = os.getloadavg()
    record["host"]["shm_dir"] = wl.tmp
    # CPU time the hypervisor gave to other guests while we measured
    record["host"]["steal_ratio"] = _ratio(delta["steal_ticks"],
                                           delta["total_ticks"])
    record["samples"] = len(tally.lat)
    record["drift"] = drift(tally, delta["start"], window)
    record["drift_flagged"] = abs(record["drift"]) > DRIFT_LIMIT
    if trace:
        tally = tally.merge(plain)
    correct = tally.failed == 0 and \
        record.get("sum_check", {}).get("ok", True)
    record["result"] = {
        "correct": correct,
        "attempted": tally.ok + tally.failed,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units}}
    return record


def report(record: dict) -> None:
    """The human-readable summary printed before the result line."""
    res = record["result"]
    print(f"workload {record['workload']} trace={record['trace']} "
          f"samples={record['samples']} attempted={res['attempted']} "
          f"failed={res['failed']} failed_ratio="
          f"{res['failed'] / max(res['attempted'], 1):.6f}")
    print("host " + json.dumps(record["host"]))
    if record["drift_flagged"]:
        print(f"DRIFT: rate changed {record['drift']:+.1%} between the "
              f"halves of the timed window")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    table = record.get("layer_table")
    if table:
        print(f"  {'span':24s} {'n':>8s} {'mean_us':>10s} "
              f"{'self_us':>10s}")
        for name, row in table.items():
            label = name if "." in name else f"  {name}"
            print(f"  {label:24s} {row['n']:8d} "
                  f"{row['total_s'] / row['n'] * 1e6:10.2f} "
                  f"{row['self_s'] / row['n'] * 1e6:10.2f}")
        residual = res["metrics"]["orb.stage.residual_us"]["value"]
        print(f"  {'residual (no stage)':24s} {'':8s} {residual:10.2f} "
              f"{residual:10.2f}")


def _abort(signum, frame) -> None:
    """Stop the server processes, wait for them, and exit without a
    result line: on SIGTERM, and on SIGALRM when a call that never
    returns would hang the run."""
    why = f"run exceeded {WATCHDOG_S} s" if signum == signal.SIGALRM \
        else f"signal {signum}"
    print(f"perfbench: {why}; aborting", file=sys.stderr, flush=True)
    for proc in list(ServerProc.live):
        proc.kill()
        proc.wait()
    for path in SHM_DIRS:
        shutil.rmtree(path, ignore_errors=True)
    os._exit(3)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", action="store_true",
                    help="run against deliberately wrong servants "
                         "(self-test of the correctness checks)")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    # before any thread exists, so every thread of the run inherits it
    os.sched_setaffinity(0, GENERATOR_CPUS)
    signal.signal(signal.SIGALRM, _abort)
    signal.signal(signal.SIGTERM, _abort)
    signal.alarm(WATCHDOG_S)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 fault=args.fault)
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)
    report(record)
    print(json.dumps(record["result"]), flush=True)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
