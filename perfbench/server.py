"""The benchmark's server process: servants and subscriber ORBs.

``run.py`` starts it as ``python perfbench/server.py --ack-fd N --cpus
LIST`` (pinned to the CPUs the generator leaves free) and
talks to it in JSON lines: one command on stdin, one reply on stdout.
Commands:

* ``{"op": "setup", "workload": ..., "seed": ..., "fault": ...,
  "tmp": dir}`` builds the workload's servants (``rpc_small``: an
  ``Rpc`` servant on a tcp ORB; ``bulk_tcp``: a ``Bulk`` servant on a
  tcp ORB; ``pubsub_fanout``: four ``Subscriber`` servants, each on its
  own shm ORB) and answers ``{"iors": [...]}``;
* ``{"op": "snap"}`` answers the process's counters (CPU time, peak
  RSS, servant time, pool and flight-recorder counts, failed checks);
* ``{"op": "quit"}`` shuts every ORB down and exits, answering nothing.

Servants verify what they receive against the seeded inputs of
:mod:`workloads`.  Subscribers acknowledge each event on the pipe
``--ack-fd`` with one 24-byte record, outside the ORB.  ``fault: true``
makes every servant and subscriber deliberately wrong now and then;
the benchmark's own tests use it to prove that failures are counted.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import struct
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402

#: subscriber index, ok flag, event seq, receipt time (perf_counter)
ACK = struct.Struct("<IIQd")
#: a faulty servant misbehaves on every FAULT_EVERY-th call
FAULT_EVERY = 7


class Meter:
    """Servant busy time and call count, shared by the worker threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.busy_s = 0.0
        self.calls = 0
        self.bad = 0

    def add(self, t0: float, ok: bool = True) -> int:
        dt = time.perf_counter() - t0
        with self._lock:
            self.busy_s += dt
            self.calls += 1
            self.bad += not ok
            return self.calls


def make_servants(api, seed: int, fault: bool, meter: Meter):
    base = W.base_buffer(seed)

    def wrong(n: int) -> bool:
        return fault and n % FAULT_EVERY == 0

    class RpcImpl(api.PB_Rpc_skel):
        def ping(self):
            meter.add(time.perf_counter())

        def echo(self, data):
            t0 = time.perf_counter()
            out = bytearray(data.view())
            if wrong(meter.calls + 1) and out:
                out[0] ^= 0xFF
            meter.add(t0)
            return out

        def bump(self, r, suffix):
            t0 = time.perf_counter()
            name, ident, value, tags = W.bump_expected(
                r.name, r.id, r.value, [int(t) for t in r.tags], suffix)
            if wrong(meter.calls + 1):
                ident += 1
            meter.add(t0)
            return api.PB_Rec(name=name, id=ident, value=value,
                              tags=list(tags))

    class BulkImpl(api.PB_Bulk_skel):
        def put(self, op_id, data):
            t0 = time.perf_counter()
            op = W.bulk_op_from_id(seed, op_id)
            view = data.view()
            ok = op.kind == "put" and W.check_samples(
                view, base, op.offset, op.size, op.samples)
            data.release()
            n = meter.add(t0, ok)
            return op.size if ok and not wrong(n) else 0

        def fetch(self, op_id, n):
            t0 = time.perf_counter()
            op = W.bulk_op_from_id(seed, op_id)
            start = op.offset + (1 if wrong(meter.calls + 1) else 0)
            meter.add(t0, op.kind == "fetch" and n == op.size)
            return memoryview(base)[start:start + n]

    return RpcImpl(), BulkImpl()


def make_subscriber(api, index: int, seed: int, fault: bool,
                    meter: Meter, ack_fd: int, ack_lock: threading.Lock):
    base = W.base_buffer(seed)
    samples = W.event_samples(seed)

    class SubscriberImpl(api.PubSub_Subscriber_skel):
        def deliver(self, topic, seq, payload):
            t0 = time.perf_counter()
            off = W.event_offset(seed, seq)
            if fault and seq % FAULT_EVERY == 0:
                off += 1
            ok = topic == W.TOPIC and W.check_samples(
                payload.view(), base, off, W.EVENT_SIZE, samples)
            t1 = time.perf_counter()
            with ack_lock:
                os.write(ack_fd, ACK.pack(index, ok, seq, t1))
            meter.add(t0, ok)

    return SubscriberImpl()


class Server:
    def __init__(self, ack_fd: int):
        self.ack_fd = ack_fd
        self.ack_lock = threading.Lock()
        self.meter = Meter()
        self.orbs = []
        self.pools = []

    def setup(self, workload: str, seed: int, fault: bool, tmp: str):
        from repro.core.buffers import BufferPool
        from repro.idl import compile_idl
        from repro.orb import ORB, ORBConfig
        api = compile_idl(W.IDL, module_name="perfbench_idl")
        if workload == "pubsub_fanout":
            from repro.services import pubsub_api
            from repro.transport.base import registry
            from repro.transport.shm import ShmTransport
            sapi = pubsub_api()
            iors = []
            for i in range(W.SUBSCRIBERS):
                reg = registry()
                reg.register(ShmTransport(directory=tmp))
                orb = self._orb(ORB, ORBConfig(scheme="shm"), BufferPool,
                                transports=reg)
                sub = make_subscriber(sapi, i, seed, fault, self.meter,
                                      self.ack_fd, self.ack_lock)
                iors.append(orb.object_to_string(orb.activate(sub)))
            return iors
        rpc, bulk = make_servants(api, seed, fault, self.meter)
        orb = self._orb(ORB, ORBConfig(scheme="tcp"), BufferPool)
        servant = rpc if workload == "rpc_small" else bulk
        return [orb.object_to_string(orb.activate(servant))]

    def _orb(self, orb_cls, config, pool_cls, **kw):
        pool = pool_cls()
        orb = orb_cls(config, pool=pool, **kw)
        self.orbs.append(orb)
        self.pools.append(pool)
        return orb

    def snap(self) -> dict:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        m = self.meter
        return {
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "maxrss_kb": ru.ru_maxrss,
            "servant_s": m.busy_s, "servant_calls": m.calls,
            "servant_bad": m.bad,
            "pool_hits": sum(p.hits for p in self.pools),
            "pool_misses": sum(p.misses for p in self.pools),
            "pool_cached_bytes": sum(p.cached_bytes for p in self.pools),
            "flightrec_total": sum(o.flightrec.recorded_total
                                   for o in self.orbs
                                   if o.flightrec is not None),
        }

    def shutdown(self) -> None:
        for orb in self.orbs:
            orb.shutdown()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--ack-fd", type=int, required=True)
    ap.add_argument("--cpus", required=True,
                    help="comma-separated CPUs this process runs on")
    args = ap.parse_args()
    # before any thread exists, so every thread inherits the affinity
    os.sched_setaffinity(0, [int(c) for c in args.cpus.split(",")])
    # the protocol owns stdout; anything else printed goes to stderr
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr
    server = Server(args.ack_fd)
    reply = {"ready": True}
    try:
        while True:
            out.write(json.dumps(reply) + "\n")
            line = sys.stdin.readline()
            if not line:
                return 0
            cmd = json.loads(line)
            if cmd["op"] == "setup":
                reply = {"iors": server.setup(cmd["workload"], cmd["seed"],
                                              cmd["fault"], cmd["tmp"])}
            elif cmd["op"] == "snap":
                reply = server.snap()
            elif cmd["op"] == "quit":
                return 0
            else:
                reply = {"error": f"unknown op {cmd['op']!r}"}
    finally:
        server.shutdown()
        os.close(args.ack_fd)


if __name__ == "__main__":
    sys.exit(main())
