"""Seeded inputs shared by the load generator and the server process.

Both processes rebuild the same inputs from the seed alone, so a
servant can verify what it received without the generator shipping the
expected bytes: every payload is a slice of one seeded base buffer, and
each operation's parameters are a pure function of ``(seed, stream,
index)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

IDL = """
module PB {
    struct Rec {
        string name;
        long id;
        double value;
        sequence<long> tags;
    };
    interface Rpc {
        void ping();
        sequence<octet> echo(in sequence<octet> data);
        Rec bump(in Rec r, in string suffix);
    };
    interface Bulk {
        // returns the number of bytes the servant verified (0 = bad)
        unsigned long long put(in unsigned long long op,
                               in sequence<zc_octet> data);
        sequence<zc_octet> fetch(in unsigned long long op,
                                 in unsigned long n);
    };
};
"""

KiB = 1024
MiB = 1024 * KiB

#: rpc_small: echo payloads are log-uniform in [ECHO_MIN, ECHO_MAX]
ECHO_MIN, ECHO_MAX = 16, 4 * KiB
#: bulk_tcp: payloads are log-uniform in [BULK_MIN, BULK_MAX]
BULK_MIN, BULK_MAX = 64 * KiB, 4 * MiB
#: pubsub_fanout: fixed event size, subscriber count, and events in
#: flight: the publisher sends bursts of WINDOW events and waits until
#: every subscriber has acknowledged all of them
EVENT_SIZE = 256 * KiB
SUBSCRIBERS = 4
WINDOW = 4
TOPIC = "perfbench"

#: payloads start at a seeded offset below this into the base buffer
BASE_SLACK = 256 * KiB
BASE_SIZE = BULK_MAX + BASE_SLACK
#: sampled byte positions checked per payload (plus first and last)
SAMPLES = 16

#: op streams: each caller draws from its own stream; warm-up streams
#: are disjoint from the timed ones, so warm-up never shifts the inputs
SYNC, ASYNC, WARM_SYNC, WARM_ASYNC = 0, 1, 2, 3


def base_buffer(seed: int) -> bytes:
    """The seeded byte pool every payload is sliced from."""
    return random.Random(f"base:{seed}").randbytes(BASE_SIZE)


def _rng(seed: int, workload: str, stream: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}:{index}")


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))


def sample_positions(rng: random.Random, size: int) -> List[int]:
    return [0, size - 1] + [rng.randrange(size) for _ in range(SAMPLES)]


@dataclass(frozen=True)
class RpcOp:
    kind: str          #: "ping" | "echo" | "bump"
    offset: int = 0    #: echo: slice start in the base buffer
    size: int = 0      #: echo: payload bytes
    name: str = ""     #: bump: the struct's string
    ident: int = 0
    value: float = 0.0
    tags: Tuple[int, ...] = ()
    suffix: str = ""

    @property
    def payload_bytes(self) -> int:
        """Application bytes the call carries, both directions."""
        if self.kind == "echo":
            return 2 * self.size
        if self.kind == "bump":
            return 2 * (len(self.name) + len(self.suffix) + 12
                        + 4 * len(self.tags))
        return 0


def rpc_op(seed: int, stream: int, index: int) -> RpcOp:
    rng = _rng(seed, "rpc", stream, index)
    kind = rng.choice(("ping", "echo", "bump"))
    if kind == "echo":
        size = _log_uniform(rng, ECHO_MIN, ECHO_MAX)
        return RpcOp("echo", offset=rng.randrange(BASE_SLACK), size=size)
    if kind == "bump":
        name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                       for _ in range(rng.randint(1, 48)))
        tags = tuple(rng.randint(-2**31, 2**31 - 1)
                     for _ in range(rng.randint(0, 16)))
        return RpcOp("bump", name=name, ident=rng.randint(0, 2**30),
                     value=rng.uniform(-1e6, 1e6), tags=tags,
                     suffix=f"-{index}")
    return RpcOp("ping")


def bump_expected(name: str, ident: int, value: float, tags, suffix: str):
    """What a correct ``bump`` servant returns, as a plain tuple."""
    return (name + suffix, ident + 1, value * 2.0, tuple(reversed(tags)))


@dataclass(frozen=True)
class BulkOp:
    kind: str              #: "put" | "fetch"
    offset: int
    size: int
    samples: Tuple[int, ...]


def bulk_op(seed: int, stream: int, index: int) -> BulkOp:
    rng = _rng(seed, "bulk", stream, index)
    kind = "put" if rng.random() < 0.5 else "fetch"
    size = _log_uniform(rng, BULK_MIN, BULK_MAX)
    return BulkOp(kind, offset=rng.randrange(BASE_SLACK), size=size,
                  samples=tuple(sample_positions(rng, size)))


def bulk_op_id(stream: int, index: int) -> int:
    """The op number carried on the wire: stream and index together."""
    return (stream << 40) | index


def bulk_op_from_id(seed: int, op_id: int) -> BulkOp:
    return bulk_op(seed, op_id >> 40, op_id & ((1 << 40) - 1))


def event_offset(seed: int, seq: int) -> int:
    """Where pub/sub event ``seq`` starts in the base buffer."""
    return _rng(seed, "event", 0, seq).randrange(BASE_SLACK)


def event_samples(seed: int) -> Tuple[int, ...]:
    return tuple(sample_positions(_rng(seed, "event-samples", 0, 0),
                                  EVENT_SIZE))


def check_samples(view, base: bytes, offset: int, size: int,
                  samples) -> bool:
    """Length plus sampled bytes of ``view`` against the base slice."""
    if len(view) != size:
        return False
    return all(view[p] == base[offset + p] for p in samples)
