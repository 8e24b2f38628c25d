"""Per-layer replays for the traced run: cdr, giop and transport.

Each timed operation is described as a :class:`Replay`: the values its
request and reply carry, with their TypeCodes, and the operation name.
The functions here push those values through each layer's public
functions on their own, outside the ORB, and return mean times:

* cdr: ``get_marshaller(tc)`` with ``CDREncoder``/``CDRDecoder``, zero-
  copy payloads registered as deposits exactly as on the wire;
* giop: ``encode_message`` and ``decode_header`` + ``decode_body`` on
  the resulting bodies;
* transport: the control messages and the bulk payloads over a
  ``TCPStream`` pair the benchmark owns.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.cdr import CDRDecoder, CDREncoder, MarshalContext, get_marshaller
from repro.core.buffers import BufferPool
from repro.core.direct_deposit import DepositRegistry
from repro.giop import (GIOP_HEADER_SIZE, ReplyHeader, ReplyStatus,
                        RequestHeader, body_offset_for, decode_body,
                        decode_header, encode_message)
from repro.transport.tcp import TCPStream

_KEY = b"perfbench-object"


@dataclass
class Replay:
    """One operation as the layers below the ORB see it."""

    operation: str
    request: List[Tuple[object, object]] = field(default_factory=list)
    #: None for a oneway operation (no reply message)
    reply: List[Tuple[object, object]] | None = field(default_factory=list)


@dataclass
class _Body:
    data: bytes
    logical: int          #: chunk-plan bytes (the ORB's body size)
    copied: int           #: bytes the encoder copied into its buffers
    deposits: List[Tuple[int, memoryview]]   #: (deposit id, payload)


def _encode(values, offset: int) -> _Body:
    ctx = MarshalContext(registry=DepositRegistry())
    enc = CDREncoder(offset=offset)
    for tc, value in values:
        get_marshaller(tc).marshal(enc, value, ctx)
    return _Body(enc.getvalue(), enc.nbytes, enc.copied_nbytes,
                 ctx.registry.drain())


def _decode(values, body: _Body, offset: int, pool: BufferPool) -> float:
    """Demarshal ``body``; returns the seconds spent.  Deposits are
    pre-landed in pool buffers first, as the connection layer would."""
    ctx = MarshalContext()
    for dep_id, view in body.deposits:
        buf = pool.acquire(view.nbytes)
        buf.set_length(view.nbytes)
        ctx.deposits[dep_id] = buf
    dec = CDRDecoder(body.data, offset=offset)
    t0 = time.perf_counter()
    out = [get_marshaller(tc).demarshal(dec, ctx) for tc, _ in values]
    elapsed = time.perf_counter() - t0
    for value in out:
        release = getattr(value, "release", None)
        if release is not None:
            release()
    return elapsed


def _headers(replay: Replay, request_id: int):
    request = RequestHeader(request_id=request_id, object_key=_KEY,
                            operation=replay.operation,
                            response_expected=replay.reply is not None)
    reply = ReplyHeader(request_id=request_id,
                        reply_status=ReplyStatus.NO_EXCEPTION) \
        if replay.reply is not None else None
    return [(h, -(-body_offset_for(h) // 8) * 8)
            for h in (request, reply) if h is not None]


def cdr_and_giop(replays: Sequence[Replay]) -> Tuple[Dict[str, float],
                                                     List[List[bytes]],
                                                     List[memoryview]]:
    """Replay every op through cdr and giop.

    Returns the per-op means, each op's encoded GIOP messages (for the
    transport replay) and every zero-copy payload it deposited.
    """
    pool = BufferPool()
    marshal = demarshal = encode = decode = 0.0
    logical = copied = 0
    messages: List[List[bytes]] = []
    payloads: List[memoryview] = []
    for n, replay in enumerate(replays, start=1):
        parts = [replay.request] + \
            ([replay.reply] if replay.reply is not None else [])
        op_msgs = []
        for (header, offset), values in zip(_headers(replay, n), parts):
            t0 = time.perf_counter()
            body = _encode(values, offset)
            marshal += time.perf_counter() - t0
            demarshal += _decode(values, body, offset, pool)
            logical += body.logical
            copied += body.copied
            payloads += [view for _, view in body.deposits]
            t0 = time.perf_counter()
            wire = encode_message(header, body.data)
            t1 = time.perf_counter()
            msg = decode_body(decode_header(wire[:GIOP_HEADER_SIZE]),
                              wire[GIOP_HEADER_SIZE:])
            decode += time.perf_counter() - t1
            encode += t1 - t0
            if msg.body_header.request_id != n:
                raise AssertionError("giop replay decoded the wrong header")
            op_msgs.append(wire)
        messages.append(op_msgs)
    ops = max(1, len(replays))
    return ({"cdr.marshal_us": marshal / ops * 1e6,
             "cdr.demarshal_us": demarshal / ops * 1e6,
             "cdr.copied_ratio": copied / logical if logical else 0.0,
             "giop.encode_us": encode / ops * 1e6,
             "giop.decode_us": decode / ops * 1e6},
            messages, payloads)


def _stream_pair() -> Tuple[TCPStream, TCPStream]:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as lsock:
        lsock.bind(("127.0.0.1", 0))
        lsock.listen(1)
        client = socket.create_connection(lsock.getsockname())
        server, _ = lsock.accept()
    return TCPStream(client, "bench-a"), TCPStream(server, "bench-b")


def transport(messages: Sequence[Sequence[bytes]],
              payloads: Sequence[memoryview]) -> Dict[str, float]:
    """Control messages one by one (send, then read on the peer), and
    the bulk payloads pipelined to a reader thread."""
    a, b = _stream_pair()
    try:
        sendv = 0.0
        for op_msgs in messages:
            for wire in op_msgs:
                t0 = time.perf_counter()
                a.sendv([wire])
                b.recv_exact(len(wire))
                sendv += time.perf_counter() - t0
        deposit_s = 0.0
        total = sum(p.nbytes for p in payloads)
        if total:
            land = memoryview(bytearray(max(p.nbytes for p in payloads)))

            def reader() -> None:
                for p in payloads:
                    b.recv_into(land[:p.nbytes])

            th = threading.Thread(target=reader, name="bench-land")
            t0 = time.perf_counter()
            th.start()
            for p in payloads:
                a.sendv([p])
            th.join()
            deposit_s = time.perf_counter() - t0
    finally:
        a.close()
        b.close()
    ops = max(1, len(messages))
    return {"transport.sendv_us": sendv / ops * 1e6,
            "transport.deposit_us_per_mb":
                deposit_s * 1e6 / (total / 1e6) if total else 0.0}
