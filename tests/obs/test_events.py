"""Event sinks and stage spans: the ORB's one observation channel."""

import time

import pytest

from repro.core import ZCOctetSequence
from repro.obs import (ByteEvent, CallbackSink, CompositeSink, EventSink,
                       NullSink, RecordingSink, StageEvent, WireEvent,
                       stage_span)
from repro.obs.events import _NULL_SPAN
from repro.orb import ORB, ORBConfig
from tests.conftest import make_store_impl


def test_stage_span_measures_with_injected_clock(clock):
    sink = RecordingSink(clock=clock)
    with sink.stage("marshal") as span:
        clock.advance(0.25)
        span.add_bytes(100)
        span.add_bytes(28)
    (event,) = sink.events
    assert event == StageEvent(stage="marshal", duration_s=0.25, nbytes=128)


def test_stage_span_emits_even_on_error(clock):
    sink = RecordingSink(clock=clock)
    with pytest.raises(RuntimeError):
        with sink.stage("control-send") as span:
            clock.advance(0.5)
            span.add_bytes(7)
            raise RuntimeError("wire died")
    (event,) = sink.events
    assert event.stage == "control-send"
    assert event.duration_s == 0.5
    assert event.nbytes == 7


def test_stage_span_without_sink_is_shared_noop():
    # the hot path must not allocate per message
    a = stage_span(None, "marshal")
    b = stage_span(None, "demarshal")
    assert a is b is _NULL_SPAN
    with a as span:
        span.add_bytes(10)  # swallowed


def test_on_bytes_adapter_emits_byte_events():
    sink = RecordingSink()
    sink.on_bytes("marshal", 42)
    sink.on_bytes("deposit-send", 4096)
    assert sink.events == [ByteEvent(kind="marshal", nbytes=42),
                           ByteEvent(kind="deposit-send", nbytes=4096)]


def test_recording_sink_filters_and_clears():
    sink = RecordingSink()
    sink.emit(ByteEvent(kind="marshal", nbytes=1))
    sink.emit(StageEvent(stage="marshal", duration_s=0.0))
    sink.emit(WireEvent(direction="send", msg_type="Request", size=10))
    assert len(sink.of_type(StageEvent)) == 1
    assert len(sink.of_type(ByteEvent)) == 1
    sink.clear()
    assert sink.events == []


def test_composite_sink_fans_out_and_uses_first_clock(clock):
    a = RecordingSink(clock=clock)
    b = RecordingSink()
    combo = CompositeSink([a, b])
    assert combo.clock is clock
    combo.emit(ByteEvent(kind="marshal", nbytes=3))
    assert a.events == b.events == [ByteEvent(kind="marshal", nbytes=3)]
    with combo.stage("marshal"):
        clock.advance(1.0)
    assert a.of_type(StageEvent)[0].duration_s == 1.0
    assert b.of_type(StageEvent)[0].duration_s == 1.0


def test_callback_sink_forwards_only_byte_events():
    calls = []
    sink = CallbackSink(lambda kind, n: calls.append((kind, n)))
    sink.emit(ByteEvent(kind="marshal-bulk", nbytes=9))
    sink.emit(StageEvent(stage="marshal", duration_s=0.1, nbytes=5))
    sink.emit(WireEvent(direction="recv", msg_type="Reply", size=1))
    assert calls == [("marshal-bulk", 9)]


def test_null_and_base_sinks_discard():
    for sink in (NullSink(), EventSink()):
        sink.emit(ByteEvent(kind="marshal", nbytes=1))
        sink.on_bytes("marshal", 1)  # no error, no state


def test_wire_stages_defaults_true_composes_any():
    """wire_stages governs whether the connection layer splits the
    control/deposit gather-write; a composite wants the split iff any
    member does, and the flight recorder never does."""
    from repro.obs import FlightRecorder

    assert EventSink().wire_stages is True
    assert NullSink().wire_stages is True
    rec = FlightRecorder()
    assert rec.wire_stages is False
    assert CompositeSink([rec]).wire_stages is False
    assert CompositeSink([rec, NullSink()]).wire_stages is True
    assert CompositeSink([]).wire_stages is False


@pytest.mark.parametrize("scheme", ["loop", "tcp"])
def test_deposit_byte_events_reach_the_sink(test_api, scheme):
    """A zc put and a zc get over a real ORB pair: each side's sink sees
    exactly one deposit-send and one deposit-recv ByteEvent per
    deposit, with the payload size."""
    size = 1 << 20
    client_sink, server_sink = RecordingSink(), RecordingSink()
    server = ORB(ORBConfig(scheme=scheme), sink=server_sink)
    client = ORB(ORBConfig(scheme=scheme, collocated_calls=False),
                 sink=client_sink)

    def deposits(sink):
        return sorted((e.kind, e.nbytes) for e in sink.of_type(ByteEvent)
                      if e.kind.startswith("deposit-"))

    expected = [("deposit-recv", size), ("deposit-send", size)]
    try:
        stub = client.string_to_object(server.object_to_string(
            server.activate(make_store_impl(test_api))))
        stub.put(ZCOctetSequence.from_data(bytes(size)))
        assert len(stub.get(size)) == size
        # the server reports its reply's deposit after the send
        # returns, which can be after the client already has the reply
        deadline = time.monotonic() + 5.0
        while (len(deposits(server_sink)) < len(expected)
               and time.monotonic() < deadline):
            time.sleep(0.01)
    finally:
        client.shutdown()
        server.shutdown()
    assert deposits(client_sink) == expected
    assert deposits(server_sink) == expected
