"""The Fig. 7 stage names and the per-invocation breakdown record."""

import pytest

from repro.obs import (CLIENT_STAGES, STAGE_CONTROL_SEND, STAGE_DEMARSHAL,
                       STAGE_DEPOSIT_RECV, STAGE_DEPOSIT_SEND, STAGE_MARSHAL,
                       STAGE_RECV_WAIT, STAGE_SERVER_WAIT,
                       InvocationBreakdown, Span, SpanEngine, StageEvent,
                       TracingInterceptor)


def _ev(stage, dur=0.0, nbytes=0):
    return StageEvent(stage=stage, duration_s=dur, nbytes=nbytes)


def test_client_stages_are_the_papers_six_in_wire_order():
    assert CLIENT_STAGES == ("marshal", "control-send", "deposit-send",
                             "server-wait", "deposit-recv", "demarshal")


def test_timer_groups_stages_between_begin_and_commit(clock):
    """The span engine groups the stages emitted between a client span's
    start and finish into one breakdown."""
    tracer = TracingInterceptor(clock=clock)
    engine = SpanEngine(clock=clock)
    engine.listeners.append(tracer.record_span)
    active = engine.start_client_span("put", engine.begin_invocation())
    for stage in CLIENT_STAGES:
        engine.emit(_ev(stage, dur=0.1, nbytes=10))
    active.span.request_id = 7
    active.reply_status = "NO_EXCEPTION"
    engine.finish(active)

    rec = tracer.last
    assert rec.operation == "put"
    assert rec.request_id == 7
    assert rec.reply_status == "NO_EXCEPTION"
    assert [e.stage for e in rec.stages] == list(CLIENT_STAGES)
    assert rec.in_paper_order
    assert rec.total_s == sum(e.duration_s for e in rec.stages)


def test_records_ring_is_bounded(clock):
    tracer = TracingInterceptor(clock=clock, keep=3)
    for i in range(5):
        tracer.record_span(Span(trace_id="1" * 32, span_id="1" * 16,
                                parent_id=None, name=f"op{i}",
                                kind="client"), "NO_EXCEPTION")
    assert [r.operation for r in tracer.records] == ["op2", "op3", "op4"]


def test_breakdown_aggregates_repeated_stages():
    rec = InvocationBreakdown(operation="put", stages=[
        _ev(STAGE_CONTROL_SEND, dur=0.1, nbytes=50),
        _ev(STAGE_CONTROL_SEND, dur=0.2, nbytes=30),
        _ev(STAGE_DEPOSIT_SEND, dur=0.3, nbytes=4096),
    ])
    assert rec.duration_s(STAGE_CONTROL_SEND) == pytest.approx(0.3)
    assert rec.nbytes(STAGE_CONTROL_SEND) == 80
    assert rec.nbytes(STAGE_DEPOSIT_SEND) == 4096
    assert rec.duration_s(STAGE_DEMARSHAL) == 0.0


def test_paper_order_check_detects_inversions():
    ok = InvocationBreakdown(operation="x", stages=[
        _ev(STAGE_MARSHAL), _ev(STAGE_SERVER_WAIT), _ev(STAGE_DEMARSHAL)])
    assert ok.in_paper_order
    bad = InvocationBreakdown(operation="x", stages=[
        _ev(STAGE_DEMARSHAL), _ev(STAGE_MARSHAL)])
    assert not bad.in_paper_order
    # non-client stages never affect the check
    mixed = InvocationBreakdown(operation="x", stages=[
        _ev(STAGE_RECV_WAIT), _ev(STAGE_MARSHAL), _ev(STAGE_DEPOSIT_RECV)])
    assert mixed.in_paper_order


def test_as_dict_is_json_shaped():
    rec = InvocationBreakdown(operation="put", request_id=3,
                              reply_status="NO_EXCEPTION",
                              stages=[_ev(STAGE_MARSHAL, 0.5, 8)])
    d = rec.as_dict()
    assert d["operation"] == "put"
    assert d["request_id"] == 3
    assert d["total_s"] == 0.5
    assert d["stages"] == [{"stage": "marshal", "duration_s": 0.5,
                            "nbytes": 8}]
