"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import (SUM_TOLERANCE_S, Span, SpanLog, layout,  # noqa: E402
                   self_times)

from repro.obs.events import StageEvent  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_generator_is_deterministic():
    for stream in (W.SYNC, W.ASYNC):
        a = [W.rpc_op(7, stream, i) for i in range(200)]
        assert a == [W.rpc_op(7, stream, i) for i in range(200)]
        assert a != [W.rpc_op(8, stream, i) for i in range(200)]
    bulk = [W.bulk_op(7, W.SYNC, i) for i in range(50)]
    assert bulk == [W.bulk_op(7, W.SYNC, i) for i in range(50)]
    assert all(W.BULK_MIN <= op.size <= W.BULK_MAX for op in bulk)
    assert {op.kind for op in bulk} == {"put", "fetch"}
    assert W.base_buffer(7) == W.base_buffer(7) != W.base_buffer(8)
    assert [W.event_offset(7, s) for s in range(1, 20)] == \
        [W.event_offset(7, s) for s in range(1, 20)]
    op_id = W.bulk_op_id(W.SYNC, 12345)
    assert W.bulk_op_from_id(7, op_id) == W.bulk_op(7, W.SYNC, 12345)


def test_rpc_mix_covers_every_kind_and_size_range():
    ops = [W.rpc_op(3, W.SYNC, i) for i in range(600)]
    assert {op.kind for op in ops} == {"ping", "echo", "bump"}
    sizes = [op.size for op in ops if op.kind == "echo"]
    assert min(sizes) >= W.ECHO_MIN and max(sizes) <= W.ECHO_MAX


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert e2e == [name for name, _ in run.END_TO_END]
    assert layer == [name for name, _ in run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(run.WORKLOADS)
    for name in e2e + layer:
        assert NAME.match(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)


def test_self_time_and_residual_on_a_synthetic_tree():
    # root 0..10 with children 1..3 and 2..6 (overlapping: union 1..6)
    # and a grandchild 2..3 under the second child
    spans = [Span("root", 0.0, 10.0, -1, 0),
             Span("a", 1.0, 3.0, 0, 0),
             Span("b", 2.0, 6.0, 0, 0),
             Span("c", 2.0, 3.0, 2, 0),
             Span("late", 9.0, 12.0, 0, 0)]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2, 3, 1, 3])


def _ev(stage, duration):
    return StageEvent(stage=stage, duration_s=duration)


def test_layout_clips_to_the_call_and_never_overlaps():
    # server-wait started 2 s before the call; the reply stages arrive
    # late (re-emitted together just before demarshal)
    events = [(1.5, _ev("marshal", 0.5)),
              (2.0, _ev("control-send", 0.5)),
              (2.0, _ev("deposit-send", 0.0)),
              (6.0, _ev("server-wait", 5.0)),
              (6.0, _ev("deposit-recv", 1.0)),
              (7.0, _ev("demarshal", 0.5))]
    children, clipped = layout(1.0, 8.0, events)
    assert [c[0] for c in children] == [e.stage for _, e in events]
    ends = 1.0
    for _, start, end in children:
        assert 1.0 <= start <= end <= 8.0
        assert start >= ends - 1e-12
        ends = end
    total = sum(end - start for _, start, end in children)
    assert total + clipped == pytest.approx(7.5)
    assert clipped == pytest.approx(2.0)


def test_stages_plus_residual_equal_the_call():
    log = SpanLog()
    log.add_op("orb.invoke_sync", 1.0, 8.0,
               [(1.5, _ev("marshal", 0.5)), (6.0, _ev("server-wait", 5.0)),
                (7.0, _ev("demarshal", 0.5))])
    log.add_op("orb.invoke_sync", 10.0, 11.0, [])
    assert log.max_sum_error_s < 1e-9
    totals = log.layer_totals()
    root = totals["orb.invoke_sync"]
    stages = sum(row["total_s"] for name, row in totals.items()
                 if name != "orb.invoke_sync")
    assert stages + root["self_s"] == pytest.approx(root["total_s"])
    assert [s.parent for s in log.spans] == [-1, 0, 0, 0, -1]


def test_stage_time_that_does_not_fit_the_call_fails_the_check():
    # the reply stages' overlap with the caller's is allowed ...
    log = SpanLog()
    log.add_op("orb.invoke_sync", 1.0, 3.0,
               [(1.5, _ev("marshal", 0.5)), (2.5, _ev("server-wait", 4.0)),
                (3.0, _ev("demarshal", 0.5))])
    assert log.max_sum_error_s < 1e-9
    assert log.clipped_s == pytest.approx(3.0)
    # ... but a marshal longer than the call, or a stage reported twice,
    # is stage time the call cannot hold
    for events in ([(1.5, _ev("marshal", 2.0)), (3.0, _ev("demarshal", 0.5))],
                   [(1.5, _ev("marshal", 0.5)), (2.5, _ev("demarshal", 0.5)),
                    (2.9, _ev("demarshal", 0.5))]):
        log = SpanLog()
        log.add_op("orb.invoke_sync", 1.0, 3.0, events)
        assert log.max_sum_error_s > SUM_TOLERANCE_S


def test_end_to_end_figures_cover_the_whole_window():
    # 10 s: eight calm seconds (100 ops, 1 ms) and two stalled ones
    # (50 ops, 10 ms); the stalls are 100 of 900 latency samples, so
    # they set p99 and take their share of the rate
    tally = run.Tally()
    for sec in range(10):
        n, lat = (50, 0.010) if sec in (3, 7) else (100, 0.001)
        for i in range(n):
            t1 = sec + (i + 1) / (n + 1)
            tally.add(t1 - lat, t1, True, 10)
    delta = {"cpu_s": 0.9, "srv.cpu_s": 0.0}
    after = {"maxrss_kb": 1024, "srv.maxrss_kb": 1024}
    m = run.end_to_end(tally, 10.0, delta, after, [1.0, 2.0, 3.0])
    assert m["ops_per_s"] == pytest.approx(90.0)
    assert m["payload_mb_per_s"] == pytest.approx(900 / 1e6)
    assert m["latency_p50_ms"] == pytest.approx(1.0)
    assert m["latency_p99_ms"] == pytest.approx(10.0)
    assert m["cpu_ms_per_op"] == pytest.approx(1.0)
    assert m["rss_peak_mb"] == pytest.approx(2.0)
    assert m["setup_s"] == 2.0


def test_pubsub_deliveries_are_latency_samples():
    tally = run.Tally()
    tally.add(1.0, 1.004, True, 40, receipts=[1.001, 1.002, 1.003, 1.004])
    assert tally.ok == 1 and tally.ends == [1.004]
    assert tally.lat == pytest.approx([0.001, 0.002, 0.003, 0.004])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_wrong_servant_drives_failed_ratio_above_zero(workload):
    record = run.run(workload, seed=5, seconds=1.0, trace=False, fault=True)
    result = record["result"]
    assert result["attempted"] > 0
    assert result["failed"] > 0
    assert not result["correct"]


def test_correct_servant_reports_no_failures():
    record = run.run("rpc_small", seed=5, seconds=1.0, trace=False)
    assert record["result"]["failed"] == 0
    assert record["result"]["correct"]
