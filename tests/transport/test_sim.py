"""SimTransport tests: real ORB traffic against modelled 2003 time."""

import pytest

from repro.orb import ORB, ORBConfig
from repro.simnet import (GIGABIT_ETHERNET, PENTIUM_II_400, OrbCostConfig,
                          measure_corba_request, standard_stack,
                          zero_copy_stack)
from repro.transport.base import TransportRegistry
from repro.transport.sim import SimClock, SimTransport


def _orb_pair_over_sim(test_api, store_impl, stack, zero_copy,
                       generic_loop=False, collector=None):
    clock = SimClock(PENTIUM_II_400)
    transport = SimTransport(clock=clock, stack=stack)
    reg = TransportRegistry()
    reg.register(transport)
    cfg = ORBConfig(scheme="sim", zero_copy=zero_copy,
                    generic_loop=generic_loop, collocated_calls=False)
    server = ORB(cfg, transports=reg, sink=clock)
    client = ORB(cfg, transports=reg, sink=clock)
    if collector is not None:
        server.enable_tracing(distributed=True, collector=collector,
                              trace_seed=1)
        client.enable_tracing(distributed=True, collector=collector,
                              trace_seed=2)
    ref = server.activate(store_impl)
    stub = client.string_to_object(server.object_to_string(ref))
    return stub, clock, client, server


class TestSimClock:
    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(100, "a")
        clock.advance(50, "a")
        clock.advance(25, "b")
        assert clock.now_ns == 175
        assert clock.charges == {"a": 150, "b": 25}

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_marshal_hook_charges_loop_rate(self):
        clock = SimClock(PENTIUM_II_400)
        clock.on_bytes("marshal", 1000)
        assert clock.now_ns == int(
            1000 * PENTIUM_II_400.marshal_loop_ns_per_byte)

    def test_reference_is_free(self):
        clock = SimClock()
        clock.on_bytes("reference", 1 << 20)
        clock.on_bytes("deposit-send", 1 << 20)
        assert clock.now_ns == 0


class TestRealOrbOverSimTransport:
    """The consistency bridge: the real ORB over SimTransport must agree
    with the pure cost model (same mechanism, two code paths)."""

    SIZE = 1 << 20

    def _measure_real(self, test_api, store_impl, stack, zero_copy,
                      generic_loop=False):
        from repro.core import OctetSequence, ZCOctetSequence
        stub, clock, client, server = _orb_pair_over_sim(
            test_api, store_impl, stack, zero_copy, generic_loop)
        try:
            payload = (ZCOctetSequence.from_data(bytes(self.SIZE))
                       if zero_copy else OctetSequence(bytes(self.SIZE)))
            before = clock.now_ns
            if zero_copy:
                stub.put(payload)
            else:
                stub.put_std(payload)
            return clock.now_ns - before
        finally:
            client.shutdown()
            server.shutdown()

    def test_std_orb_matches_cost_model(self, test_api, store_impl):
        real_ns = self._measure_real(test_api, store_impl,
                                     standard_stack(), zero_copy=False,
                                     generic_loop=True)
        model = measure_corba_request(
            PENTIUM_II_400, GIGABIT_ETHERNET, self.SIZE, standard_stack(),
            OrbCostConfig(zero_copy=False))
        assert real_ns == pytest.approx(model.elapsed_ns, rel=0.25)

    def test_zc_orb_matches_cost_model(self, test_api, store_impl):
        real_ns = self._measure_real(test_api, store_impl,
                                     zero_copy_stack(), zero_copy=True)
        model = measure_corba_request(
            PENTIUM_II_400, GIGABIT_ETHERNET, self.SIZE,
            zero_copy_stack(), OrbCostConfig(zero_copy=True))
        assert real_ns == pytest.approx(model.elapsed_ns, rel=0.25)

    def test_zc_vs_std_ratio_visible_through_real_orb(self, test_api,
                                                      store_impl):
        """The 10x headline must appear with the REAL ORB running, not
        just in the closed-form model."""
        slow = self._measure_real(test_api, store_impl, standard_stack(),
                                  zero_copy=False, generic_loop=True)
        fresh_impl = type(store_impl)()
        fast = self._measure_real(test_api, fresh_impl, zero_copy_stack(),
                                  zero_copy=True)
        assert slow / fast > 6.0


class TestTracedSimTransport:
    """Distributed tracing over the modelled transport: the stage
    record must match loopback's, and observing must not change the
    modelled time (the tracer is a read-only lens on 2003)."""

    SIZE = 1 << 16

    def _run_traced(self, test_api, store_impl, collector):
        from repro.core import ZCOctetSequence
        stub, clock, client, server = _orb_pair_over_sim(
            test_api, store_impl, zero_copy_stack(), zero_copy=True,
            collector=collector)
        try:
            before = clock.now_ns
            stub.put(ZCOctetSequence.from_data(bytes(self.SIZE)))
            return clock.now_ns - before
        finally:
            client.shutdown()
            server.shutdown()

    def test_sim_client_stages_match_loopback(self, test_api,
                                              store_impl):
        """A traced simnet invocation records the same six Fig. 7
        stages, in the same order, as the loopback transport."""
        from repro.obs import SpanCollector

        sim_col = SpanCollector()
        self._run_traced(test_api, store_impl, sim_col)

        loop_col = SpanCollector()
        server = ORB(ORBConfig(scheme="loop"))
        client = ORB(ORBConfig(scheme="loop", collocated_calls=False))
        server.enable_tracing(distributed=True, collector=loop_col)
        client.enable_tracing(distributed=True, collector=loop_col)
        try:
            from repro.core import ZCOctetSequence
            impl = type(store_impl)()
            ref = server.activate(impl)
            stub = client.string_to_object(server.object_to_string(ref))
            stub.put(ZCOctetSequence.from_data(bytes(self.SIZE)))
        finally:
            client.shutdown()
            server.shutdown()

        def client_stages(col):
            span = next(s for s in col.spans if s.kind == "client")
            return [e.stage for e in span.stages]

        assert client_stages(sim_col) == client_stages(loop_col) == [
            "marshal", "control-send", "deposit-send", "server-wait",
            "deposit-recv", "demarshal"]
        sim_span = next(s for s in sim_col.spans if s.kind == "client")
        assert sim_span.deposit_bytes_sent == self.SIZE

    def test_tracing_does_not_distort_modelled_time(self, test_api,
                                                    store_impl):
        """The tracer splits one gather-write into per-path stage
        spans; the sim must still charge the cost model ONCE for the
        batch total.  The only honest cost of tracing is the ~40-byte
        service context riding the control message — if the split
        double-charged the 64 KiB deposit the delta would be tens of
        microseconds, not a handful of control bytes."""
        from repro.core import ZCOctetSequence
        from repro.obs import SpanCollector

        stub, clock, client, server = _orb_pair_over_sim(
            test_api, store_impl, zero_copy_stack(), zero_copy=True)
        try:
            before = clock.now_ns
            stub.put(ZCOctetSequence.from_data(bytes(self.SIZE)))
            plain_ns = clock.now_ns - before
        finally:
            client.shutdown()
            server.shutdown()

        traced_ns = self._run_traced(test_api, type(store_impl)(),
                                     SpanCollector())
        overhead_ns = traced_ns - plain_ns
        assert 0 <= overhead_ns < 2000
