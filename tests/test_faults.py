"""Fault-injection subsystem: schedules, adapters, injector, chaos runs."""

import pytest

from repro.cluster.scenario import Scenario, ScenarioConfig
from repro.errors import FaultError
from repro.faults import (
    ComponentRegistry,
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    Injector,
    KIND_LINK_DOWN,
    RetryPolicy,
)
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.simcore.engine import Environment
from repro.simcore.rng import RandomStreams
from repro.ssd.controller import NvmeController
from repro.ssd.latency import SsdProfile
from repro.ssd.queues import STATUS_INTERNAL_ERROR
from repro.workloads.mixes import tenants_for_ratio


# -- schedule construction ---------------------------------------------------------
class TestFaultSchedule:
    def test_fluent_builders_cover_every_kind(self):
        sched = (
            FaultSchedule()
            .link_flap("a->sw", 10.0, 5.0)
            .link_degrade("a->sw", 20.0, 5.0, scale=0.5)
            .link_loss_burst("a->sw", 30.0, 5.0, p=0.2)
            .nic_down("a", 40.0, 5.0)
            .switch_pressure("sw", 50.0, 5.0, scale=0.25)
            .ssd_latency_spike("t/ssd0", 60.0, 5.0, scale=4.0)
            .ssd_transient_error("t/ssd0", 70.0, 5.0)
            .target_crash("t", 80.0, 5.0)
            .qpair_disconnect("tenant0", 90.0)
        )
        assert len(sched) == len(FAULT_KINDS) == 9
        assert sorted({ev.kind for ev in sched}) == sorted(FAULT_KINDS)

    def test_ordered_sorts_by_time_with_stable_ties(self):
        sched = (
            FaultSchedule()
            .link_flap("b", 50.0, 1.0)
            .link_flap("a", 10.0, 1.0)
            .nic_down("c", 10.0, 1.0)  # same time as "a": insertion order wins
        )
        assert [(ev.at_us, ev.target) for ev in sched.ordered()] == [
            (10.0, "a"), (10.0, "c"), (50.0, "b"),
        ]

    def test_validation_rejects_bad_events(self):
        with pytest.raises(FaultError):
            FaultEvent(at_us=-1.0, kind=KIND_LINK_DOWN, target="a")
        with pytest.raises(FaultError):
            FaultEvent(at_us=0.0, kind="volcano", target="a")
        with pytest.raises(FaultError):
            FaultEvent(at_us=0.0, kind=KIND_LINK_DOWN, target="")
        with pytest.raises(FaultError):
            FaultSchedule().link_degrade("a", 0.0, 1.0, scale=0.0)
        with pytest.raises(FaultError):
            FaultSchedule().link_loss_burst("a", 0.0, 1.0, p=1.5)
        with pytest.raises(FaultError):
            FaultSchedule().ssd_latency_spike("s", 0.0, 1.0, scale=0.5)
        with pytest.raises(FaultError):
            FaultSchedule().target_crash("t", 0.0, 0.0)

    def test_params_are_canonical(self):
        ev = FaultSchedule().add(KIND_LINK_DOWN, "a", 1.0, 2.0, zeta=1.0, alpha=2.0).events[0]
        assert ev.params == (("alpha", 2.0), ("zeta", 1.0))
        assert ev.param("zeta") == 1.0
        assert ev.param("missing", 7.0) == 7.0


# -- registry ----------------------------------------------------------------------
class TestComponentRegistry:
    def test_add_get_names(self):
        reg = ComponentRegistry()
        reg.add("link", "a->sw", object())
        reg.add("link", "sw->a", object())
        assert reg.names("link") == ["a->sw", "sw->a"]
        assert len(reg) == 2

    def test_duplicate_and_unknown_raise(self):
        reg = ComponentRegistry()
        reg.add("nic", "a", object())
        with pytest.raises(FaultError):
            reg.add("nic", "a", object())
        with pytest.raises(FaultError, match="registered: \\['a'\\]"):
            reg.get("nic", "b")


# -- adapters against live components ----------------------------------------------
def _injector(env, sched, registry, seed=3):
    return Injector(env, sched, registry, rng=RandomStreams(seed).stream("faults/loss"))


class TestAdapters:
    def test_link_flap_downs_link_then_restores(self):
        env = Environment()
        link = Link(env, rate_gbps=10.0, propagation_us=1.0, queue_packets=4, name="a->sw")
        link.connect(lambda packet: None)
        reg = ComponentRegistry()
        reg.add("link", "a->sw", link)
        inj = _injector(env, FaultSchedule().link_flap("a->sw", 10.0, 20.0), reg)
        inj.start()

        env.run(until=11.0)
        assert not link.up
        link.send(Packet(src="a", dst="b", conn_id=1, kind="data", length=100))
        assert link.stats.fault_drops == 1 and link.stats.dropped == 1
        env.run(until=31.0)
        assert link.up
        link.send(Packet(src="a", dst="b", conn_id=1, kind="data", length=100))
        assert link.stats.fault_drops == 1  # delivered this time
        assert inj.faults_injected == 1 and inj.faults_reverted == 1

    def test_link_degrade_scales_rate_and_reverts(self):
        env = Environment()
        link = Link(env, rate_gbps=10.0, propagation_us=1.0, queue_packets=4, name="l")
        base = link.rate
        reg = ComponentRegistry()
        reg.add("link", "l", link)
        inj = _injector(env, FaultSchedule().link_degrade("l", 5.0, 10.0, scale=0.25), reg)
        inj.start()
        env.run(until=6.0)
        assert link.rate == pytest.approx(base * 0.25)
        env.run(until=16.0)
        assert link.rate == pytest.approx(base)

    def test_link_loss_burst_installs_seeded_filter(self):
        env = Environment()
        link = Link(env, rate_gbps=10.0, propagation_us=1.0, queue_packets=64, name="l")
        link.connect(lambda packet: None)
        reg = ComponentRegistry()
        reg.add("link", "l", link)
        inj = _injector(env, FaultSchedule().link_loss_burst("l", 1.0, 100.0, p=0.5), reg)
        inj.start()
        env.run(until=2.0)
        assert link.drop_filter is not None
        for _ in range(200):
            link.send(Packet(src="a", dst="b", conn_id=1, kind="data", length=10))
        assert 0 < link.stats.fault_drops < 200  # ~p, seeded
        env.run(until=200.0)
        assert link.drop_filter is None

    def test_link_loss_without_rng_is_an_error(self):
        env = Environment()
        link = Link(env, rate_gbps=10.0, propagation_us=1.0, queue_packets=4, name="l")
        reg = ComponentRegistry()
        reg.add("link", "l", link)
        inj = Injector(env, FaultSchedule().link_loss_burst("l", 1.0, 5.0, p=0.5), reg)
        inj.start()
        with pytest.raises(FaultError, match="seeded rng"):
            env.run()

    def test_nic_down_drops_both_directions(self):
        env = Environment()
        link = Link(env, rate_gbps=10.0, propagation_us=1.0, queue_packets=4, name="l")
        nic = Nic(env, "a", egress=link)
        reg = ComponentRegistry()
        reg.add("nic", "a", nic)
        inj = _injector(env, FaultSchedule().nic_down("a", 10.0, 10.0), reg)
        inj.start()
        env.run(until=11.0)
        packet = Packet(src="a", dst="b", conn_id=1, kind="data", length=10)
        assert nic.transmit(packet) is False
        nic.receive(packet)
        assert nic.tx_dropped == 1 and nic.rx_dropped == 1
        env.run(until=25.0)
        assert not nic.fault_down

    def test_ssd_spike_and_transient_error(self):
        env = Environment()
        streams = RandomStreams(5)
        ctrl = NvmeController(env, profile=SsdProfile(), rng=streams.stream("ssd/t"))
        reg = ComponentRegistry()
        reg.add("ssd", "t/ssd0", ctrl)
        sched = (
            FaultSchedule()
            .ssd_latency_spike("t/ssd0", 10.0, 10.0, scale=8.0)
            .ssd_transient_error("t/ssd0", 30.0, 10.0)
        )
        inj = _injector(env, sched, reg)
        inj.start()
        env.run(until=11.0)
        assert ctrl.service_scale == 8.0
        env.run(until=21.0)
        assert ctrl.service_scale == 1.0
        env.run(until=31.0)
        assert ctrl.fault_status == STATUS_INTERNAL_ERROR
        env.run(until=41.0)
        assert ctrl.fault_status is None

    def test_switch_pressure_shrinks_every_port_queue(self):
        env = Environment()
        sw = Switch(env, forwarding_delay_us=0.5, name="sw")
        links = {}
        for node in ("a", "b"):
            link = Link(env, rate_gbps=10.0, propagation_us=1.0,
                        queue_packets=8, name=f"sw->{node}")
            sw.attach(node, link)
            links[node] = link
        reg = ComponentRegistry()
        reg.add("switch", "sw", sw)
        inj = _injector(env, FaultSchedule().switch_pressure("sw", 5.0, 10.0, scale=0.25), reg)
        inj.start()
        env.run(until=6.0)
        assert all(link.queue_limit == 2 for link in links.values())
        env.run(until=16.0)
        assert all(link.queue_limit == 8 for link in links.values())

    def test_qpair_disconnect_severs_the_initiator(self):
        class FakeInitiator:
            disconnected = 0

            def force_disconnect(self):
                self.disconnected += 1

        env = Environment()
        fake = FakeInitiator()
        reg = ComponentRegistry()
        reg.add("initiator", "tenant0", fake)
        inj = _injector(env, FaultSchedule().qpair_disconnect("tenant0", 5.0), reg)
        inj.start()
        env.run()
        assert fake.disconnected == 1
        assert inj.faults_injected == 1
        assert inj.faults_reverted == 0  # instantaneous: recovery reconnects

    def test_unknown_fault_target_raises_with_known_names(self):
        env = Environment()
        reg = ComponentRegistry()
        inj = _injector(env, FaultSchedule().link_flap("ghost", 1.0, 1.0), reg)
        inj.start()
        with pytest.raises(FaultError, match="no link component"):
            env.run()

    def test_injector_cannot_start_twice(self):
        env = Environment()
        inj = _injector(env, FaultSchedule(), ComponentRegistry())
        inj.start()
        with pytest.raises(FaultError):
            inj.start()


# -- full chaos scenario (the ISSUE acceptance run) --------------------------------
def _chaos_schedule():
    return (
        FaultSchedule()
        .link_flap("sw->client0", 300.0, 150.0)
        .ssd_latency_spike("target0/ssd0", 600.0, 300.0, scale=8.0)
        .target_crash("target0", 1_100.0, 400.0)
    )


def _run_scenario(chaos, policy, seed=1):
    cfg = ScenarioConfig(
        protocol="spdk",
        network_gbps=10.0,
        op_mix="read",
        total_ops=200,
        window_size=16,
        seed=seed,
        chaos=chaos,
        retry_policy=policy,
    )
    scenario = Scenario.two_sided(cfg, tenants_for_ratio("1:2", op_mix="read"))
    return scenario.run()


class TestChaosScenario:
    def test_storm_completes_every_command_deterministically(self):
        policy = RetryPolicy(
            timeout_us=400.0,
            backoff_base_us=50.0,
            reconnect_delay_us=50.0,
            handshake_timeout_us=200.0,
        )
        calm = _run_scenario(None, None)
        storm = _run_scenario(_chaos_schedule(), policy)
        replay = _run_scenario(_chaos_schedule(), policy)

        # Chaos actually bit: faults were injected and recovery ran.
        assert storm.fault_events["fault/target.crash/inject"] == 1
        assert storm.recovery["timeouts"] > 0
        assert storm.recovery["retries"] > 0
        assert storm.tc_throughput_mbps < calm.tc_throughput_mbps

        # Zero lost commands: every submission completed or was reported.
        assert storm.goodput_ops > 0
        calm_total = calm.goodput_ops + calm.failed_ops
        storm_total = storm.goodput_ops + storm.failed_ops
        assert storm_total == calm_total

        # Same seed, same storm: byte-identical metrics and fault traces.
        assert storm.metrics_digest() == replay.metrics_digest()
        assert storm.fault_trace == replay.fault_trace

    def test_injector_trace_replay_is_byte_identical(self):
        policy = RetryPolicy(timeout_us=400.0, backoff_base_us=50.0)
        sched = (
            FaultSchedule()
            .ssd_latency_spike("target0/ssd0", 35.0, 460.0, scale=13.7)
            .link_loss_burst("client0->sw", 200.0, 300.0, p=0.3)
            .link_degrade("sw->client0", 600.0, 250.0, scale=0.4)
        )
        one = _run_scenario(sched, policy)
        two = _run_scenario(sched, policy)
        assert one.fault_trace == two.fault_trace
        assert one.metrics_digest() == two.metrics_digest()

    def test_empty_schedule_leaves_scenario_untouched(self):
        baseline = _run_scenario(None, None)
        noop = _run_scenario(FaultSchedule(), None)
        assert noop.metrics_digest() == baseline.metrics_digest()
