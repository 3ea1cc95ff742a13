"""End-to-end protocol tests: baseline vs NVMe-oPF over a real fabric.

These tests run full scenarios (fabric + TCP + target + SSD) and assert the
*behavioural* claims of the paper: coalescing reduces notifications by the
window factor, latency-sensitive requests bypass queues, out-of-order device
completions are handled, tenants are isolated, and the shared-queue design
live-locks where the per-tenant design does not.
"""

import pytest

from repro.cluster import Scenario, ScenarioConfig
from repro.core import Priority, SharedQueueOpfTarget
from repro.workloads import TenantSpec, tenants_for_ratio


def run_pair(ratio="1:1", op_mix="read", gbps=100.0, total_ops=300, window=16, **kw):
    """Run SPDK and oPF on identical workloads; returns (spdk, opf) results."""
    out = []
    for protocol in ("spdk", "nvme-opf"):
        cfg = ScenarioConfig(
            protocol=protocol,
            network_gbps=gbps,
            op_mix=op_mix,
            total_ops=total_ops,
            window_size=window,
            warmup_us=200.0,
            **kw,
        )
        sc = Scenario.two_sided(cfg, tenants_for_ratio(ratio, op_mix=op_mix))
        out.append(sc.run())
    return out


def test_all_requests_complete_exactly_once():
    spdk, opf = run_pair(ratio="1:2", total_ops=200)
    # 2 TC x 200 ops each; commands_received also counts LS + drain markers.
    for res in (spdk, opf):
        assert res.commands_received >= 400


def test_baseline_sends_one_notification_per_request():
    spdk, _ = run_pair(ratio="1:1", total_ops=250)
    # >= total TC ops (250) plus LS ops; every completed request notified.
    assert spdk.completion_notifications >= 250
    assert spdk.coalesced_notifications == 0


def test_opf_reduces_notifications_by_window_factor():
    """Fig. 6c: coalescing cuts completion notifications ~window-fold."""
    spdk, opf = run_pair(ratio="0:1", total_ops=320, window=16)
    assert opf.coalesced_notifications > 0
    # 320 ops / window 16 = 20 coalesced responses (+ slack for drain markers).
    assert opf.completion_notifications <= 320 / 16 + 8
    assert spdk.completion_notifications >= 320
    ratio = spdk.completion_notifications / opf.completion_notifications
    assert ratio > 8  # order-of-window reduction


def test_opf_read_data_still_per_request():
    """Coalescing removes responses, not data: every read returns its 4K."""
    _, opf = run_pair(ratio="0:1", op_mix="read", total_ops=200)
    assert opf.data_pdus_sent >= 200


def test_opf_improves_tc_throughput():
    spdk, opf = run_pair(ratio="1:4", total_ops=400, window=32)
    assert opf.tc_throughput_mbps > spdk.tc_throughput_mbps * 1.15


def test_opf_reduces_ls_tail_latency():
    spdk, opf = run_pair(ratio="1:4", total_ops=400, window=32)
    assert opf.ls_tail_us < spdk.ls_tail_us * 0.9


def test_ls_only_scenario_runs_to_ls_quota():
    cfg = ScenarioConfig(
        protocol="nvme-opf", network_gbps=100, total_ops=100, ls_total_ops=50, warmup_us=0
    )
    sc = Scenario.two_sided(cfg, tenants_for_ratio("1:0"))
    res = sc.run()
    assert res.ls_tail_us is not None
    assert res.tc_throughput_mbps == 0.0


def test_flags_survive_byte_level_encoding():
    """validate_pdus re-encodes/decodes every PDU through real bytes."""
    cfg = ScenarioConfig(
        protocol="nvme-opf",
        network_gbps=100,
        total_ops=120,
        window_size=8,
        warmup_us=0,
        validate_pdus=True,
    )
    sc = Scenario.two_sided(cfg, tenants_for_ratio("1:1"))
    res = sc.run()
    assert res.coalesced_notifications > 0  # coalescing worked through bytes
    assert res.tc_throughput_mbps > 0


def test_byte_validation_matches_object_path():
    """The validate transport must not change protocol behaviour."""
    results = []
    for validate in (False, True):
        cfg = ScenarioConfig(
            protocol="nvme-opf",
            network_gbps=100,
            total_ops=150,
            window_size=8,
            warmup_us=0,
            validate_pdus=validate,
            seed=7,
        )
        sc = Scenario.two_sided(cfg, tenants_for_ratio("0:1"))
        results.append(sc.run())
    assert results[0].completion_notifications == results[1].completion_notifications
    assert results[0].commands_received == results[1].commands_received


def test_deterministic_under_seed():
    def once():
        cfg = ScenarioConfig(
            protocol="nvme-opf", network_gbps=100, total_ops=200, seed=42, warmup_us=100
        )
        sc = Scenario.two_sided(cfg, tenants_for_ratio("1:2"))
        return sc.run()

    r1, r2 = once(), once()
    assert r1.tc_throughput_mbps == pytest.approx(r2.tc_throughput_mbps)
    assert r1.ls_tail_us == pytest.approx(r2.ls_tail_us)
    assert r1.completion_notifications == r2.completion_notifications
    assert r1.elapsed_us == pytest.approx(r2.elapsed_us)


def test_different_seeds_differ():
    def once(seed):
        cfg = ScenarioConfig(
            protocol="nvme-opf", network_gbps=100, total_ops=200, seed=seed, warmup_us=100
        )
        sc = Scenario.two_sided(cfg, tenants_for_ratio("1:2"))
        return sc.run()

    assert once(1).elapsed_us != once(2).elapsed_us


def test_tenant_switch_cost_counted_for_baseline():
    spdk, opf = run_pair(ratio="0:3", total_ops=200)
    # Interleaved tenants make the baseline switch constantly; oPF batches.
    assert spdk.tenant_switches > opf.tenant_switches * 2


def test_write_workload_correctness():
    spdk, opf = run_pair(ratio="1:1", op_mix="write", total_ops=200)
    for res in (spdk, opf):
        assert res.tc_throughput_mbps > 0
        assert res.ls_tail_us is not None


def test_mixed_workload_runs():
    spdk, opf = run_pair(ratio="1:2", op_mix="rw50", total_ops=200)
    assert opf.tc_throughput_mbps > 0
    assert spdk.tc_throughput_mbps > 0


def test_multi_ssd_target_node():
    cfg = ScenarioConfig(protocol="nvme-opf", network_gbps=100, total_ops=150, warmup_us=0)
    sc = Scenario(cfg)
    tnode = sc.add_target_node(n_ssds=2)
    inode1 = sc.add_initiator_node()
    inode2 = sc.add_initiator_node()
    sc.add_tenant(TenantSpec("t0", Priority.THROUGHPUT, 128), inode1, tnode, nsid=1)
    sc.add_tenant(TenantSpec("t1", Priority.THROUGHPUT, 128), inode2, tnode, nsid=2)
    res = sc.run()
    assert res.tc_throughput_mbps > 0
    assert all(ssd.controller.commands_completed > 0 for ssd in tnode.ssds)


def test_scenario_runs_once_only():
    cfg = ScenarioConfig(protocol="spdk", total_ops=50, warmup_us=0)
    sc = Scenario.two_sided(cfg, tenants_for_ratio("0:1"))
    sc.run()
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        sc.run()


def test_scenario_requires_tenants():
    from repro.errors import ConfigError

    cfg = ScenarioConfig(protocol="spdk", total_ops=50)
    sc = Scenario(cfg)
    sc.add_target_node()
    with pytest.raises(ConfigError):
        sc.run()


# ----------------------------------------------------------- ablations ----
def test_shared_queue_target_premature_drains():
    """§IV-A: a shared TC queue lets one tenant's drain flush another's
    window, destroying the victim's coalescing."""
    import functools

    # Deep shared queue: no live-lock, so the premature-drain effect is
    # observable on a run that completes.
    cfg = ScenarioConfig(
        protocol="nvme-opf",
        network_gbps=100,
        total_ops=300,
        window_size=16,
        warmup_us=0,
        target_cls=functools.partial(SharedQueueOpfTarget, tc_queue_depth=4096),
    )
    sc = Scenario.two_sided(cfg, tenants_for_ratio("0:3"))
    res = sc.run()
    target = sc.target_nodes[0].target
    assert isinstance(target, SharedQueueOpfTarget)
    assert target.premature_flushes > 0
    assert target.individual_tc_responses > 0
    # Coalescing quality collapses vs the per-tenant design.
    cfg2 = ScenarioConfig(
        protocol="nvme-opf", network_gbps=100, total_ops=300, window_size=16, warmup_us=0
    )
    sc2 = Scenario.two_sided(cfg2, tenants_for_ratio("0:3"))
    res2 = sc2.run()
    assert res.completion_notifications > res2.completion_notifications


def test_shared_queue_livelock_when_windows_exceed_depth():
    """§IV-A: sum of window sizes > shared queue depth -> live-lock."""
    from repro.cluster.scenario import ScenarioConfig
    import functools

    target_cls = functools.partial(SharedQueueOpfTarget, tc_queue_depth=48)
    # Make partial look like a class for the TargetNode plumbing.
    cfg = ScenarioConfig(
        protocol="nvme-opf",
        network_gbps=100,
        total_ops=300,
        window_size=32,  # 3 tenants x 32 = 96 > 48 shared slots
        warmup_us=0,
        target_cls=target_cls,
    )
    sc = Scenario(cfg)
    tnode = sc.add_target_node()
    for i in range(3):
        inode = sc.add_initiator_node()
        sc.add_tenant(TenantSpec(f"tc{i}", Priority.THROUGHPUT, 128), inode, tnode)

    # The run would never finish: drive the environment manually instead.
    # Build everything by invoking run() in a bounded way: we replicate its
    # setup through a deadline, expecting zero TC completions.
    connect_events = []
    from repro.workloads.perf import PerfConfig, PerfGenerator

    for spec, inode, t, nsid in sc._tenant_assignments:
        initiator = inode.add_initiator(
            spec.name, t, protocol="nvme-opf", queue_depth=spec.queue_depth,
            collector=sc.collector, window_size=32,
            auto_drain_idle_us=None,  # no idle rescue: expose the hazard
        )
        connect_events.append(initiator.connect())
        gen = PerfGenerator(
            sc.env, initiator, PerfConfig(total_ops=300, queue_depth=128),
            rng=sc.streams.stream(spec.name),
        )
        sc.generators.append(gen)
    sc.env.run(until=sc.env.all_of(connect_events))
    for gen in sc.generators:
        gen.start()
    sc.env.run(until=sc.env.now + 50_000.0)  # 50 ms of simulated time

    target = tnode.target
    assert target.stalled_requests > 0, "expected overflow-stalled requests"
    assert all(gen.completed < gen.config.total_ops for gen in sc.generators), (
        "the shared-queue live-lock should prevent completion"
    )


def test_ls_request_overtakes_queued_tc_window():
    """Timing proof of the bypass: an LS request that arrives while a full
    TC window sits parked at the target completes before that window."""
    from repro.cluster.node import InitiatorNode, TargetNode
    from repro.net import Fabric
    from repro.simcore import Environment, RandomStreams

    env = Environment()
    fabric = Fabric(env, rate_gbps=100)
    tnode = TargetNode(env, "t0", fabric, RandomStreams(51), protocol="nvme-opf")
    inode = InitiatorNode(env, "c0", fabric)
    tc = inode.add_initiator("tc", tnode, protocol="nvme-opf", queue_depth=64,
                             window_size=32, auto_drain_idle_us=None)
    ls = inode.add_initiator("ls", tnode, protocol="nvme-opf", queue_depth=1)
    env.run(until=env.all_of([tc.connect(), ls.connect()]))

    # Park 20 TC requests (window 32: no drain yet, so they only queue).
    tc_reqs = [tc.read(slba=i, priority="throughput") for i in range(20)]
    env.run(until=env.now + 200.0)
    assert not any(r.done for r in tc_reqs)

    ls_req = ls.read(slba=999, priority="latency")
    env.run(until=env.now + 2_000.0)
    assert ls_req.done, "the LS request must bypass the parked window"
    assert not any(r.done for r in tc_reqs), "the parked window must still wait"

    tc.drain()
    env.run()
    assert all(r.done for r in tc_reqs)
    # Ordering on the wall clock: LS completed strictly first.
    assert ls_req.completed_at < min(r.completed_at for r in tc_reqs)
