"""Detailed tests of the oPF initiator/target runtimes: drains, windows,
and cross-feature composition."""

import pytest

from repro.cluster import Scenario, ScenarioConfig
from repro.cluster.node import InitiatorNode, TargetNode
from repro.core import DevicePriorityOpfTarget
from repro.net import Fabric
from repro.simcore import Environment, RandomStreams
from repro.workloads import tenants_for_ratio


def make_rig(protocol="nvme-opf", queue_depth=64, **init_kwargs):
    env = Environment()
    streams = RandomStreams(12)
    fabric = Fabric(env, rate_gbps=100)
    tnode = TargetNode(env, "t0", fabric, streams, protocol=protocol)
    inode = InitiatorNode(env, "c0", fabric)
    initiator = inode.add_initiator(
        "app", tnode, protocol=protocol, queue_depth=queue_depth, **init_kwargs
    )
    env.run(until=initiator.connect())
    return env, initiator, tnode


# --------------------------------------------------------------- drains ----
def test_explicit_drain_flushes_partial_window():
    env, initiator, tnode = make_rig(window_size=16, auto_drain_idle_us=None)
    requests = [initiator.read(slba=i, priority="throughput") for i in range(5)]
    env.run(until=env.now + 2_000)
    # Without a drain the partial window sits parked at the target.
    assert not any(r.done for r in requests)
    assert [len(w) for w in tnode.target.pm.windows.values()] == [5]
    marker = initiator.drain()
    assert marker is not None
    env.run()
    assert all(r.done for r in requests)
    assert marker.done


def test_drain_with_nothing_pending_is_noop():
    env, initiator, _ = make_rig(window_size=16)
    assert initiator.drain() is None


def test_idle_timer_auto_drains():
    env, initiator, _ = make_rig(window_size=16, auto_drain_idle_us=40.0)
    requests = [initiator.read(slba=i, priority="throughput") for i in range(3)]
    env.run()  # idle timer fires at +40us, drains, everything completes
    assert all(r.done for r in requests)


def test_window_clamped_to_half_queue_depth():
    env, initiator, _ = make_rig(window_size=64, queue_depth=16)
    assert initiator.window_size == 8


# -------------------------------------------------------- composition ----
def test_device_priority_with_rdma_transport():
    """Extensions compose: urgent qpairs + RDMA fabric + coalescing."""
    cfg = ScenarioConfig(
        protocol="nvme-opf", transport="rdma", network_gbps=100,
        total_ops=300, window_size=16, warmup_us=100, seed=9,
        target_cls=DevicePriorityOpfTarget,
    )
    sc = Scenario.two_sided(cfg, tenants_for_ratio("1:2"))
    res = sc.run()
    target = sc.target_nodes[0].target
    assert target.urgent_submissions > 0
    assert res.coalesced_notifications > 0
    assert res.tcp_retransmits == 0
    assert res.ls_tail_us < 200  # urgent class keeps LS out of the backlog


def test_validate_pdus_with_opf_and_drain_markers():
    """Byte-validating transport must survive flush drain markers too."""
    env, initiator, tnode = make_rig(window_size=16, validate_pdus=True,
                                     auto_drain_idle_us=None)
    reqs = [initiator.read(slba=i, priority="throughput") for i in range(5)]
    initiator.drain()
    env.run()
    assert all(r.done for r in reqs)


def test_mixed_priorities_single_connection():
    """LS and TC requests interleaved on one qpair behave per class."""
    env, initiator, tnode = make_rig(window_size=8)
    ls = [initiator.read(slba=i, priority="latency") for i in range(3)]
    tc = [initiator.read(slba=100 + i, priority="throughput") for i in range(8)]
    env.run()
    assert all(r.done for r in ls + tc)
    # LS requests were answered individually; the TC window coalesced.
    stats = tnode.target.stats
    assert stats.coalesced_notifications == 1
    assert stats.completion_notifications == 1 + 3


def test_opf_initiator_to_baseline_target_wire_compat():
    """An oPF initiator talking to a priority-blind target must still work:
    the reserved bytes are ignored and every request is answered
    individually (coalescing silently degrades to baseline behaviour)."""
    env = Environment()
    streams = RandomStreams(12)
    fabric = Fabric(env, rate_gbps=100)
    tnode = TargetNode(env, "t0", fabric, streams, protocol="spdk")  # baseline!
    inode = InitiatorNode(env, "c0", fabric)
    initiator = inode.add_initiator(
        "app", tnode, protocol="nvme-opf", queue_depth=64, window_size=8
    )
    env.run(until=initiator.connect())
    reqs = [initiator.read(slba=i, priority="throughput") for i in range(8)]
    env.run()
    # The baseline target answers per request; the oPF initiator's PM
    # tolerates the individual responses (premature-response path).
    assert all(r.done for r in reqs)
    assert initiator.pm.premature_responses == 8
    assert tnode.target.stats.coalesced_notifications == 0


def test_target_cls_must_be_constructible():
    env = Environment()
    fabric = Fabric(env)
    with pytest.raises(TypeError):
        TargetNode(env, "t", fabric, RandomStreams(0), target_cls=object)
