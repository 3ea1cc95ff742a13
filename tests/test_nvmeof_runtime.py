"""Focused tests for the baseline initiator/target runtimes and qpairs."""

import pytest

from repro.cluster.node import InitiatorNode, TargetNode
from repro.core.flags import Priority
from repro.errors import ConfigError, DeviceError, ProtocolError, QueueFullError
from repro.metrics import Collector
from repro.net import Fabric
from repro.nvmeof.qpair import FabricQpair
from repro.simcore import Environment, RandomStreams


def make_rig(protocol="spdk", queue_depth=8, rate_gbps=100.0):
    env = Environment()
    streams = RandomStreams(5)
    fabric = Fabric(env, rate_gbps=rate_gbps)
    tnode = TargetNode(env, "t0", fabric, streams, protocol=protocol)
    inode = InitiatorNode(env, "c0", fabric)
    collector = Collector(env)
    initiator = inode.add_initiator(
        "app", tnode, protocol=protocol, queue_depth=queue_depth, collector=collector
    )
    return env, initiator, tnode, collector


# ------------------------------------------------------------- fabric qpair ----
def test_qpair_depth_enforced():
    qp = FabricQpair(queue_depth=2)
    qp.allocate("read", 1, 0, 1, 4096, Priority.THROUGHPUT, 0)
    qp.allocate("read", 1, 1, 1, 4096, Priority.THROUGHPUT, 0)
    assert not qp.has_capacity
    with pytest.raises(QueueFullError):
        qp.allocate("read", 1, 2, 1, 4096, Priority.THROUGHPUT, 0)


def test_qpair_cids_unique_among_outstanding():
    qp = FabricQpair(queue_depth=64)
    requests = [
        qp.allocate("read", 1, i, 1, 4096, Priority.THROUGHPUT, 0) for i in range(64)
    ]
    cids = [r.cid for r in requests]
    assert len(set(cids)) == 64


def test_qpair_cid_reuse_after_completion():
    qp = FabricQpair(queue_depth=1)
    r1 = qp.allocate("read", 1, 0, 1, 4096, Priority.THROUGHPUT, 0)
    qp.complete(r1.cid, now=1.0)
    r2 = qp.allocate("read", 1, 0, 1, 4096, Priority.THROUGHPUT, 0)
    assert r2.cid != r1.cid  # monotonically advancing, no immediate reuse
    assert qp.total_submitted == 2
    assert qp.total_completed == 1


def test_qpair_cid_wrap_skips_an_outstanding_cid():
    qp = FabricQpair(queue_depth=2)
    held = qp.allocate("read", 1, 0, 1, 4096, Priority.THROUGHPUT, 0)
    assert held.cid == 0
    for _ in range(0xFFFF):  # cids 1..0xFFFF, each retired at once
        qp.complete(qp.allocate("read", 1, 0, 1, 4096, Priority.THROUGHPUT, 0).cid, now=0.0)
    # The 16-bit counter wrapped to 0, which is still outstanding.
    assert qp.allocate("read", 1, 0, 1, 4096, Priority.THROUGHPUT, 0).cid == 1


def test_qpair_unknown_completion_rejected():
    qp = FabricQpair(queue_depth=4)
    with pytest.raises(ProtocolError):
        qp.complete(99, now=0.0)


def test_qpair_invalid_op():
    qp = FabricQpair(queue_depth=4)
    with pytest.raises(ProtocolError):
        qp.allocate("erase", 1, 0, 1, 4096, Priority.THROUGHPUT, 0)
    with pytest.raises(ProtocolError):
        FabricQpair(queue_depth=0)


def test_request_latency_requires_completion():
    qp = FabricQpair(queue_depth=4)
    req = qp.allocate("read", 1, 0, 1, 4096, Priority.THROUGHPUT, 0)
    req.submitted_at = 5.0
    with pytest.raises(ProtocolError):
        _ = req.latency
    qp.complete(req.cid, now=12.5)
    assert req.latency == 7.5


def test_request_completion_event_fires():
    env = Environment()
    qp = FabricQpair(queue_depth=4)
    req = qp.allocate("read", 1, 0, 1, 4096, Priority.THROUGHPUT, 0)
    ev = req.completion_event(env)
    assert not ev.triggered
    qp.complete(req.cid, now=3.0)
    assert ev.triggered
    # Requesting the event after completion returns an already-fired event.
    req2 = qp.allocate("read", 1, 0, 1, 4096, Priority.THROUGHPUT, 0)
    qp.complete(req2.cid, now=4.0)
    assert req2.completion_event(env).triggered


# ---------------------------------------------------------------- initiator ----
def test_submit_before_connect_rejected():
    env, initiator, _, _ = make_rig()
    with pytest.raises(ProtocolError):
        initiator.read(slba=0)


def test_connect_handshake_and_io():
    env, initiator, tnode, collector = make_rig()
    ev = initiator.connect()
    env.run(until=ev)
    assert initiator.connected
    req = initiator.read(slba=0, priority="latency")
    env.run()
    assert req.done and req.status == 0
    assert req.latency > 0
    assert collector.total_recorded == 1


def test_connect_is_idempotent():
    env, initiator, _, _ = make_rig()
    ev1 = initiator.connect()
    ev2 = initiator.connect()
    assert ev1 is ev2
    env.run(until=ev1)


def test_initiator_queue_full_raises():
    env, initiator, _, _ = make_rig(queue_depth=2)
    env.run(until=initiator.connect())
    initiator.read(slba=0)
    initiator.read(slba=1)
    with pytest.raises(QueueFullError):
        initiator.read(slba=2)


def test_baseline_leaves_reserved_bytes_zero():
    """The baseline runtime must not use the oPF reserved bits — that is
    what makes the two wire-compatible."""
    env, initiator, tnode, _ = make_rig(protocol="spdk")
    env.run(until=initiator.connect())
    seen = []
    conn = tnode.target.connections[0]
    original = conn._on_pdu

    def spy(pdu):
        from repro.nvmeof.pdu import CapsuleCmdPdu

        if isinstance(pdu, CapsuleCmdPdu):
            seen.append((pdu.sqe.rsvd_priority, pdu.sqe.rsvd_tenant))
        original(pdu)

    conn.transport.set_handler(spy)
    initiator.read(slba=0, priority="throughput")
    initiator.write(slba=1, priority="latency")
    env.run()
    assert seen == [(0, 0), (0, 0)]


def test_opf_initiator_sets_reserved_bytes():
    env, initiator, tnode, _ = make_rig(protocol="nvme-opf")
    env.run(until=initiator.connect())
    seen = []
    conn = tnode.target.connections[0]
    original = conn._on_pdu

    def spy(pdu):
        from repro.nvmeof.pdu import CapsuleCmdPdu

        if isinstance(pdu, CapsuleCmdPdu):
            seen.append(pdu.sqe.rsvd_priority)
        original(pdu)

    conn.transport.set_handler(spy)
    initiator.read(slba=0, priority="throughput")
    initiator.read(slba=1, priority="latency")
    env.run()
    assert seen[0] & 0b01  # TC flag
    assert seen[1] == 0  # LS


def test_write_carries_in_capsule_data():
    env, initiator, tnode, _ = make_rig()
    env.run(until=initiator.connect())
    sizes = []
    conn = tnode.target.connections[0]
    original = conn._on_pdu

    def spy(pdu):
        from repro.nvmeof.pdu import CapsuleCmdPdu

        if isinstance(pdu, CapsuleCmdPdu):
            sizes.append(pdu.data_len)
        original(pdu)

    conn.transport.set_handler(spy)
    initiator.write(slba=0, nlb=2)
    initiator.read(slba=0, nlb=2)
    env.run()
    assert sizes == [8192, 0]


def test_read_returns_data_pdu_then_response():
    env, initiator, _, _ = make_rig()
    env.run(until=initiator.connect())
    initiator.read(slba=0)
    env.run()
    assert initiator.stats.data_pdus_received == 1
    assert initiator.stats.completion_pdus_received == 1


def test_initiator_failed_status_counted():
    env, initiator, tnode, _ = make_rig()
    env.run(until=initiator.connect())
    from repro.ssd import DeviceErrorInjector

    DeviceErrorInjector(tnode.ssds[0].controller, fail_every=1)
    req = initiator.read(slba=0)
    env.run()
    assert req.status != 0
    assert initiator.stats.failed == 1


# ------------------------------------------------------------------- target ----
@pytest.mark.parametrize("protocol", ["spdk", "nvme-opf"])
def test_target_refuses_an_unknown_namespace(protocol):
    env, initiator, _, _ = make_rig(protocol=protocol)
    env.run(until=initiator.connect())
    initiator.read(slba=0, nsid=7, priority="latency")
    with pytest.raises(DeviceError, match="no namespace 7"):
        env.run()


def test_target_routes_multiple_connections():
    env = Environment()
    streams = RandomStreams(5)
    fabric = Fabric(env, rate_gbps=100)
    tnode = TargetNode(env, "t0", fabric, streams, protocol="spdk")
    inode = InitiatorNode(env, "c0", fabric)
    inits = [
        inode.add_initiator(f"app{i}", tnode, protocol="spdk", queue_depth=8)
        for i in range(3)
    ]
    env.run(until=env.all_of([i.connect() for i in inits]))
    for i, init in enumerate(inits):
        init.read(slba=i)
    env.run()
    assert tnode.target.stats.commands_received == 3
    assert tnode.target.stats.completion_notifications == 3
    assert all(i.stats.completed == 1 for i in inits)


def test_target_node_validation():
    env = Environment()
    fabric = Fabric(env)
    with pytest.raises(ConfigError):
        TargetNode(env, "t", fabric, RandomStreams(0), protocol="iscsi")
    fabric2 = Fabric(env, name="f2")
    with pytest.raises(ConfigError):
        TargetNode(env, "t2", fabric2, RandomStreams(0), n_ssds=0)


def test_initiator_node_protocol_validation():
    env = Environment()
    fabric = Fabric(env)
    tnode = TargetNode(env, "t0", fabric, RandomStreams(0))
    inode = InitiatorNode(env, "c0", fabric)
    with pytest.raises(ConfigError):
        inode.add_initiator("x", tnode, protocol="smb")


def test_tenant_ids_unique_across_nodes():
    env = Environment()
    fabric = Fabric(env, rate_gbps=100)
    streams = RandomStreams(1)
    tnode = TargetNode(env, "t0", fabric, streams)
    ids = []
    for n in range(2):
        inode = InitiatorNode(env, f"c{n}", fabric)
        for i in range(2):
            init = inode.add_initiator(f"a{n}{i}", tnode, queue_depth=4)
            ids.append(init.tenant_id)
    assert len(set(ids)) == 4
