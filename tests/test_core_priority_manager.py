"""Unit tests for Algorithms 1-4 (Fig. 5) via the priority managers.

The latency-sensitive bypass happens in the oPF target, which decodes each
command's flags before the target manager sees it, so those two tests
drive an :class:`OpfTarget`.
"""

import pytest

from repro.core import MAX_TENANTS, DrainGroup, OpfTarget, Priority
from repro.core.priority_manager import InitiatorPriorityManager, TargetPriorityManager
from repro.errors import ConfigError, ProtocolError, TenantError
from repro.nvmeof.capsule import OPCODE_READ, Sqe
from repro.nvmeof.pdu import CapsuleCmdPdu
from tests.test_opf_command_path import LS as LS_FLAGS
from tests.test_opf_command_path import LS_TENANT, _build, _cmd


def make_sqe(cid, priority=Priority.THROUGHPUT, draining=False, tenant=0):
    from repro.core.flags import pack_flags

    return Sqe(
        opcode=OPCODE_READ,
        cid=cid,
        rsvd_priority=pack_flags(priority, draining),
        rsvd_tenant=tenant,
    )


def make_cmd(cid, priority=Priority.THROUGHPUT, draining=False, tenant=0):
    return CapsuleCmdPdu(sqe=make_sqe(cid, priority, draining, tenant))


# ---------------------------------------------------- Alg. 1: before send ----
def test_alg1_tc_requests_queue_and_get_flags():
    pm = InitiatorPriorityManager(window_size=4, queue_depth=128)
    for cid in range(3):
        sqe = Sqe(opcode=OPCODE_READ, cid=cid)
        draining = pm.before_send(sqe, Priority.THROUGHPUT, tenant_id=7)
        assert not draining
        assert sqe.rsvd_priority == 0b01
        assert sqe.rsvd_tenant == 7
    assert len(pm.cid_queue) == 3
    assert pm.pending_undrained == 3


def test_alg1_every_wth_request_drains():
    pm = InitiatorPriorityManager(window_size=4, queue_depth=128)
    drains = []
    for cid in range(12):
        sqe = Sqe(opcode=OPCODE_READ, cid=cid)
        drains.append(pm.before_send(sqe, Priority.THROUGHPUT, tenant_id=0))
    assert [i for i, d in enumerate(drains) if d] == [3, 7, 11]
    assert pm.pending_undrained == 0


def test_alg1_latency_sensitive_not_queued():
    pm = InitiatorPriorityManager(window_size=4, queue_depth=128)
    sqe = Sqe(opcode=OPCODE_READ, cid=1)
    draining = pm.before_send(sqe, Priority.LATENCY, tenant_id=3)
    assert not draining
    assert sqe.rsvd_priority == 0
    assert len(pm.cid_queue) == 0


def test_window_larger_than_queue_depth_rejected():
    """§IV-A live-lock guard."""
    with pytest.raises(ConfigError):
        InitiatorPriorityManager(window_size=129, queue_depth=128)
    pm = InitiatorPriorityManager(window_size=128, queue_depth=128)
    with pytest.raises(ConfigError):
        pm.resize(129)
    assert pm.window_size == 128


# -------------------------------------------------- Alg. 2: on response ----
def test_alg2_coalesced_response_retires_in_order():
    pm = InitiatorPriorityManager(window_size=4, queue_depth=128)
    for cid in range(8):
        pm.before_send(Sqe(opcode=OPCODE_READ, cid=cid), Priority.THROUGHPUT, 0)
    retired = pm.on_coalesced_response(3)
    assert retired == [0, 1, 2, 3]
    retired = pm.on_coalesced_response(7)
    assert retired == [4, 5, 6, 7]
    assert len(pm.cid_queue) == 0


def test_alg2_individual_response_for_queued_cid_counts_premature():
    pm = InitiatorPriorityManager(window_size=4, queue_depth=128)
    pm.before_send(Sqe(opcode=OPCODE_READ, cid=5), Priority.THROUGHPUT, 0)
    assert pm.on_individual_response(5) is True  # premature (broken target)
    assert pm.premature_responses == 1
    assert 5 not in pm.cid_queue
    assert pm.on_individual_response(99) is False  # LS cid: normal path


def test_force_drain_flags():
    pm = InitiatorPriorityManager(window_size=8, queue_depth=128)
    for cid in range(3):
        pm.before_send(Sqe(opcode=OPCODE_READ, cid=cid), Priority.THROUGHPUT, 0)
    marker = Sqe.for_io("flush", cid=50)
    pm.force_drain_flags(marker, tenant_id=0)
    assert marker.rsvd_priority == 0b11
    assert pm.pending_undrained == 0
    assert pm.on_coalesced_response(50) == [0, 1, 2, 50]


# ------------------------------------------------ Alg. 3: target arrival ----
def arrive(pm, cid, tenant=0, draining=False):
    """Alg. 3's entry with the flags a target decoded from the capsule."""
    return pm.on_command(None, make_cmd(cid, draining=draining, tenant=tenant), draining, tenant)


def test_alg3_ls_bypasses_queues():
    """An LS command goes straight to the device; the PM never queues it."""
    env, target, _profile, wires, log = _build(OpfTarget)
    env.call_at(1.0, wires[LS_TENANT].deliver, _cmd(1, LS_TENANT, LS_FLAGS))
    env.run()
    assert target.pm.windows == {}
    assert [row[2:4] for row in log if row[2] != "icresp"] == [("data", 1), ("resp", 1)]


def test_alg3_tc_queues_until_drain():
    pm = TargetPriorityManager()
    for cid in range(3):
        assert arrive(pm, cid, tenant=4) is None
    assert list(pm.windows[4]) == [0, 1, 2]

    group, batch = arrive(pm, 3, tenant=4, draining=True)
    assert group.drain_cid == 3
    assert group.cids == [0, 1, 2, 3]
    assert [p.sqe.cid for _c, p in batch] == [0, 1, 2, 3]
    assert pm.windows[4] == {}


def test_alg3_tenant_isolation():
    """Lock-free design: tenant A's drain must not flush tenant B."""
    pm = TargetPriorityManager()
    arrive(pm, 0, tenant=1)
    arrive(pm, 1, tenant=2)
    group, _batch = arrive(pm, 2, tenant=1, draining=True)
    assert group.cids == [0, 2]
    assert list(pm.windows[2]) == [1]  # tenant 2 untouched


def test_alg3_same_cids_different_tenants_allowed():
    pm = TargetPriorityManager()
    arrive(pm, 7, tenant=1)
    arrive(pm, 7, tenant=2)  # same CID, distinct tenant
    assert list(pm.windows[1]) == [7]
    assert list(pm.windows[2]) == [7]


# ---------------------------------------------- Alg. 4: target completion ----
def test_alg4_ls_completion_responds_immediately():
    """An LS completion is answered on its own, with no drain group."""
    env, target, _profile, wires, log = _build(OpfTarget)
    env.call_at(1.0, wires[LS_TENANT].deliver, _cmd(1, LS_TENANT, LS_FLAGS))
    env.run()
    responses = [row for row in log if row[2] == "resp"]
    assert [(cid, coalesced, count) for _t, _n, _k, cid, coalesced, count, _s in responses] == [
        (1, False, 1)
    ]
    assert target.stats.coalesced_notifications == 0


def test_alg4_tc_group_responds_only_when_all_done():
    group = DrainGroup(tenant_id=0, drain_cid=3, cids=[0, 1, 2, 3])
    assert not group.mark_complete(1, 0)
    assert not group.mark_complete(3, 0)  # drain done early!
    assert not group.mark_complete(0, 0)
    assert group.mark_complete(2, 0)  # last member


def test_drain_group_out_of_order_completion_safe():
    """Out-of-order device completions (§IV-C) never release the window early."""
    group = DrainGroup(tenant_id=0, drain_cid=2, cids=[0, 1, 2])
    assert not group.mark_complete(2)  # drain finishes first
    assert group.pending == 2
    assert not group.complete


def test_drain_group_propagates_worst_status():
    group = DrainGroup(tenant_id=0, drain_cid=1, cids=[0, 1])
    group.mark_complete(0, status=0x80)
    group.mark_complete(1, status=0)
    assert group.worst_status == 0x80


def test_drain_group_validation():
    with pytest.raises(ProtocolError):
        DrainGroup(tenant_id=0, drain_cid=9, cids=[0, 1])
    with pytest.raises(ProtocolError):
        DrainGroup(tenant_id=0, drain_cid=1, cids=[1, 1])
    group = DrainGroup(tenant_id=0, drain_cid=1, cids=[0, 1])
    with pytest.raises(ProtocolError):
        group.mark_complete(5)
    group.mark_complete(0)
    with pytest.raises(ProtocolError):
        group.mark_complete(0)  # double completion


# -------------------------------------------------------- tenant windows ----
def test_registry_creates_and_limits_tenants():
    """A tenant's window appears with its first command; the flag byte
    carries MAX_TENANTS ids, and no other id is admitted."""
    pm = TargetPriorityManager()
    arrive(pm, 1, tenant=0)
    arrive(pm, 2, tenant=MAX_TENANTS - 1)
    arrive(pm, 3, tenant=0)  # an existing window is reused
    assert {t: list(w) for t, w in pm.windows.items()} == {0: [1, 3], MAX_TENANTS - 1: [2]}
    with pytest.raises(TenantError):
        pm.on_command(None, make_cmd(4), False, MAX_TENANTS)
    assert sorted(pm.windows) == [0, MAX_TENANTS - 1]
