"""Tests for the NVMe-oPF flag codec and CID queues."""

import pytest

from repro.core import (
    CidQueue,
    FLAG_DRAINING,
    FLAG_THROUGHPUT_CRITICAL,
    Priority,
    check_tenant_id,
    pack_flags,
    unpack_flags,
)
from repro.errors import ProtocolError, TenantError


# ------------------------------------------------------------------ flags ----
def test_pack_latency_sensitive_is_zero():
    assert pack_flags(Priority.LATENCY) == 0


def test_pack_throughput_critical():
    assert pack_flags(Priority.THROUGHPUT) == FLAG_THROUGHPUT_CRITICAL


def test_pack_draining():
    flags = pack_flags(Priority.THROUGHPUT, draining=True)
    assert flags == FLAG_THROUGHPUT_CRITICAL | FLAG_DRAINING


def test_flags_fit_in_two_bits():
    """§IV-A: 'we modestly use two reserved bits'."""
    for priority in Priority:
        for draining in (False, True):
            if draining and priority is Priority.LATENCY:
                continue
            assert pack_flags(priority, draining) < 4


def test_unpack_roundtrip():
    for priority in Priority:
        for draining in (False, True):
            if draining and priority is Priority.LATENCY:
                continue
            got_p, got_d = unpack_flags(pack_flags(priority, draining))
            assert got_p is priority
            assert got_d is draining


def test_draining_requires_throughput():
    with pytest.raises(ProtocolError):
        pack_flags(Priority.LATENCY, draining=True)
    with pytest.raises(ProtocolError):
        unpack_flags(FLAG_DRAINING)  # draining without TC bit


def test_unpack_rejects_unknown_bits():
    with pytest.raises(ProtocolError):
        unpack_flags(0b100)


def test_priority_parse():
    assert Priority.parse("latency") is Priority.LATENCY
    assert Priority.parse("THROUGHPUT") is Priority.THROUGHPUT
    assert Priority.parse(Priority.LATENCY) is Priority.LATENCY
    with pytest.raises(ProtocolError):
        Priority.parse("fast")


def test_tenant_id_range():
    assert check_tenant_id(0) == 0
    assert check_tenant_id(255) == 255
    with pytest.raises(TenantError):
        check_tenant_id(256)
    with pytest.raises(TenantError):
        check_tenant_id(-1)


# -------------------------------------------------------------- CID queue ----
def test_cid_queue_fifo_drain_through():
    q = CidQueue()
    for cid in [5, 9, 2, 7]:
        q.push(cid)
    assert q.drain_through(2) == [5, 9, 2]
    assert len(q) == 1
    assert 7 in q and 5 not in q


def test_cid_queue_drain_through_head():
    q = CidQueue()
    q.push(1)
    q.push(2)
    assert q.drain_through(1) == [1]
    assert len(q) == 1 and 2 in q and 1 not in q


def test_cid_queue_drain_unknown_cid_rejected():
    q = CidQueue()
    q.push(1)
    with pytest.raises(ProtocolError):
        q.drain_through(99)


def test_cid_queue_duplicate_push_rejected():
    q = CidQueue()
    q.push(4)
    with pytest.raises(ProtocolError):
        q.push(4)


def test_cid_queue_cid_range():
    q = CidQueue()
    with pytest.raises(ProtocolError):
        q.push(0x10000)
    with pytest.raises(ProtocolError):
        q.push(-1)

