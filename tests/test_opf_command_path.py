"""Pin what the oPF targets do with a command, from arrival to its response.

Each target is driven straight through its connections (no network, no
initiator) by a timed script of command capsules from one latency-sensitive
(LS) tenant and two throughput-critical (TC) tenants, over an SSD with few
channels and variable service times:

* :class:`OpfTarget` -- windows of size 1, 3 and W (mixed reads and
  writes), a marker-only window, an explicit drain marker after members, a
  retried duplicate of a queued member, a member the device fails (worst
  status), two windows of one tenant whose device work finishes out of
  order, a reconnect resync that drops one orphan, and LS commands (reads,
  a write, a flush) interleaved so tenant-switch costs apply;
* :class:`SharedQueueOpfTarget` -- premature flushes of other tenants'
  entries, a drain marker in the shared queue, and a full queue;
* :class:`DevicePriorityOpfTarget` -- LS commands routed to the urgent
  device qpair while a TC window holds every channel.

Every PDU a target sends is logged with its time, type, CID, ``coalesced``,
``coalesced_count`` and status, together with the target's stats, the
Priority Manager's counters, the CPU core's busy time and the heap-entry
count.  The values were recorded before the per-command stages were
collapsed, so a faster path that changes any timing, ordering or count
fails here.
"""

import hashlib

import pytest

from repro.core import DevicePriorityOpfTarget, OpfTarget, SharedQueueOpfTarget
from repro.cpu.core import CpuCore
from repro.errors import ProtocolError
from repro.nvmeof.capsule import Sqe
from repro.nvmeof.pdu import C2HDataPdu, CapsuleCmdPdu, CapsuleRespPdu, IcReqPdu, IcRespPdu
from repro.nvmeof.subsystem import Subsystem
from repro.simcore import Environment, RandomStreams
from repro.ssd import NvmeSsd, SsdProfile

LS = 0b00
TC = 0b01
DRAIN = 0b11

LS_TENANT, TENANT_A, TENANT_B = 0, 1, 2


class _Wire:
    """One target connection's transport: logs every PDU the target sends."""

    def __init__(self, env, name, log):
        self.env = env
        self.name = name
        self.log = log
        self.deliver = None

    def set_handler(self, handler):
        self.deliver = handler

    def send(self, pdu):
        now = self.env.now
        if isinstance(pdu, CapsuleRespPdu):
            cqe = pdu.cqe
            row = (now, self.name, "resp", cqe.cid, pdu.coalesced, pdu.coalesced_count, cqe.status)
        elif isinstance(pdu, C2HDataPdu):
            row = (now, self.name, "data", pdu.cid, pdu.data_len)
        else:
            assert isinstance(pdu, IcRespPdu)
            row = (now, self.name, "icresp")
        self.log.append(row)


def _cmd(cid, tenant, flags, op="read", nsid=1, slba=0, nlb=1):
    sqe = Sqe.for_io(op, cid=cid, nsid=nsid, slba=slba, nlb=nlb)
    sqe.rsvd_priority = flags
    sqe.rsvd_tenant = tenant
    return CapsuleCmdPdu(sqe=sqe, data_len=nlb * 4096 if op == "write" else 0)


def _build(target_cls, channels=4, **kwargs):
    env = Environment()
    profile = SsdProfile(
        name="pin", channels=channels, read_mean_us=10.0, write_mean_us=15.0, read_cv=0.5
    )
    ssd = NvmeSsd(env, profile=profile, streams=RandomStreams(7))
    # A namespace reaching past the device's capacity: its LBAs pass the
    # host's range check and are failed by the controller instead.
    ssd.add_namespace(2, profile.capacity_blocks + 64)
    subsystem = Subsystem("nqn.2024-01.io.repro:pin")
    subsystem.add_namespace(1, ssd, 1)
    subsystem.add_namespace(2, ssd, 2)
    core = CpuCore(env, "target-core")
    target = target_cls(env, "target", core, subsystem, **kwargs)
    log = []
    wires = {}
    for tenant in (LS_TENANT, TENANT_A, TENANT_B):
        wire = _Wire(env, f"t{tenant}", log)
        target.bind(wire)
        wires[tenant] = wire
    for tenant, wire in wires.items():
        env.call_at(0.0, wire.deliver, IcReqPdu(tenant_id=tenant))
    return env, target, profile, wires, log


def _run_script(env, wires, script):
    """Deliver each ``(time, pdu)`` on its tenant's connection, in order."""
    for at, pdu in script:
        env.call_at(at, wires[pdu.sqe.rsvd_tenant].deliver, pdu)
    env.run()


def _pm_counters(pm):
    return (
        pm.duplicate_commands,
        pm.resyncs,
        pm.orphans_completed,
        pm.orphans_requeued,
        sum(len(window) for window in pm.windows.values()),
    )


def _target_stats(target):
    stats = target.stats
    return tuple(getattr(stats, name) for name in type(stats).__slots__)


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _outcome(env, target, log):
    return {
        "pdus": len(log),
        "log": _digest(log),
        "stats": _target_stats(target),
        "pm": _pm_counters(target.pm),
        "busy": target.core.busy_time,
        "entries": env._seq,
        "now": env.now,
    }


# -- OpfTarget ----------------------------------------------------------------------
def _opf_script(capacity_blocks):
    a, b, ls = TENANT_A, TENANT_B, LS_TENANT
    return [
        # A window of one: the draining command alone.
        (5.0, _cmd(100, a, DRAIN, slba=0)),
        (6.0, _cmd(10, ls, LS, slba=1)),
        # A window of three.
        (7.0, _cmd(200, b, TC, slba=2)),
        (7.0, _cmd(201, b, TC, slba=3)),
        (7.5, _cmd(202, b, DRAIN, slba=4)),
        (8.0, _cmd(11, ls, LS, slba=5)),
        # A full window of W = 8, reads and writes mixed.
        (9.0, _cmd(101, a, TC, slba=10)),
        (9.0, _cmd(102, a, TC, slba=11, nlb=2)),
        (9.1, _cmd(103, a, TC, op="write", slba=13)),
        (9.2, _cmd(104, a, TC, slba=14)),
        (9.3, _cmd(105, a, TC, op="write", slba=15, nlb=3)),
        (9.4, _cmd(106, a, TC, slba=18)),
        (9.5, _cmd(107, a, TC, slba=19)),
        (9.6, _cmd(108, a, DRAIN, slba=20)),
        # A marker-only window: nothing of B's is queued.
        (10.0, _cmd(203, b, DRAIN, op="flush")),
        # An explicit drain marker after three members.
        (12.0, _cmd(109, a, TC, slba=30)),
        (12.0, _cmd(110, a, TC, slba=31)),
        (12.1, _cmd(111, a, TC, slba=32)),
        (12.2, _cmd(112, a, DRAIN, op="flush")),
        (13.0, _cmd(12, ls, LS, slba=33)),
        # A retried duplicate of a queued member, and a member the device
        # fails: the window's response carries the worst status.
        (14.0, _cmd(204, b, TC, slba=40)),
        (14.5, _cmd(204, b, TC, slba=40)),
        (15.0, _cmd(205, b, TC, nsid=2, slba=capacity_blocks + 8)),
        (15.5, _cmd(206, b, DRAIN, slba=41)),
        # Two windows of A: the first is slow on the device, the second
        # fast, yet the responses leave in formation order.
        (20.0, _cmd(113, a, TC, slba=100, nlb=32)),
        (20.0, _cmd(114, a, DRAIN, slba=132, nlb=32)),
        (21.0, _cmd(115, a, DRAIN, slba=164)),
        (22.0, _cmd(13, ls, LS, op="write", slba=165)),
        (23.0, _cmd(14, ls, LS, op="flush")),
        # Reconnect resync: B's queued 207 is an orphan, 208 stays queued.
        (300.0, _cmd(207, b, TC, slba=200)),
        (300.0, _cmd(208, b, TC, slba=201)),
        (303.0, _cmd(209, b, DRAIN, slba=202)),
        (303.5, _cmd(15, ls, LS, slba=203)),
    ]


def _drive_opf():
    env, target, profile, wires, log = _build(OpfTarget)
    resync = IcReqPdu(tenant_id=TENANT_B, resync_epoch=1, last_retired=207, has_last_retired=True)
    env.call_at(302.0, wires[TENANT_B].deliver, resync)
    _run_script(env, wires, _opf_script(profile.capacity_blocks))
    return env, target, log


def test_opf_target_command_path_is_pinned():
    env, target, log = _drive_opf()
    coalesced = [(row[1], row[3], row[5], row[6]) for row in log if row[2] == "resp" and row[4]]
    assert coalesced == PINNED_OPF_WINDOWS
    assert _outcome(env, target, log) == PINNED_OPF


# -- SharedQueueOpfTarget -------------------------------------------------------------
def _shared_script():
    a, b, ls = TENANT_A, TENANT_B, LS_TENANT
    return [
        # A's drain flushes B's queued entry too: B's is answered alone.
        (5.0, _cmd(100, a, TC, slba=0)),
        (5.0, _cmd(200, b, TC, slba=1)),
        (5.5, _cmd(101, a, TC, slba=2)),
        (6.0, _cmd(10, ls, LS, slba=3)),
        (6.5, _cmd(102, a, DRAIN, slba=4)),
        (8.0, _cmd(201, b, TC, slba=5)),
        (8.5, _cmd(202, b, DRAIN, slba=6)),
        # A drain marker in the shared queue, with B's entry flushed early.
        (10.0, _cmd(103, a, TC, slba=7)),
        (10.0, _cmd(203, b, TC, op="write", slba=8)),
        (10.5, _cmd(104, a, DRAIN, op="flush")),
        (11.0, _cmd(11, ls, LS, slba=9)),
        # A full queue: the draining command overflows and stalls.
        (200.0, _cmd(110, a, TC, slba=20)),
        (200.0, _cmd(111, a, TC, slba=21)),
        (200.0, _cmd(204, b, TC, slba=22)),
        (200.0, _cmd(112, a, TC, slba=23)),
        (200.0, _cmd(113, a, DRAIN, slba=24)),
    ]


def test_shared_queue_target_command_path_is_pinned():
    env, target, _profile, wires, log = _build(SharedQueueOpfTarget, tc_queue_depth=4)
    _run_script(env, wires, _shared_script())
    assert (target.premature_flushes, target.individual_tc_responses) == (2, 2)
    assert target.stalled_requests == 1
    assert _outcome(env, target, log) == PINNED_SHARED


# -- DevicePriorityOpfTarget ----------------------------------------------------------
def _devprio_script():
    a, b, ls = TENANT_A, TENANT_B, LS_TENANT
    script = [(5.0, _cmd(100 + i, a, TC, slba=i, nlb=4)) for i in range(5)]
    script += [
        (5.0, _cmd(105, a, DRAIN, slba=20, nlb=4)),
        # Every channel is busy and A's members wait: LS takes the urgent class.
        (6.0, _cmd(10, ls, LS, slba=30)),
        (6.5, _cmd(11, ls, LS, op="flush")),
        (7.0, _cmd(200, b, TC, slba=31)),
        (7.0, _cmd(201, b, DRAIN, slba=32)),
        (8.0, _cmd(12, ls, LS, op="write", slba=33)),
        # An idle device.
        (400.0, _cmd(13, ls, LS, slba=34)),
    ]
    return script


def test_device_priority_target_command_path_is_pinned():
    env, target, _profile, wires, log = _build(DevicePriorityOpfTarget, channels=2)
    _run_script(env, wires, _devprio_script())
    assert target.urgent_submissions == 4
    assert _outcome(env, target, log) == PINNED_DEVPRIO


# -- refusal at arrival ---------------------------------------------------------------
@pytest.mark.parametrize("target_cls", [OpfTarget, SharedQueueOpfTarget, DevicePriorityOpfTarget])
@pytest.mark.parametrize("flags", [0x02, 0x04, 0xFF])
def test_unknown_flag_byte_is_refused_at_arrival(target_cls, flags):
    env, target, _profile, wires, _log = _build(target_cls)
    env.run()
    conn = target.connections[TENANT_A]
    seq = env._seq
    with pytest.raises(ProtocolError):
        target._handle_command(conn, _cmd(100, TENANT_A, flags))
    # Refused before any work was scheduled.
    assert env._seq == seq
    assert target.pm.windows == {}


#: (connection, drain CID, coalesced_count, status) of every coalesced response.
PINNED_OPF_WINDOWS = [
    ("t1", 100, 1, 0),
    ("t2", 202, 3, 0),
    ("t2", 203, 1, 0),
    ("t1", 108, 8, 0),
    ("t1", 112, 4, 0),
    ("t2", 206, 3, 0x80),
    ("t1", 114, 2, 0),
    ("t1", 115, 1, 0),
    ("t2", 209, 2, 0),
]
PINNED_OPF = {
    "pdus": 44,
    "log": "1a83b6ac3fc5d4fe42c9f98d511cb96a529280298ae88f6a2d0213350e60ef93",
    "stats": (33, 15, 9, 25, 31, 11),
    "pm": (1, 1, 1, 1, 0),
    "busy": 107.45000000000003,
    "entries": 150,
    "now": 320.69062475144983,
}
PINNED_SHARED = {
    "pdus": 19,
    "log": "7d8831a8b9f429669dcc02f749fe8ebe545fc01f5b925d2878fc8247a26e55f9",
    "stats": (16, 7, 3, 9, 11, 6),
    "pm": (0, 0, 0, 0, 0),
    "busy": 54.849999999999994,
    "entries": 66,
    "now": 205.75000000000003,
}
PINNED_DEVPRIO = {
    "pdus": 19,
    "log": "0a842ba450000186ba46e9047e3faaba0fdddf3c16db9ca3f6b7ee07ccafdf94",
    "stats": (12, 6, 2, 10, 12, 3),
    "pm": (0, 0, 0, 0, 0),
    "busy": 42.75,
    "entries": 58,
    "now": 418.02283173405425,
}
