"""Pin what the SSD does with a command, from submit to its completion.

One :class:`NvmeSsd` with two normal queue pairs and one urgent one is
driven through every per-command path the controller has: bursts larger
than the channel count through ``submit`` and ``submit_batch`` (so commands
wait for a channel), an idle device (a command starts at once), urgent
commands arriving while normal ones wait, resubmission from inside a
completion callback, a flush, out-of-range LBAs (refused at submit, and
failed by the controller on a namespace that reaches past the device), a
``DeviceErrorInjector``, a ``fault_status`` fault, FTL write penalties and a
``service_scale`` change mid-run.

Every completion's ``(time, qid, cid, status)`` is logged, and after each
burst so are the controller's round-robin index, each SQ's
``submitted_total``, head and tail, and each CQ's head and tail.  The
values were recorded before the controller's idle-device start path
existed, so a faster path that changes any arbitration, draw or ring
effect fails here.
"""

import hashlib

import pytest

from repro.errors import DeviceError, QueueFullError
from repro.simcore import Environment, RandomStreams
from repro.ssd import (
    DeviceErrorInjector,
    FtlConfig,
    NvmeSsd,
    OP_FLUSH,
    OP_READ,
    OP_WRITE,
    SsdProfile,
)
from repro.ssd.queues import STATUS_INTERNAL_ERROR


def _sq_state(qp):
    sq = qp._qpair.sq
    return (sq.submitted_total, sq._head, sq._tail)


def _cq_state(qp):
    cq = qp._qpair.cq
    return (cq._head, cq._tail)


def _drive():
    env = Environment()
    profile = SsdProfile(
        name="pin", channels=3, read_mean_us=10.0, write_mean_us=15.0, read_cv=0.4
    )
    ssd = NvmeSsd(
        env,
        profile=profile,
        streams=RandomStreams(5),
        ftl_config=FtlConfig(buffer_bytes=64 * 1024, drain_bytes_per_us=200.0),
    )
    # A namespace reaching past the device's capacity: its LBAs pass the
    # host's range check and are failed by the controller instead.
    ssd.add_namespace(2, profile.capacity_blocks + 64)
    ctrl = ssd.controller
    normal_a = ssd.create_qpair(depth=8)
    normal_b = ssd.create_qpair(depth=8)
    urgent = ssd.create_qpair(depth=8, urgent=True)
    qpairs = (normal_a, normal_b, urgent)
    log = []
    snapshots = []
    doorbells = []

    def all_sqs_empty():
        return all(qp._qpair.sq._head == qp._qpair.sq._tail for qp in qpairs)

    for qp in qpairs:
        sq = qp._qpair.sq
        ring = sq.doorbell

        def doorbell(ring=ring):
            ring()
            # _arbitrate fetches until every SQ is empty.
            doorbells.append(all_sqs_empty())

        sq.doorbell = doorbell

    resubmit = {"left": 4}

    def on_done(qid):
        def record(completion):
            log.append((env.now, qid, completion.cid, completion.status))
            if qid == 1 and resubmit["left"] and completion.cid % 3 == 0:
                # Closed loop: submit from inside the completion callback,
                # while the channel that just finished is free.
                resubmit["left"] -= 1
                normal_a.read(1, slba=500 + completion.cid, nlb=1)

        return record

    for qp in qpairs:
        qp.on_completion = on_done(qp._qpair.qid)

    def snapshot(label):
        assert all_sqs_empty(), label
        snapshots.append(
            (
                label,
                env.now,
                ctrl._rr_index,
                ctrl._free_channels,
                len(ctrl._dispatch),
                len(ctrl._dispatch_urgent),
                tuple(_sq_state(qp) for qp in qpairs),
                tuple(_cq_state(qp) for qp in qpairs),
            )
        )

    def burst_submit(_):
        for i in range(5):  # more than the three channels
            normal_a.read(1, slba=i * 8, nlb=1 + i % 3)
        normal_b.write(1, slba=64, nlb=2)
        snapshot("burst-submit")

    def burst_batch(_):
        normal_b.submit_batch(
            [
                (OP_READ, 1, 100, 1, None),
                (OP_WRITE, 1, 108, 4, None),
                (OP_FLUSH, 1, 0, 1, None),
                (OP_READ, 1, 116, 2, None),
            ]
        )
        snapshot("burst-batch")

    def urgent_contention(_):
        normal_a.write(1, slba=200, nlb=1)
        normal_a.write(1, slba=201, nlb=1)
        normal_b.read(1, slba=202, nlb=1)
        normal_b.read(1, slba=203, nlb=1)
        urgent.read(1, slba=300, nlb=1)
        urgent.read(1, slba=301, nlb=2)
        snapshot("urgent-contention")

    def idle_singles(_):
        # The device is idle: each command could start the moment it is
        # submitted, from a different queue pair each time.
        normal_b.read(1, slba=400, nlb=1)
        snapshot("idle-b")
        urgent.read(1, slba=401, nlb=1)
        snapshot("idle-urgent")
        normal_a.flush(1)
        snapshot("idle-a-flush")

    def out_of_range(_):
        with pytest.raises(DeviceError):
            normal_a.read(1, slba=profile.capacity_blocks, nlb=1)
        with pytest.raises(DeviceError):
            normal_a.read(9, slba=0, nlb=1)
        normal_b.read(2, slba=profile.capacity_blocks, nlb=1)
        normal_a.read(1, slba=410, nlb=1)
        snapshot("out-of-range")

    injector = {}

    def injected_errors(_):
        injector["on"] = DeviceErrorInjector(ctrl, fail_every=3)
        for i in range(7):
            (normal_a if i % 2 else normal_b).read(1, slba=600 + i, nlb=1)
        snapshot("injector")

    def faulted(_):
        injector["on"].restore()
        ctrl.fault_status = STATUS_INTERNAL_ERROR
        normal_a.read(1, slba=700, nlb=1)
        ctrl.fault_status = None
        normal_b.read(1, slba=701, nlb=1)
        snapshot("fault-status")

    def slow_device(_):
        ctrl.service_scale = 2.5
        normal_b.submit_batch([(OP_WRITE, 1, 800 + i, 1, None) for i in range(5)])
        urgent.read(1, slba=810, nlb=1)
        snapshot("scaled")

    def restore_speed(_):
        ctrl.service_scale = 1.0
        for i in range(4):
            normal_a.write(1, slba=900 + i * 4, nlb=4)
        snapshot("unscaled")

    script = [
        (0.0, burst_submit),
        (4.0, burst_batch),
        (12.0, urgent_contention),
        (400.0, idle_singles),
        (405.0, out_of_range),
        (600.0, injected_errors),
        (800.0, faulted),
        (1000.0, slow_device),
        (1030.0, restore_speed),
    ]
    for at, step in script:
        env.call_at(at, step)
    env.run()
    snapshot("end")
    return log, snapshots, doorbells, ctrl


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_ssd_command_path_is_pinned():
    log, snapshots, doorbells, ctrl = _drive()
    # Every SQ is empty after every doorbell (how many ring depends on
    # how many commands found the device idle).
    assert doorbells and all(doorbells)
    assert len(log) == 44
    assert [row[0] for row in snapshots] == [
        "burst-submit", "burst-batch", "urgent-contention", "idle-b", "idle-urgent",
        "idle-a-flush", "out-of-range", "injector", "fault-status", "scaled",
        "unscaled", "end",
    ]
    assert [row[2] for row in snapshots] == PINNED_RR
    assert snapshots[-1][3:] == PINNED_END
    statuses = {}
    for _t, _qid, _cid, status in log:
        statuses[status] = statuses.get(status, 0) + 1
    assert statuses == PINNED_STATUSES
    assert (ctrl.commands_completed, ctrl.commands_failed, ctrl.commands_faulted) == (
        PINNED_COUNTERS
    )
    assert _digest(log) == PINNED_LOG_DIGEST
    assert _digest(snapshots) == PINNED_SNAPSHOT_DIGEST


def test_refused_batch_leaves_the_queue_empty():
    env = Environment()
    ssd = NvmeSsd(env, streams=RandomStreams(0))
    qp = ssd.create_qpair(depth=4)  # three usable slots
    with pytest.raises(QueueFullError):
        qp.submit_batch([(OP_READ, 1, i, 1, None) for i in range(4)])
    sq = qp._qpair.sq
    assert (sq.submitted_total, sq._head, sq._tail) == (0, 0, 0)


#: Recorded with the doorbell-only submit path (no idle-device start).
PINNED_RR = [2, 2, 0, 2, 0, 1, 1, 2, 2, 0, 1, 1]
PINNED_END = (3, 0, 0, ((21, 5, 5), (19, 3, 3), (4, 4, 4)), ((5, 5), (3, 3), (4, 4)))
PINNED_STATUSES = {0x0: 40, 0x80: 3, 0x6: 1}
PINNED_COUNTERS = (40, 4, 1)
PINNED_LOG_DIGEST = "e9faebd27b32b098480e2f33eb483b2b412172fb4b8d712bb0044c48f572dcbd"
PINNED_SNAPSHOT_DIGEST = "2c061fa49c084d8f574e5e0f32f55cdf124e74d1aa1da8dde4a64d53676d0731"
