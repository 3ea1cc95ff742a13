"""Tests for trace synthesis and open-loop replay."""

import pytest

from repro.cluster.node import InitiatorNode, TargetNode
from repro.core.flags import Priority
from repro.errors import WorkloadError
from repro.net import Fabric
from repro.simcore import Environment, RandomStreams
from repro.workloads import TraceRecordEntry, TraceReplayer, synthesize_trace


def make_rig(protocol="nvme-opf", queue_depth=64):
    env = Environment()
    fabric = Fabric(env, rate_gbps=100)
    tnode = TargetNode(env, "t0", fabric, RandomStreams(31), protocol=protocol)
    inode = InitiatorNode(env, "c0", fabric)
    initiator = inode.add_initiator(
        "replay", tnode, protocol=protocol, queue_depth=queue_depth, window_size=16
    )
    env.run(until=initiator.connect())
    return env, initiator


# ------------------------------------------------------------- synthesis ----
def test_synthesize_trace_profile():
    rng = RandomStreams(1).stream("trace")
    trace = synthesize_trace(rng, duration_us=50_000, iops=20_000,
                             read_fraction=0.7, latency_fraction=0.1)
    assert len(trace) > 500
    times = [e.time_us for e in trace]
    assert times == sorted(times)
    reads = sum(e.op == "read" for e in trace) / len(trace)
    assert 0.6 < reads < 0.8
    ls = sum(e.priority is Priority.LATENCY for e in trace) / len(trace)
    assert 0.05 < ls < 0.16


def test_synthesize_validation():
    rng = RandomStreams(1).stream("t")
    with pytest.raises(WorkloadError):
        synthesize_trace(rng, duration_us=0, iops=100)
    with pytest.raises(WorkloadError):
        synthesize_trace(rng, duration_us=100, iops=100, read_fraction=2.0)


def test_trace_entry_validation():
    with pytest.raises(WorkloadError):
        TraceRecordEntry(time_us=-1, op="read", slba=0, nlb=1)
    with pytest.raises(WorkloadError):
        TraceRecordEntry(time_us=0, op="trim", slba=0, nlb=1)
    with pytest.raises(WorkloadError):
        TraceRecordEntry(time_us=0, op="read", slba=0, nlb=0)


# ----------------------------------------------------------------- replay ----
def test_replay_respects_timestamps():
    env, initiator = make_rig()
    trace = [
        TraceRecordEntry(0.0, "read", 0, 1),
        TraceRecordEntry(500.0, "read", 8, 1),
        TraceRecordEntry(1_000.0, "write", 16, 1),
    ]
    replayer = TraceReplayer(env, initiator, trace)
    env.run(until=replayer.done)
    assert replayer.issued == 3
    assert replayer.dropped == 0
    # The last request could not have been submitted before its timestamp.
    assert replayer.requests[-1].submitted_at >= 1_000.0
    assert all(r.done for r in replayer.requests)


def test_replay_open_loop_drops_on_overload():
    """Offered load far beyond the queue depth must shed, not stall."""
    env, initiator = make_rig(queue_depth=4)
    trace = [TraceRecordEntry(float(i) * 0.01, "read", i, 1) for i in range(300)]
    replayer = TraceReplayer(env, initiator, trace)
    env.run(until=replayer.done)
    assert replayer.dropped > 0
    assert replayer.issued + replayer.dropped == 300
    assert all(r.done for r in replayer.requests)


def test_replay_mixed_priorities_end_to_end():
    env, initiator = make_rig()
    rng = RandomStreams(3).stream("trace")
    trace = synthesize_trace(rng, duration_us=3_000, iops=50_000,
                             latency_fraction=0.2)
    replayer = TraceReplayer(env, initiator, trace)
    env.run(until=replayer.done)
    env.run()
    ls = replayer.latencies(Priority.LATENCY)
    tc = replayer.latencies(Priority.THROUGHPUT)
    assert ls and tc
    # Open-loop LS requests should see lower latency than coalesced TC.
    import numpy as np

    assert np.mean(ls) < np.mean(tc)


def test_replay_validation():
    env, initiator = make_rig()
    with pytest.raises(WorkloadError):
        TraceReplayer(env, initiator, [])
