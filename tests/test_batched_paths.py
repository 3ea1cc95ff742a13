"""Equivalence audits for the batched/struct-of-arrays hot paths.

Each refactored layer must be observably identical to the per-item code it
replaced:

* batched telemetry taps fold buffered completions through the EWMA/P²
  estimators in arrival order — every snapshot field bit-identical to an
  eagerly-updated reference;
* ``SubmissionQueue.submit_batch`` / ``IoQpair.submit_batch`` ring one
  doorbell per batch but preserve CID allocation, execution order, and
  completion times exactly;
* the TCP sender's parallel-array message framing slices the same message
  runs the old linear scan produced, through ACK pruning and compaction.
"""

import pytest

from repro.errors import QueueFullError
from repro.qos.telemetry import RATE_WINDOW_TICKS, Ewma, P2Quantile, TenantTelemetry
from repro.simcore import Environment
from repro.simcore.rng import RandomStreams
from repro.ssd.device import NvmeSsd
from repro.ssd.latency import OP_FLUSH, OP_READ, OP_WRITE
from repro.ssd.queues import NvmeCommand, SubmissionQueue


# ---------------------------------------------------------------------------
# Telemetry: batched flush == eager per-completion updates
# ---------------------------------------------------------------------------


class _EagerReference:
    """The pre-refactor per-completion update logic, kept as the oracle."""

    def __init__(self):
        self.latency_ewma = Ewma(0.2)
        self.peak_ewma = Ewma(0.5)
        self.tail = P2Quantile(0.99)
        self.total_ops = 0
        self.total_bytes = 0
        self.total_failed = 0
        self._iops = 0
        self._ibytes = 0
        self._imax = 0.0
        self._isum = 0.0

    def observe(self, latency_us, nbytes, failed=False):
        self.total_ops += 1
        self._iops += 1
        self._isum += latency_us
        if latency_us > self._imax:
            self._imax = latency_us
        self.latency_ewma.update(latency_us)
        self.tail.add(latency_us)
        if failed:
            self.total_failed += 1
        else:
            self.total_bytes += nbytes
            self._ibytes += nbytes

    def close_interval(self):
        ops, imax = self._iops, self._imax
        self._iops = 0
        self._ibytes = 0
        self._imax = 0.0
        self._isum = 0.0
        if ops:
            self.peak_ewma.update(imax)


def test_batched_telemetry_matches_eager_reference_exactly():
    """Interleave completions and ticks; every estimator and counter must
    stay bit-identical to eager per-completion updates."""
    import numpy as np

    rng = np.random.default_rng(17)
    tel = TenantTelemetry("t0")
    ref = _EagerReference()
    now = 0.0
    for tick in range(30):
        n = int(rng.integers(0, 12))
        for _ in range(n):
            latency = float(rng.lognormal(4.0, 0.5))
            nbytes = int(rng.integers(1, 9)) * 4096
            failed = bool(rng.random() < 0.1)
            tel.observe(latency, nbytes, failed=failed)
            ref.observe(latency, nbytes, failed=failed)
        now += 100.0
        sample = tel.snapshot(now, 100.0)
        assert sample.ops == n
        assert tel.latency_ewma.value == ref.latency_ewma.value
        assert tel.tail.count == ref.tail.count
        assert tel.tail.value == ref.tail.value
        assert tel.total_ops == ref.total_ops
        assert tel.total_bytes == ref.total_bytes
        assert tel.total_failed == ref.total_failed
        ref.close_interval()
        assert tel.peak_ewma.value == ref.peak_ewma.value


def test_telemetry_totals_flush_pending_on_read():
    tel = TenantTelemetry("t")
    tel.observe(100.0, 4096)
    tel.observe(200.0, 4096, failed=True)
    # Direct attribute reads must see the buffered completions.
    assert tel.total_ops == 2
    assert tel.total_bytes == 4096
    assert tel.total_failed == 1
    assert tel._pending == []  # drained by the property reads


def test_telemetry_p99_flushes_pending():
    tel = TenantTelemetry("t")
    for i in range(64):
        tel.observe(100.0 + i, 4096)
    assert tel.p99_estimate is not None
    assert tel._pending == []


def test_telemetry_snapshot_drains_interval_and_pending():
    tel = TenantTelemetry("t")
    tel.observe(50.0, 1000)
    s1 = tel.snapshot(100.0, 100.0)
    assert s1.ops == 1 and s1.bytes_moved == 1000
    s2 = tel.snapshot(200.0, 100.0)
    assert s2.ops == 0 and s2.bytes_moved == 0
    assert len(tel._rate_ring) == min(2, RATE_WINDOW_TICKS)


# ---------------------------------------------------------------------------
# SQ doorbell batching
# ---------------------------------------------------------------------------


def _run_submissions(batched):
    env = Environment()
    ssd = NvmeSsd(env, streams=RandomStreams(5), name="nvme0")
    qp = ssd.create_qpair(depth=64)
    done = []
    qp.on_completion = lambda c: done.append((c.cid, c.status, c.completed_at))
    specs = []
    for i in range(24):
        op = (OP_READ, OP_WRITE, OP_FLUSH)[i % 3]
        if op == OP_FLUSH:
            specs.append((op, 1, 0, 1, None))
        else:
            specs.append((op, 1, i * 4, 1 + i % 3, None))
    if batched:
        commands = qp.submit_batch(specs)
        assert [c.cid for c in commands] == list(range(24))
    else:
        for op, nsid, slba, nlb, ctx in specs:
            qp.submit(op, nsid=nsid, slba=slba, nlb=nlb, context=ctx)
    env.run()
    return done


def test_submit_batch_completions_identical_to_submit_loop():
    assert _run_submissions(batched=True) == _run_submissions(batched=False)


def test_submit_batch_rings_doorbell_once():
    env = Environment()
    sq = SubmissionQueue(env, depth=16)
    rings = []
    sq.doorbell = lambda: rings.append(len(sq))
    cmds = [NvmeCommand(cid=i, opcode=OP_READ, slba=i, nlb=1) for i in range(5)]
    sq.submit_batch(cmds)
    assert rings == [5]  # one ring, after all five commands were placed
    assert sq.submitted_total == 5


def test_submit_batch_empty_is_silent():
    env = Environment()
    sq = SubmissionQueue(env, depth=8)
    rings = []
    sq.doorbell = lambda: rings.append(1)
    sq.submit_batch([])
    assert rings == [] and sq.submitted_total == 0


def test_submit_batch_overflow_raises_queue_full():
    env = Environment()
    sq = SubmissionQueue(env, depth=4)  # 3 usable slots
    cmds = [NvmeCommand(cid=i, opcode=OP_READ, slba=i, nlb=1) for i in range(4)]
    with pytest.raises(QueueFullError):
        sq.submit_batch(cmds)


def test_submit_batch_stamps_submission_time():
    env = Environment(initial_time=7.5)
    sq = SubmissionQueue(env, depth=8)
    cmds = [NvmeCommand(cid=0, opcode=OP_READ, slba=0, nlb=1)]
    sq.submit_batch(cmds)
    assert cmds[0].submitted_at == 7.5


def test_iqpair_submit_batch_validates_lba_ranges():
    env = Environment()
    ssd = NvmeSsd(env, streams=RandomStreams(0))
    qp = ssd.create_qpair(depth=16)
    from repro.errors import DeviceError

    with pytest.raises(DeviceError):
        qp.submit_batch([(OP_READ, 1, ssd.profile.capacity_blocks, 8, None)])


def test_iqpair_refused_batch_leaves_no_command_outstanding():
    from repro.errors import DeviceError

    env = Environment()
    ssd = NvmeSsd(env)
    qp = ssd.create_qpair(depth=4)  # 3 usable SQ slots
    past_end = ssd.profile.capacity_blocks
    with pytest.raises(DeviceError):
        qp.submit_batch([(OP_READ, 1, 0, 1, None), (OP_READ, 1, past_end, 1, None)])
    assert qp.outstanding == 0
    with pytest.raises(QueueFullError):
        qp.submit_batch([(OP_READ, 1, i, 1, None) for i in range(4)])
    assert qp.outstanding == 0
    done = []
    qp.on_completion = done.append
    command = qp.submit(OP_READ, slba=0, nlb=1)
    assert command.cid == 0
    env.run()
    assert [c.cid for c in done] == [0] and done[0].ok
    assert qp.outstanding == 0


# ---------------------------------------------------------------------------
# TCP sender framing arrays
# ---------------------------------------------------------------------------


def _make_socket():
    from repro.net.nic import Nic
    from repro.net.tcp import TcpSocket

    env = Environment()

    class _NullEgress:
        """Swallows every frame the socket sends into its uplink."""

        def __init__(self):
            self.sent = []

        def send(self, packet):
            self.sent.append(packet)
            return True

    class _NullNic(Nic):
        def __init__(self, env):
            self.env = env
            self.node = "n0"
            self._handlers = {}
            self.egress = _NullEgress()

        def register_connection(self, conn_id, on_data, on_ack=None):
            self._handlers[conn_id] = (on_data, on_ack)

    nic = _NullNic(env)
    sock = TcpSocket(env, nic, remote_node="n1", conn_id=1)
    return env, nic, sock


def _ack(sock, ackno):
    """Feed ``sock`` a cumulative ACK for ``ackno``, as its NIC would."""
    from repro.net import Packet

    sock._on_ack(Packet("n1", "n0", sock.conn_id, "ack", 0, 0, ackno))


def test_segment_messages_bisect_matches_linear_scan():
    _env, _nic, sock = _make_socket()
    sizes = [100, 250, 50, 400, 125, 75]
    ends = []
    total = 0
    for i, size in enumerate(sizes):
        total += size
        ends.append(total)
        sock._msg_ends.append(total)
        sock._msg_payloads.append(f"m{i}")
        sock._buffered_end = total

    def linear(lo, hi):
        return [
            (end, f"m{i}")
            for i, end in enumerate(ends)
            if lo < end <= hi
        ]

    for lo in range(0, total + 1, 25):
        for hi in (lo + 1, lo + 100, lo + 500, total + 10):
            assert sock._segment_messages(lo, hi - lo) == linear(lo, hi)


def test_ack_prune_advances_head_and_compacts():
    _env, _nic, sock = _make_socket()
    n = 3000
    for i in range(n):
        sock.send_message(f"m{i}", 100)
    # ACK everything: each cumulative ACK opens the window further, so keep
    # acking the transmitted frontier until the whole backlog has flowed
    # through.  The prune path must advance past every message (and compact
    # once the dead prefix dominates).
    while sock._snd_una < sock._buffered_end:
        _ack(sock, sock._snd_nxt)
    assert sock._msg_head == len(sock._msg_ends) or sock._msg_head == 0
    # After full acknowledgement no message frames remain visible.
    assert sock._segment_messages(0, n * 100) == []


def test_sender_framing_survives_compaction_boundary():
    _env, _nic, sock = _make_socket()
    for i in range(2000):
        sock.send_message(f"m{i}", 10)
        _ack(sock, sock._snd_nxt)  # ack as we go => head grows, compacts
    assert sock.stats.messages_sent == 2000
    # Everything acked: framing arrays fully pruned.
    assert sock._segment_messages(0, 40000) == []
