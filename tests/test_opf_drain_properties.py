"""Chaos-safe drain protocol: property & unit tests for both Priority Managers.

The paper's Algorithms 1-4 assume every window member and every coalesced
response arrives exactly once.  These tests drive randomized interleavings
of send / retry / duplicated-response / dropped-response against the
initiator and target Priority Managers (no transport, no CPU model) and
assert the hardened protocol's core invariants:

* every throughput-critical CID is retired **exactly once**;
* the un-drained window never exceeds ``window_size`` pending members;
* stale/replayed coalesced responses are counted and ignored — never
  double-retired, never an error;
* a truly unknown drain CID is still a protocol violation;
* resync reconciliation drops exactly the orphans at or below the
  announced high-water mark, exactly once per new epoch.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cid_queue import CidQueue, RETIRED_MEMORY, cid_le
from repro.core.flags import Priority, unpack_flags
from repro.core.priority_manager import InitiatorPriorityManager, TargetPriorityManager
from repro.core.window import DrainWatchdog
from repro.errors import ConfigError, ProtocolError
from repro.metrics.report import jain_fairness
from repro.nvmeof.capsule import Sqe
from repro.nvmeof.pdu import CapsuleCmdPdu, IcReqPdu
from repro.simcore.engine import Environment
from repro.ssd.latency import OP_FLUSH, OP_READ


# -- serial-number CID ordering -----------------------------------------------------
class TestCidLe:
    def test_plain_ordering(self):
        assert cid_le(1, 2) and cid_le(5, 5) and not cid_le(3, 2)

    def test_survives_the_16bit_wrap(self):
        assert cid_le(0xFFFE, 0x0001)  # 3 steps forward across the wrap
        assert not cid_le(0x0001, 0xFFFE)

    def test_half_space_boundary(self):
        assert cid_le(0, 0x7FFF)
        assert not cid_le(0, 0x8000)


# -- duplicate-tolerant drain_through (satellite: stale vs unknown) ----------------
class TestCidQueueDuplicates:
    def test_stale_duplicate_is_counted_and_ignored(self):
        q = CidQueue()
        for cid in (1, 2, 3):
            q.push(cid)
        assert q.drain_through(3) == [1, 2, 3]
        assert q.drain_through(3) == []  # replayed response: empty walk
        assert q.drain_through(2) == []  # older replay: also stale
        assert q.duplicate_drains == 2
        assert q.last_retired == 3

    def test_unknown_cid_still_raises(self):
        q = CidQueue()
        q.push(1)
        with pytest.raises(ProtocolError, match="unknown CID 99"):
            q.drain_through(99)
        assert q.duplicate_drains == 0

    def test_reused_cid_starts_a_fresh_life(self):
        q = CidQueue()
        q.push(7)
        q.drain_through(7)
        assert q.was_retired(7)
        q.push(7)  # 16-bit wrap reuse: must not be treated as duplicate
        assert not q.was_retired(7)
        assert q.drain_through(7) == [7]

    def test_retired_memory_is_bounded(self):
        q = CidQueue(retired_memory=4)
        for cid in range(6):
            q.push(cid)
            q.drain_through(cid)
        # Only the 4 newest retirements are remembered.
        assert not q.was_retired(0) and not q.was_retired(1)
        assert all(q.was_retired(c) for c in (2, 3, 4, 5))
        with pytest.raises(ProtocolError):
            q.drain_through(0)  # forgotten: indistinguishable from unknown

    def test_default_memory_covers_many_queue_depths(self):
        assert RETIRED_MEMORY >= 4096

    def test_epoch_advance_keeps_members(self):
        q = CidQueue()
        q.push(1)
        assert q.advance_epoch() == 1
        assert q.advance_epoch() == 2
        assert len(q) == 1 and 1 in q


class _PerCidMemory:
    """Reference: the retired-CID memory kept one retired CID at a time."""

    def __init__(self, size):
        self.ring = deque(maxlen=size)
        self.retired = set()
        self.last = None

    def push(self, cid):
        self.retired.discard(cid)

    def retire(self, cid):
        """Remember ``cid``; returns the CID it evicted, or None."""
        evicted = None
        if len(self.ring) == self.ring.maxlen:
            evicted = self.ring[0]
            self.retired.discard(evicted)
        self.ring.append(cid)
        self.retired.add(cid)
        self.last = cid
        return evicted


def _ring_oldest_first(q):
    """Decode the queue's u16 ring: oldest first from the head index."""
    ring, head = q._retired_ring, q._retired_head
    assert len(ring) <= q._retired_memory and (head == 0 or len(ring) == q._retired_memory)
    return list(ring[head:]) + list(ring[:head])


def _remembered(q):
    """Decode the queue's bitmap: every CID whose bit is set."""
    bits = q._retired_bits
    if bits is None:
        return set()
    assert len(bits) == 0x10000 // 8
    return {8 * i + bit for i, byte in enumerate(bits) if byte for bit in range(8) if byte >> bit & 1}


def _assert_matches(q, ref):
    assert _ring_oldest_first(q) == list(ref.ring)
    assert _remembered(q) == ref.retired
    assert q.last_retired == ref.last


QUEUE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "drain_through", "remove"]),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=QUEUE_OPS, memory=st.integers(min_value=1, max_value=5))
def test_retired_memory_matches_the_per_cid_reference(ops, memory):
    """A drain walk remembers its CIDs exactly as one-by-one retirement.

    Eight CIDs and a ring of at most five make reuse and eviction common,
    so the ring (oldest first), the CIDs the bitmap remembers and the
    high-water mark are compared after every operation.
    """
    q = CidQueue(retired_memory=memory)
    ref = _PerCidMemory(memory)
    for op, cid in ops:
        if op == "push":
            if cid in q:
                continue
            q.push(cid)
            ref.push(cid)
        elif cid not in q:
            continue
        elif op == "drain_through":
            for retired in q.drain_through(cid):
                ref.retire(retired)
        else:
            q.remove(cid)
            ref.retire(cid)
        _assert_matches(q, ref)
        assert [q.was_retired(c) for c in range(8)] == [c in ref.retired for c in range(8)]


def test_retired_memory_matches_the_reference_across_the_cid_wrap():
    """Three and more laps of the 16-bit CID space through the default memory.

    CIDs come from a wrapping counter, as an initiator allocates them, and
    now and then a CID still in the ring is pushed again.  After
    every operation each CID it pushed, retired or forgot is looked up in
    both; every 509 operations, and at the end, the whole ring and bitmap
    are compared.
    """
    rng = random.Random(7)
    q = CidQueue(retired_memory=RETIRED_MEMORY)
    ref = _PerCidMemory(RETIRED_MEMORY)
    next_cid = 0xFF00
    retirements = wraps = ops = 0
    while retirements < 3 * 0x10000 + RETIRED_MEMORY:
        touched = []
        for _ in range(rng.randint(1, 40)):
            cid = next_cid
            if ref.ring and rng.random() < 0.05:
                cid = ref.ring[rng.randrange(len(ref.ring))]  # reuse a CID still in the ring
            else:
                next_cid = (next_cid + 1) & 0xFFFF
                wraps += next_cid == 0
            if cid in q:
                continue
            q.push(cid)
            ref.push(cid)
            touched.append(cid)
        queued = list(q._queue)
        roll = rng.random()
        if roll < 0.8:
            retired = q.drain_through(queued[rng.randrange(len(queued))])
        elif roll < 0.9:
            retired = q.drain_through(queued[-1])  # the whole queue
        else:
            cid = queued[rng.randrange(len(queued))]
            q.remove(cid)
            retired = [cid]
        for cid in retired:
            touched.append(cid)
            evicted = ref.retire(cid)
            if evicted is not None:
                touched.append(evicted)
        retirements += len(retired)
        ops += 1
        assert q.last_retired == ref.last
        for cid in touched:
            assert q.was_retired(cid) == (cid in ref.retired)
        if ops % 509 == 0:
            _assert_matches(q, ref)
    _assert_matches(q, ref)
    assert wraps >= 3


# -- drain watchdog -----------------------------------------------------------------
class TestDrainWatchdog:
    def test_expiry_fires_on_lost(self):
        env = Environment()
        lost = []
        wd = DrainWatchdog(env, 10.0, lost.append)
        wd.arm(5)
        env.run(until=11.0)
        assert lost == [5] and wd.expired == 1 and wd.outstanding == 0

    def test_disarm_makes_the_deadline_a_noop(self):
        env = Environment()
        lost = []
        wd = DrainWatchdog(env, 10.0, lost.append)
        wd.arm(5)
        wd.disarm(5)
        env.run(until=20.0)
        assert lost == [] and wd.expired == 0

    def test_rearm_supersedes_the_old_deadline(self):
        env = Environment()
        lost = []
        wd = DrainWatchdog(env, 10.0, lost.append)
        wd.arm(5)
        env.run(until=6.0)
        wd.arm(5)  # restart the clock at t=6
        env.run(until=11.0)
        assert lost == []  # the t=10 deadline was superseded
        env.run(until=17.0)
        assert lost == [5]

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ConfigError):
            DrainWatchdog(Environment(), 0.0, lambda cid: None)


# -- initiator PM: retry-aware stamping ---------------------------------------------
def _sqe(cid, op=OP_READ):
    return Sqe.for_io(op, cid=cid)


class TestRestamp:
    def test_restamp_preserves_flags_without_reregistering(self):
        pm = InitiatorPriorityManager(window_size=4, queue_depth=16)
        sqe = _sqe(1)
        draining = pm.before_send(sqe, Priority.THROUGHPUT, tenant_id=3)
        before = (len(pm.cid_queue), pm.pending_undrained)
        resend = _sqe(1)
        assert pm.restamp(resend, Priority.THROUGHPUT, draining, tenant_id=3) == draining
        assert (len(pm.cid_queue), pm.pending_undrained) == before
        assert resend.rsvd_priority == sqe.rsvd_priority
        assert resend.rsvd_tenant == 3

    def test_restamp_of_unregistered_tc_cid_raises(self):
        pm = InitiatorPriorityManager(window_size=4, queue_depth=16)
        with pytest.raises(ProtocolError, match="not window-registered"):
            pm.restamp(_sqe(9), Priority.THROUGHPUT, False, tenant_id=0)

    def test_restamped_drain_keeps_its_draining_flag(self):
        pm = InitiatorPriorityManager(window_size=2, queue_depth=16)
        pm.before_send(_sqe(1), Priority.THROUGHPUT, 0)
        first = _sqe(2)
        assert pm.before_send(first, Priority.THROUGHPUT, 0)  # drain
        resend = _sqe(2)
        assert pm.restamp(resend, Priority.THROUGHPUT, True, 0)
        assert unpack_flags(resend.rsvd_priority) == (Priority.THROUGHPUT, True)
        assert resend.rsvd_priority == first.rsvd_priority
        assert pm.pending_undrained == 0  # the resend opened no new window
        assert pm.on_coalesced_response(2) == [1, 2]

    def test_forced_drain_counted_separately(self):
        pm = InitiatorPriorityManager(window_size=8, queue_depth=16)
        pm.before_send(_sqe(1), Priority.THROUGHPUT, 0)
        marker = _sqe(2, op=OP_FLUSH)
        pm.force_drain_flags(marker, tenant_id=0, forced=True)
        assert pm.forced_drains == 1
        priority, draining = unpack_flags(marker.rsvd_priority)
        assert priority is Priority.THROUGHPUT and draining
        assert pm.on_coalesced_response(2) == [1, 2]
        # Replay of the same response: ignored, counted.
        assert pm.on_coalesced_response(2) == []
        assert pm.duplicate_drains == 1

    def test_on_reconnect_announces_epoch_and_highwater(self):
        pm = InitiatorPriorityManager(window_size=2, queue_depth=16)
        pm.before_send(_sqe(1), Priority.THROUGHPUT, 0)
        pm.before_send(_sqe(2), Priority.THROUGHPUT, 0)
        pm.on_coalesced_response(2)
        assert pm.on_reconnect() == (1, 2)
        assert pm.on_reconnect() == (2, 2)


# -- target PM: duplicate members + resync ------------------------------------------
class _FakeConn:
    tenant_id = None


def _cmd(cid, tenant=0, draining=False, op=OP_READ):
    sqe = _sqe(cid, op=op)
    # Stamp via the real flag codec to keep the wire format honest.
    from repro.core.flags import pack_flags

    sqe.rsvd_priority = pack_flags(Priority.THROUGHPUT, draining)
    sqe.rsvd_tenant = tenant
    return CapsuleCmdPdu(sqe=sqe)


def _arrive(pm, conn, pdu):
    """Alg. 3 for ``pdu`` with the flags decoded as the target decodes them."""
    sqe = pdu.sqe
    _priority, draining = unpack_flags(sqe.rsvd_priority)
    return pm.on_command(conn, pdu, draining, sqe.rsvd_tenant)


class TestTargetDuplicates:
    def test_duplicate_queued_member_is_dropped(self):
        pm = TargetPriorityManager()
        conn = _FakeConn()
        _arrive(pm, conn, _cmd(1))
        assert _arrive(pm, conn, _cmd(1)) is None  # retry of a queued member
        assert pm.duplicate_commands == 1
        _group, batch = _arrive(pm, conn, _cmd(2, draining=True))
        assert [p.sqe.cid for _c, p in batch] == [1, 2]

    def test_retry_of_executed_member_requeues(self):
        pm = TargetPriorityManager()
        conn = _FakeConn()
        _arrive(pm, conn, _cmd(1))
        _arrive(pm, conn, _cmd(2, draining=True))  # flushes {1, 2}
        assert _arrive(pm, conn, _cmd(1)) is None  # late resend of 1
        assert pm.duplicate_commands == 0
        _group, batch = _arrive(pm, conn, _cmd(3, draining=True))
        assert [p.sqe.cid for _c, p in batch] == [1, 3]


class TestResync:
    def _loaded_pm(self):
        pm = TargetPriorityManager()
        conn = _FakeConn()
        for cid in (10, 11, 12):
            _arrive(pm, conn, _cmd(cid, tenant=1))
        return pm

    def test_initial_epoch_zero_reconciles_nothing(self):
        pm = self._loaded_pm()
        assert pm.resync(1, epoch=0, last_retired=None) == []
        assert pm.resyncs == 0

    def test_higher_epoch_drops_orphans_below_highwater(self):
        pm = self._loaded_pm()
        pm.resync(1, epoch=0, last_retired=None)
        orphans = pm.resync(1, epoch=1, last_retired=11)
        assert [p.sqe.cid for _c, p in orphans] == [10, 11]
        assert pm.resyncs == 1
        assert pm.orphans_completed == 2 and pm.orphans_requeued == 1
        assert list(pm.windows[1]) == [12]

    def test_stale_or_repeated_epoch_is_a_noop(self):
        pm = self._loaded_pm()
        pm.resync(1, epoch=2, last_retired=10)
        queued = list(pm.windows[1])
        assert pm.resync(1, epoch=2, last_retired=12) == []  # duplicated handshake
        assert pm.resync(1, epoch=1, last_retired=12) == []  # stale
        assert list(pm.windows[1]) == queued
        assert pm.resyncs == 1

    def test_resync_for_unknown_tenant_is_safe(self):
        pm = TargetPriorityManager()
        pm.resync(5, epoch=0, last_retired=None)
        assert pm.resync(5, epoch=3, last_retired=100) == []
        assert pm.resyncs == 1

    def test_highwater_uses_serial_ordering_across_the_wrap(self):
        pm = TargetPriorityManager()
        conn = _FakeConn()
        for cid in (0xFFFE, 0xFFFF, 0x0001):
            _arrive(pm, conn, _cmd(cid, tenant=2))
        pm.resync(2, epoch=0, last_retired=None)
        orphans = pm.resync(2, epoch=1, last_retired=0xFFFF)
        assert [p.sqe.cid for _c, p in orphans] == [0xFFFE, 0xFFFF]
        assert list(pm.windows[2]) == [0x0001]


# -- target PM against a reference: each tenant's window as a plain list ------------
#: Twelve CIDs that straddle the 16-bit wrap: 0xFFFA..0xFFFF, then 0x0000..0x0005.
WINDOW_POOL = [(0xFFFA + i) & 0xFFFF for i in range(12)]
WINDOW_TENANTS = (1, 2, 3)

WINDOW_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("arrive"),
            st.sampled_from(WINDOW_TENANTS),
            st.sampled_from(WINDOW_POOL),
            st.sampled_from((False, False, False, True)),  # drain one arrival in four
        ),
        st.tuples(
            st.just("resync"),
            st.sampled_from(WINDOW_TENANTS),
            st.integers(min_value=0, max_value=4),
            st.one_of(st.none(), st.sampled_from(WINDOW_POOL)),
        ),
    ),
    max_size=80,
)


class _WindowReference:
    """Alg. 3 and the resync exchange, one tenant window a list of
    ``(cid, conn, pdu)`` in arrival order."""

    def __init__(self):
        self.windows = {}
        self.epochs = {}
        self.duplicate_commands = 0
        self.resyncs = 0
        self.orphans_completed = 0
        self.orphans_requeued = 0

    def arrive(self, conn, pdu, draining, tenant):
        """None while the command queues; ``(cids, entries)`` when it drains."""
        window = self.windows.setdefault(tenant, [])
        cid = pdu.sqe.cid
        if cid in [c for c, _conn, _pdu in window]:
            self.duplicate_commands += 1
            return None
        window.append((cid, conn, pdu))
        if not draining:
            return None
        flushed = list(window)
        window.clear()
        return [c for c, _conn, _pdu in flushed], [(c, p) for _cid, c, p in flushed]

    def resync(self, tenant, epoch, last_retired):
        seen = self.epochs.get(tenant)
        if seen is not None and epoch <= seen:
            return []  # a repeated or stale handshake
        self.epochs[tenant] = epoch
        if seen is None and epoch == 0:
            return []  # the initial handshake
        self.resyncs += 1
        window = self.windows.get(tenant)
        if window is None:
            return []
        orphans = []
        if last_retired is not None:
            orphans = [e for e in window if cid_le(e[0], last_retired)]
            window[:] = [e for e in window if not cid_le(e[0], last_retired)]
        self.orphans_completed += len(orphans)
        self.orphans_requeued += len(window)
        return [(c, p) for _cid, c, p in orphans]


def _same_entries(got, want):
    """Equal lengths, and each ``(conn, pdu)`` the very objects, in order."""
    return len(got) == len(want) and all(
        g[0] is w[0] and g[1] is w[1] for g, w in zip(got, want)
    )


@settings(max_examples=300, deadline=None)
@given(steps=WINDOW_STEPS)
def test_target_windows_match_the_list_reference(steps):
    """Arrivals and resyncs over three tenants, compared after every step.

    The CID pool is small enough that duplicates are common and straddles
    the wrap, so the resync's serial-number split is exercised on both
    sides of it; epochs from 0..4 make rising, repeated and stale
    handshakes.
    """
    pm = TargetPriorityManager()
    ref = _WindowReference()
    conns = {tenant: _FakeConn() for tenant in WINDOW_TENANTS}
    for kind, tenant, value, extra in steps:
        if kind == "arrive":
            pdu = _cmd(value, tenant=tenant, draining=extra)
            got = pm.on_command(conns[tenant], pdu, extra, tenant)
            want = ref.arrive(conns[tenant], pdu, extra, tenant)
            if want is None:
                assert got is None
            else:
                group, batch = got
                cids, entries = want
                assert (group.tenant_id, group.drain_cid, group.size, group.cids) == (
                    tenant,
                    value,
                    len(cids),
                    cids,
                )
                assert _same_entries(batch, entries)
        else:
            got = pm.resync(tenant, value, extra)
            assert _same_entries(got, ref.resync(tenant, value, extra))
        assert (
            pm.duplicate_commands,
            pm.resyncs,
            pm.orphans_completed,
            pm.orphans_requeued,
        ) == (ref.duplicate_commands, ref.resyncs, ref.orphans_completed, ref.orphans_requeued)


# -- handshake PDU carries the resync state -----------------------------------------
class TestIcReqResyncRoundtrip:
    def test_epoch_and_highwater_survive_the_wire(self):
        pdu = IcReqPdu(tenant_id=3, resync_epoch=7, last_retired=0xBEEF,
                       has_last_retired=True)
        decoded = IcReqPdu.decode(pdu.encode())
        assert decoded.tenant_id == 3
        assert decoded.resync_epoch == 7
        assert decoded.last_retired == 0xBEEF and decoded.has_last_retired
        assert pdu.wire_size == IcReqPdu.HLEN  # size unchanged: reserved bytes

    def test_absent_highwater_is_distinguishable_from_cid_zero(self):
        fresh = IcReqPdu.decode(IcReqPdu(tenant_id=1).encode())
        assert not fresh.has_last_retired and fresh.resync_epoch == 0


# -- fairness index ------------------------------------------------------------------
class TestFairness:
    def test_equal_shares_are_perfectly_fair(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_monopoly_approaches_one_over_n(self):
        assert jain_fairness([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_zero_are_fair_by_convention(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0


# -- the property: randomized chaos interleavings ------------------------------------
ACTIONS = st.lists(
    st.one_of(
        st.just(("send",)),
        st.tuples(st.just("retry"), st.integers(min_value=0, max_value=10 ** 6)),
        st.just(("deliver",)),
        st.just(("drop",)),
        st.tuples(st.just("dup"), st.integers(min_value=0, max_value=10 ** 6)),
        st.just(("force",)),
    ),
    min_size=1,
    max_size=80,
)


class _Harness:
    """Couples the two PMs through an unreliable 'wire' the test controls."""

    def __init__(self, window_size):
        self.window = window_size
        self.ipm = InitiatorPriorityManager(window_size=window_size, queue_depth=4096)
        self.tpm = TargetPriorityManager()
        self.conn = _FakeConn()
        self.next_cid = 0
        self.sent = []  # every workload CID ever issued
        self.pending_responses = []  # drain CIDs en route to the initiator
        self.answered = []  # drain CIDs already delivered (replayable)
        self.retired = []  # every CID the initiator retired, in order

    def _stamp_and_deliver(self, cid, draining):
        from repro.core.flags import pack_flags

        sqe = _sqe(cid)
        sqe.rsvd_priority = pack_flags(Priority.THROUGHPUT, draining)
        sqe.rsvd_tenant = 0
        flushed = _arrive(self.tpm, self.conn, CapsuleCmdPdu(sqe=sqe))
        if flushed is not None:
            # Device completes the whole window instantly in this model.
            self.pending_responses.append(flushed[0].drain_cid)

    def send(self):
        cid = self.next_cid
        self.next_cid += 1
        sqe = _sqe(cid)
        draining = self.ipm.before_send(sqe, Priority.THROUGHPUT, 0)
        self.sent.append((cid, draining))
        self._stamp_and_deliver(cid, draining)

    def retry(self, pick):
        live = [(c, d) for c, d in self.sent if self.ipm.is_registered(c)]
        if not live:
            return
        cid, draining = live[pick % len(live)]
        self.ipm.restamp(_sqe(cid), Priority.THROUGHPUT, draining, 0)
        self._stamp_and_deliver(cid, draining)

    def deliver(self):
        if not self.pending_responses:
            return
        drain_cid = self.pending_responses.pop(0)
        self.retired.extend(self.ipm.on_coalesced_response(drain_cid))
        self.answered.append(drain_cid)

    def drop(self):
        if self.pending_responses:
            self.pending_responses.pop(0)

    def dup(self, pick):
        pool = self.answered + self.pending_responses
        if not pool:
            return
        self.retired.extend(self.ipm.on_coalesced_response(pool[pick % len(pool)]))

    def force(self):
        """The drain watchdog's recovery move (lost response presumed)."""
        if len(self.ipm.cid_queue) == 0:
            return
        cid = self.next_cid
        self.next_cid += 1
        sqe = _sqe(cid, op=OP_FLUSH)
        self.ipm.force_drain_flags(sqe, tenant_id=0, forced=True)
        self._stamp_and_deliver(cid, True)

    def settle(self):
        """Post-chaos recovery: force-drain until every window retires."""
        for _ in range(2 * self.window + len(self.sent) + 8):
            while self.pending_responses:
                self.deliver()
            if len(self.ipm.cid_queue) == 0:
                return
            self.force()
        raise AssertionError("drain protocol failed to settle")


@given(actions=ACTIONS, window=st.integers(min_value=1, max_value=8))
@settings(max_examples=120, deadline=None)
def test_random_interleavings_retire_every_cid_exactly_once(actions, window):
    h = _Harness(window)
    for action in actions:
        kind = action[0]
        if kind == "send":
            h.send()
        elif kind == "retry":
            h.retry(action[1])
        elif kind == "deliver":
            h.deliver()
        elif kind == "drop":
            h.drop()
        elif kind == "dup":
            h.dup(action[1])
        else:
            h.force()
        # The un-drained window is bounded at every step (Alg. 1 resets the
        # counter when it reaches the window size).
        assert h.ipm.pending_undrained < max(h.window, 1) or h.window == 1
        assert h.ipm.pending_undrained <= h.window

    h.settle()

    # Exactly-once: every workload CID retired once, no CID retired twice.
    workload = [cid for cid, _d in h.sent]
    assert len(h.retired) == len(set(h.retired))
    assert set(workload).issubset(set(h.retired))
    # Whatever else was retired can only be drain markers the harness sent.
    assert set(h.retired) <= set(range(h.next_cid))
    # Whatever the target still holds is a CID the harness sent.
    assert set(h.tpm.windows.get(0, ())) <= set(range(h.next_cid))
