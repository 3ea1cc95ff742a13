"""Priority Managers — one per NVMe-oPF runtime (paper §III, Fig. 5).

The initiator-side manager implements Algorithms 1 and 2 (flagging, window
counting, drain-response queue walks); the target-side manager implements
Algorithm 3 (per-tenant windows and their flushes) and forms the drain
groups whose members Algorithm 4 completes
(:meth:`~repro.core.coalescing.DrainGroup.mark_complete`).  The target
decodes each command's flags once on arrival, and latency-sensitive
commands bypass the manager there.  Keeping the managers free of any
transport or CPU-model dependency makes the paper's pseudocode directly
unit-testable.

Both managers are hardened for chaos: the paper's pseudocode assumes every
window member and drain response arrives exactly once, which a retried
command or a lost/replayed coalesced completion violates.  The initiator
manager re-stamps resends idempotently (:meth:`InitiatorPriorityManager
.restamp`) and tolerates duplicated coalesced responses (counted, never
double-retired); the target manager ignores duplicate window members and
reconciles orphaned per-tenant entries when a qpair reconnects with a new
drain epoch (:meth:`TargetPriorityManager.resync`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import ConfigError, ProtocolError
from .cid_queue import CidQueue, cid_le
from .coalescing import DrainGroup
from .flags import FLAG_DRAINING, FLAG_THROUGHPUT_CRITICAL, Priority, check_tenant_id, pack_flags

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nvmeof.capsule import Sqe
    from ..nvmeof.pdu import CapsuleCmdPdu
    from ..nvmeof.target import TargetConnection

    #: One queued command and the connection it arrived on.
    _Entry = Tuple[TargetConnection, CapsuleCmdPdu]


class InitiatorPriorityManager:
    """Initiator-side PM: Alg. 1 (before send) and Alg. 2 (on response)."""

    def __init__(self, window_size: int, queue_depth: int) -> None:
        if window_size < 1:
            raise ConfigError("window size must be >= 1")
        if window_size > queue_depth:
            # §IV-A: a window larger than the queue depth means the qpair
            # exhausts before a draining flag is ever sent -> live-lock.
            raise ConfigError(
                f"window {window_size} > queue depth {queue_depth} would "
                f"live-lock the initiator"
            )
        self.window_size = window_size
        self.queue_depth = queue_depth
        self.cid_queue = CidQueue()
        self._since_drain = 0
        #: Individual responses received for *queued* TC CIDs — only a
        #: broken (shared-queue) target produces these (§IV-A).
        self.premature_responses = 0
        #: Drain markers issued by the watchdog after a lost drain response.
        self.forced_drains = 0

    @property
    def pending_undrained(self) -> int:
        """TC requests sent since the last draining flag."""
        return self._since_drain

    @property
    def epoch(self) -> int:
        """Current drain epoch (bumped on every qpair reconnect)."""
        return self.cid_queue.epoch

    @property
    def duplicate_drains(self) -> int:
        """Stale/replayed coalesced responses recognised and ignored."""
        return self.cid_queue.duplicate_drains

    def before_send(self, sqe: "Sqe", priority: Priority, tenant_id: int) -> bool:
        """Alg. 1: stamp flags/tenant into the SQE; returns drain decision."""
        # The flag byte is written directly (pack_flags' encoding).
        draining = False
        flags = 0
        if priority is Priority.THROUGHPUT:
            self.cid_queue.push(sqe.cid)
            flags = FLAG_THROUGHPUT_CRITICAL
            self._since_drain += 1
            if self._since_drain >= self.window_size:
                draining = True
                flags = FLAG_THROUGHPUT_CRITICAL | FLAG_DRAINING
                self._since_drain = 0
        sqe.rsvd_priority = flags
        sqe.rsvd_tenant = tenant_id
        return draining

    def restamp(self, sqe: "Sqe", priority: Priority, draining: bool, tenant_id: int) -> bool:
        """Re-stamp a *resend* of an already-registered command (Alg. 1 bis).

        A retried command must carry exactly the flags of its original send
        — the same priority/tenant bits and, crucially, the same draining
        decision — without re-entering the CID queue or advancing the
        window counter: the command is already a member of its window, and
        double-registration is precisely the corruption a replayed send
        would otherwise cause.  Returns the preserved draining bit.
        """
        if priority is Priority.THROUGHPUT and sqe.cid not in self.cid_queue:
            raise ProtocolError(
                f"restamp for TC CID {sqe.cid} that is not window-registered"
            )
        sqe.rsvd_priority = pack_flags(priority, draining)
        sqe.rsvd_tenant = tenant_id
        return draining

    def is_registered(self, cid: int) -> bool:
        """Whether ``cid`` is currently a member of the pending window."""
        return cid in self.cid_queue

    def resize(self, window_size: int) -> bool:
        """Adopt a new window size mid-stream (the QoS control plane's knob).

        Validated like construction (§IV-A live-lock guard).  Window
        membership and the drain epoch are kept:
        resizing changes only *future* draining decisions.  The since-drain
        counter is likewise preserved — when it already meets a *smaller*
        window the next TC send carries the draining flag, so a shrink takes
        effect within one send.  Returns True when the pending partial
        window already satisfies the new size (callers may flush it
        immediately instead of waiting for that next send).
        """
        if window_size < 1:
            raise ConfigError("window size must be >= 1")
        if window_size > self.queue_depth:
            raise ConfigError(
                f"window {window_size} > queue depth {self.queue_depth} would "
                f"live-lock the initiator"
            )
        self.window_size = window_size
        return self._since_drain >= window_size

    def force_drain_flags(self, sqe: "Sqe", tenant_id: int, forced: bool = False) -> None:
        """Stamp an explicit drain marker (flush command carrying DRAINING).

        ``forced`` marks a watchdog-issued recovery marker (a drain
        response was lost); it is counted separately from scheduled drains.
        """
        self.cid_queue.push(sqe.cid)
        sqe.rsvd_priority = pack_flags(Priority.THROUGHPUT, draining=True)
        sqe.rsvd_tenant = tenant_id
        self._since_drain = 0
        if forced:
            self.forced_drains += 1

    def on_coalesced_response(self, drain_cid: int) -> List[int]:
        """Alg. 2: retire, in order, every queued CID through ``drain_cid``.

        Duplicate-tolerant: a stale or replayed coalesced response (its
        drain CID already retired) returns an empty walk and is counted in
        :attr:`duplicate_drains` — it never double-retires.
        """
        return self.cid_queue.drain_through(drain_cid)

    def on_individual_response(self, cid: int) -> bool:
        """Handle a non-coalesced response.

        LS responses never enter the CID queue, so normally this is a no-op
        returning False.  An individual response for a *queued* TC CID means
        the target flushed the window prematurely (the shared-queue hazard
        of §IV-A): the CID is removed out of order and counted, and True is
        returned so callers can track the anomaly.
        """
        if cid in self.cid_queue:
            self.cid_queue.remove(cid)
            self.premature_responses += 1
            # Note: the since-drain submission counter is deliberately NOT
            # adjusted — the initiator must keep emitting draining flags on
            # schedule or a broken target would starve it of drains entirely.
            return True
        return False

    def on_reconnect(self) -> Tuple[int, Optional[int]]:
        """Start a new drain epoch after a qpair disconnect.

        Returns ``(epoch, last_retired)`` — the resync announcement the
        reconnect handshake carries to the target.  Window membership is
        kept: the outstanding commands will be resent (and re-stamped) on
        the new session.
        """
        return self.cid_queue.advance_epoch(), self.cid_queue.last_retired


class TargetPriorityManager:
    """Target-side PM: Alg. 3 (queue, or flush the window into a drain group).

    Each tenant has its own window (§IV-A, the lock-free design): a draining
    flag flushes only its sender's commands.  One queue shared by all
    tenants would let a tenant's drain flush other tenants' incomplete
    windows early, and can live-lock once the windows together outgrow its
    depth; :mod:`repro.core.ablation` runs that design so the hazard can be
    measured.  A window is one insertion-ordered dict from CID to the
    queued ``(conn, pdu)``: the capsule is referenced, never copied, and
    the dict's order is arrival order, so a flush returns the window as
    the tenant sent it.
    """

    def __init__(self) -> None:
        #: Tenant id -> that tenant's window, CID -> ``(conn, pdu)`` in
        #: arrival order; a tenant's entry appears with its first command.
        self.windows: Dict[int, Dict[int, "_Entry"]] = {}
        #: Window members delivered more than once (command retries whose
        #: original is still queued) — ignored, never double-queued.
        self.duplicate_commands = 0
        #: Resync exchanges performed (qpair reconnects observed).
        self.resyncs = 0
        #: Orphaned per-tenant entries the initiator had already retired:
        #: error-completed locally (dropped) during resync.
        self.orphans_completed = 0
        #: Orphaned entries still live at the initiator: kept queued for
        #: the next drain (the resent copies arrive as duplicates).
        self.orphans_requeued = 0
        #: Per-tenant drain epoch last announced by the initiator.
        self._epochs: Dict[int, int] = {}

    def on_command(
        self, conn: "TargetConnection", pdu: "CapsuleCmdPdu", draining: bool, tenant_id: int
    ) -> Optional[Tuple[DrainGroup, List["_Entry"]]]:
        """Alg. 3 for one arriving throughput-critical command.

        ``draining`` and ``tenant_id`` are the command's reserved bytes,
        decoded once when it arrives (latency-sensitive commands bypass the
        manager there).  Returns None while the command only queues, and
        ``(group, batch)`` when it drains the window: the tenant's queued
        commands in arrival order, this draining command last.

        Duplicate-tolerant: a retried command whose original is still
        queued is counted and ignored — window membership stays
        exactly-once.  (A retry of an already-*executed* command is
        indistinguishable from a new one and is re-queued; the initiator's
        duplicate-response handling absorbs the second completion.)
        """
        window = self.windows.get(tenant_id)
        if window is None:
            window = self.windows[check_tenant_id(tenant_id)] = {}
        cid = pdu.sqe.cid
        if cid in window:
            # Retried window member; the original still holds its slot.  A
            # queued member never carries DRAINING (a draining command
            # flushes on arrival), so dropping the duplicate loses nothing.
            self.duplicate_commands += 1
            return None
        window[cid] = (conn, pdu)
        if not draining:
            return None
        group = DrainGroup(tenant_id, cid, list(window))
        batch = list(window.values())
        window.clear()
        return group, batch

    def resync(
        self, tenant_id: int, epoch: int, last_retired: Optional[int]
    ) -> List["_Entry"]:
        """Window reconciliation on qpair reconnect (the resync exchange).

        The initiator announces its drain epoch and highest-retired CID in
        the reconnect handshake.  A *higher* epoch than last seen means the
        old session's window state may be inconsistent: every queued entry
        the initiator has already retired (CID ``<=`` the high-water mark in
        serial order) is an orphan — it was covered by a drain walk whose
        flush this target never executed against the entry (e.g. the
        original was delayed past its window's marker) — and is
        error-completed locally, since the initiator no longer waits for
        it.  Entries above the mark stay queued for the next drain; the
        resent copies will arrive as duplicates and be ignored.

        Returns the orphaned entries that were dropped, in arrival order
        (for accounting or error completion by the caller).  A stale or
        repeated epoch is a duplicated handshake and reconciles nothing.
        """
        seen = self._epochs.get(tenant_id)
        if seen is None:
            self._epochs[tenant_id] = epoch
            if epoch == 0:
                return []  # initial handshake: nothing to reconcile
        elif epoch <= seen:
            return []  # duplicated/stale handshake
        else:
            self._epochs[tenant_id] = epoch
        self.resyncs += 1
        window = self.windows.get(tenant_id)
        if window is None:
            return []
        orphans: List["_Entry"] = []
        if last_retired is not None:
            stale = [cid for cid in window if cid_le(cid, last_retired)]
            orphans = [window.pop(cid) for cid in stale]
        self.orphans_completed += len(orphans)
        self.orphans_requeued += len(window)
        return orphans
