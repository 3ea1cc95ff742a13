"""NVMe-oPF target runtime.

Extends the baseline target with the target-side Priority Manager:

* latency-sensitive requests bypass every queue and execute immediately;
* throughput-critical requests park in their tenant's own (lock-free)
  window, a dict from CID to the queued capsule, until a draining flag
  arrives, then execute as one batch in arrival order — paying the
  tenant-switch cost once per *window* instead of once per request;
* each completed window is answered with a single coalesced response
  capsule, sent only after every member has completed on the device, so
  out-of-order device completions can never acknowledge unfinished work.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..nvmeof.capsule import OPCODE_FLUSH, Cqe
from ..nvmeof.pdu import C2HDataPdu, CapsuleCmdPdu, CapsuleRespPdu, IcReqPdu
from ..nvmeof.target import NvmeOfTarget, RequestContext, TargetConnection
from ..ssd.latency import OP_READ
from ..ssd.queues import NvmeCompletion
from .coalescing import DrainGroup
from .flags import FLAG_DRAINING, FLAG_THROUGHPUT_CRITICAL, unpack_flags
from .priority_manager import TargetPriorityManager

#: The flag byte of a throughput-critical command that drains its window.
_TC_DRAINING = FLAG_THROUGHPUT_CRITICAL | FLAG_DRAINING

#: One received command and the connection it arrived on.
_Entry = Tuple[TargetConnection, CapsuleCmdPdu]


class OpfTarget(NvmeOfTarget):
    """Priority-aware target (the paper's contribution, storage side).

    Each stage of a command is one ``run_later`` callback taking one
    argument tuple, and each is the override point for its stage:
    :meth:`_handle_command` (arrival, flags decoded once),
    :meth:`_enqueue_tc` (Alg. 3), :meth:`_execute_batch` (the flushed
    window), :meth:`_on_device_completion` (the device-completion hook,
    shared with the baseline) and :meth:`_tc_completed` (Alg. 4).
    """

    runtime_name = "nvme-opf"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.pm = TargetPriorityManager()
        # Per-tenant FIFO of in-flight drain groups: responses are emitted
        # in window-formation order (§IV-C — "completion times for each
        # request will follow in the order they were queued"), so Alg. 2's
        # queue walk on the initiator is always correct even when a later
        # window finishes earlier on the device's parallel channels.
        self._group_fifo: dict = {}

    # -- window resync on reconnect -----------------------------------------------
    def _handle_icreq(self, conn: TargetConnection, pdu: "IcReqPdu") -> None:
        """Reconcile the tenant's window before answering the handshake.

        A reconnect handshake carries a bumped drain epoch plus the
        initiator's highest-retired CID; queued entries at or below that
        mark are orphans — already retired at the initiator — and are
        dropped here (the PM accounts them), while entries above it stay
        queued for the next drain.  The initial epoch-0 handshake and
        duplicated handshakes reconcile nothing.
        """
        self.pm.resync(
            pdu.tenant_id,
            pdu.resync_epoch,
            pdu.last_retired if pdu.has_last_retired else None,
        )
        super()._handle_icreq(conn, pdu)

    # -- Alg. 3: command arrival -----------------------------------------------------
    def _handle_command(self, conn: TargetConnection, pdu: CapsuleCmdPdu) -> None:
        sqe = pdu.sqe
        flags = sqe.rsvd_priority
        tenant_id = sqe.rsvd_tenant
        if not flags:
            # Latency-sensitive bypass: identical cost and path to the
            # baseline, and the Priority Manager never sees the command.
            cost = (
                self.costs.pdu_rx + self.costs.nvme_submit + self._tenant_switch_cost(tenant_id)
            )
            self.core.run_later(cost, self._submit_to_device, (conn, pdu, tenant_id))
            return
        draining = flags == _TC_DRAINING
        if not draining and flags != FLAG_THROUGHPUT_CRITICAL:
            unpack_flags(flags)  # every other byte is malformed: raises ProtocolError

        # Throughput-critical: receive + queue-push only; execution waits
        # for the window's draining flag.
        cost = self.costs.pdu_rx + self.costs.retire
        self.core.run_later(cost, self._enqueue_tc, (conn, pdu, draining, tenant_id))

    def _enqueue_tc(self, args: "Tuple[TargetConnection, CapsuleCmdPdu, bool, int]") -> None:
        conn, pdu, draining, tenant_id = args
        flushed = self.pm.on_command(conn, pdu, draining, tenant_id)
        if flushed is None:
            return  # queued; nothing executes yet
        group, batch = flushed
        self._group_fifo.setdefault(tenant_id, []).append(group)
        # The draining command -- this one, the batch's last entry -- is the
        # only one that can be an explicit drain marker (a flush carrying
        # DRAINING): a queued member never drains.  The marker is consumed
        # here and never reaches the device.
        marker = batch.pop() if pdu.sqe.opcode == OPCODE_FLUSH else None
        # Batch execution: one tenant switch for the whole window, one
        # device doorbell per member.
        cost = self.costs.nvme_submit * len(batch) + self._tenant_switch_cost(tenant_id)
        self.core.run_later(cost, self._execute_batch, (group, batch, marker))

    def _execute_batch(self, args: "Tuple[DrainGroup, List[_Entry], Optional[_Entry]]") -> None:
        """Submit a flushed window's members, then complete its drain marker."""
        group, members, marker = args
        if members:
            # One doorbell per consecutive same-device run instead of one
            # per member; submission order (and so CID/draw/seq order) is
            # exactly that of per-member _submit_to_device calls.
            self._submit_to_device_batch(members, group.tenant_id, group)
        if marker is not None:
            # A drain marker completes at once (it never touches the
            # device); doing this *after* real submissions keeps
            # group.pending consistent even for a marker-only group.
            conn, pdu = marker
            self.stats.requests_completed += 1
            if group.mark_complete(pdu.sqe.cid, 0):
                self._finish_group(conn, group)

    # -- Alg. 4: device completion -----------------------------------------------------
    def _on_device_completion(self, completion: NvmeCompletion) -> None:
        ctx: RequestContext = completion.command.context
        if ctx.group is None:
            # Latency-sensitive: the baseline's immediate-response path.
            super()._on_device_completion(completion)
            return
        cost = self.costs.nvme_complete + self.costs.retire
        if ctx.op == OP_READ:
            cost += self.costs.pdu_tx  # read data still flows per request
        self.core.run_later(cost, self._tc_completed, (ctx, completion.status))

    def _tc_completed(self, args: "Tuple[RequestContext, int]") -> None:
        """Alg. 4 for one window member: respond once the whole group is done."""
        ctx, status = args
        self.stats.requests_completed += 1
        if ctx.op == OP_READ:
            self.stats.data_pdus_sent += 1
            ctx.conn.send(C2HDataPdu(cid=ctx.cid, data_len=ctx.nbytes))
        group = ctx.group
        if group.mark_complete(ctx.cid, status):
            self._finish_group(ctx.conn, group)

    def _finish_group(self, conn: TargetConnection, group: DrainGroup) -> None:
        """Mark the window done and emit responses in formation order."""
        group.ready = True
        group.conn = conn
        fifo = self._group_fifo.get(group.tenant_id, [])
        while fifo and fifo[0].ready:
            head = fifo.pop(0)
            self.core.run_later(
                self.costs.cqe_build + self.costs.pdu_tx, self._send_coalesced, head
            )

    def _send_coalesced(self, group: DrainGroup) -> None:
        """Answer a finished window with one coalesced response on its connection."""
        self.stats.completion_notifications += 1
        self.stats.coalesced_notifications += 1
        group.conn.send(
            CapsuleRespPdu(
                cqe=Cqe(cid=group.drain_cid, status=group.worst_status),
                coalesced=True,
                coalesced_count=group.size,
            )
        )
