"""Baseline userspace NVMe-oF target (SPDK-model).

First-in-first-out: commands are submitted to the backing SSD as they
arrive, and **every** completion generates its own response capsule — the
behaviour whose cost NVMe-oPF attacks.  The target also charges a
connection-switch cost whenever consecutively processed commands belong to
different tenants, modelling the per-request state/cache switching the
paper's "computation order" challenge describes (§I-B).

:class:`repro.core.target.OpfTarget` subclasses this runtime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..cpu.core import CpuCore
from ..cpu.costs import CpuCostModel, DEFAULT_COSTS
from ..errors import DeviceError, ProtocolError
from ..ssd.device import IoQpair
from ..ssd.latency import OP_FLUSH, OP_READ
from ..ssd.queues import NvmeCompletion
from .capsule import OPCODE_NAMES, Cqe
from .pdu import C2HDataPdu, CapsuleCmdPdu, CapsuleRespPdu, IcReqPdu, IcRespPdu
from .subsystem import Subsystem
from .transport import PduTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment

#: Depth of the device qpair each backing SSD gets, shared by every
#: connection (deep enough that no workload here fills it).
DEVICE_QPAIR_DEPTH = 4096


class TargetStats:
    """Per-target protocol counters (Figure 6c reads these)."""

    __slots__ = (
        "commands_received",
        "completion_notifications",
        "coalesced_notifications",
        "data_pdus_sent",
        "requests_completed",
        "tenant_switches",
        "crashes",
        "restarts",
        "pdus_dropped_dead",
        "pdus_lost_dead",
    )

    def __init__(self) -> None:
        self.commands_received = 0
        self.completion_notifications = 0
        self.coalesced_notifications = 0
        self.data_pdus_sent = 0
        self.requests_completed = 0
        self.tenant_switches = 0
        self.crashes = 0
        self.restarts = 0
        self.pdus_dropped_dead = 0  # inbound PDUs lost while crashed
        self.pdus_lost_dead = 0  # outbound PDUs suppressed while crashed


class RequestContext:
    """Target-side context attached to each device command.

    ``group`` is the oPF drain group a batch-executed member belongs to;
    None for a command answered on its own.
    """

    __slots__ = ("conn", "cid", "op", "nbytes", "tenant_id", "group")

    def __init__(
        self,
        conn: "TargetConnection",
        cid: int,
        op: str,
        nbytes: int,
        tenant_id: int,
        group: Any = None,
    ) -> None:
        self.conn = conn
        self.cid = cid
        self.op = op
        self.nbytes = nbytes
        self.tenant_id = tenant_id
        self.group = group


class TargetConnection:
    """Target-side state for one initiator connection."""

    def __init__(self, target: "NvmeOfTarget", transport: PduTransport, conn_index: int) -> None:
        self.target = target
        self.transport = transport
        self.conn_index = conn_index
        self.tenant_id: Optional[int] = None
        transport.set_handler(self._on_pdu)

    def _on_pdu(self, pdu: Any) -> None:
        target = self.target
        if not target.alive:
            # A crashed target never sees the PDU; the initiator's command
            # timeout (repro.faults recovery path) is what notices.
            target.stats.pdus_dropped_dead += 1
            return
        if isinstance(pdu, CapsuleCmdPdu):
            target.stats.commands_received += 1
            target._handle_command(self, pdu)
        elif isinstance(pdu, IcReqPdu):
            target._handle_icreq(self, pdu)
        else:
            raise ProtocolError(f"target received unexpected PDU {pdu!r}")

    def send(self, pdu: Any) -> None:
        if not self.target.alive:
            # Responses racing a crash are lost with the process state.
            self.target.stats.pdus_lost_dead += 1
            return
        self.transport.send(pdu)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TargetConnection #{self.conn_index} tenant={self.tenant_id}>"


class NvmeOfTarget:
    """The storage-service side of the fabric."""

    runtime_name = "spdk"

    def __init__(
        self,
        env: "Environment",
        name: str,
        core: CpuCore,
        subsystem: Subsystem,
        costs: CpuCostModel = DEFAULT_COSTS,
        conn_switch_cost: float = 0.5,
    ) -> None:
        self.env = env
        self.name = name
        self.core = core
        self.costs = costs
        self.subsystem = subsystem
        self.conn_switch_cost = conn_switch_cost
        self.stats = TargetStats()
        #: Liveness flag driven by the crash/restart fault adapter.  While
        #: False, inbound PDUs are dropped and outbound sends suppressed.
        self.alive = True
        self._connections: List[TargetConnection] = []
        self._last_tenant: Optional[int] = None
        # One device qpair per backing SSD, shared by all connections —
        # completion contexts route responses back to the right connection.
        self._device_qpairs: Dict[int, IoQpair] = {}
        for device in subsystem.devices:
            qp = device.create_qpair(depth=DEVICE_QPAIR_DEPTH)
            qp.on_completion = self._on_device_completion
            self._device_qpairs[id(device)] = qp
        self._routes = self._route_table(self._device_qpairs)

    def _route_table(self, qpairs: Dict[int, IoQpair]) -> Dict[int, Tuple[IoQpair, int, int]]:
        """Fabric nsid -> (device qpair, device nsid, block size).

        Built once: the subsystem's namespaces are fixed before its target
        exists, so no command pays a subsystem lookup.
        """
        table = {}
        for nsid in self.subsystem.namespace_ids:
            mapping = self.subsystem.resolve(nsid)
            device = mapping.device
            table[nsid] = (qpairs[id(device)], mapping.device_nsid, device.profile.block_size)
        return table

    def _unknown_namespace(self, nsid: int) -> DeviceError:
        return DeviceError(f"subsystem {self.subsystem.nqn} has no namespace {nsid}")

    # -- wiring -------------------------------------------------------------------
    def bind(self, transport: PduTransport) -> TargetConnection:
        """Accept one initiator connection."""
        conn = TargetConnection(self, transport, conn_index=len(self._connections))
        self._connections.append(conn)
        return conn

    @property
    def connections(self) -> List[TargetConnection]:
        return list(self._connections)

    # -- crash / restart (fault adapters) -----------------------------------------
    def crash(self) -> None:
        """Kill the target process: all in-flight and future work is lost
        until :meth:`restart`.  Device-side commands already executing keep
        running (the SSD does not crash), but their completions are dropped
        at the response path."""
        if not self.alive:
            return
        self.alive = False
        self.stats.crashes += 1

    def restart(self) -> None:
        """Bring the target back with cold per-connection state."""
        if self.alive:
            return
        self.alive = True
        self.stats.restarts += 1
        # Cold caches after restart: the next command always pays the
        # connection-switch cost, matching a fresh process image.
        self._last_tenant = None

    # -- connection handshake -----------------------------------------------------
    def _handle_icreq(self, conn: TargetConnection, pdu: IcReqPdu) -> None:
        """IC handshake (initial connect and qpair reconnect alike).

        The oPF target overrides this to run the window-resync exchange
        before answering; the baseline has no per-tenant window state.
        """
        conn.tenant_id = pdu.tenant_id
        self.core.run_later(self.costs.pdu_rx + self.costs.pdu_tx, self._send_icresp, conn)

    def _send_icresp(self, conn: TargetConnection) -> None:
        conn.transport.send(IcRespPdu())

    # -- command path ------------------------------------------------------------
    def _tenant_switch_cost(self, tenant_id: int) -> float:
        """Connection/state switch penalty when interleaving tenants."""
        cost = 0.0
        if self._last_tenant is not None and self._last_tenant != tenant_id:
            cost = self.conn_switch_cost
            self.stats.tenant_switches += 1
        self._last_tenant = tenant_id
        return cost

    def _handle_command(self, conn: TargetConnection, pdu: CapsuleCmdPdu) -> None:
        """Baseline FIFO: receive, then submit straight to the device."""
        # No per-request tenant bits: the connection identifies the tenant.
        tenant_id = conn.tenant_id
        if tenant_id is None:
            tenant_id = conn.conn_index
        cost = self.costs.pdu_rx + self.costs.nvme_submit
        # _tenant_switch_cost, inlined.
        last = self._last_tenant
        if last != tenant_id:
            if last is not None:
                cost += self.conn_switch_cost
                self.stats.tenant_switches += 1
            self._last_tenant = tenant_id
        # Callback fast path: one tuple instead of an Event + closure per command.
        self.core.run_later(cost, self._submit_to_device, (conn, pdu, tenant_id))

    def _submit_to_device(self, args: "Tuple[TargetConnection, CapsuleCmdPdu, int]") -> None:
        """Submit one received command to its device (a run_later callback)."""
        conn, pdu, tenant_id = args
        sqe = pdu.sqe
        try:
            qp, device_nsid, block_size = self._routes[sqe.nsid]
        except KeyError:
            raise self._unknown_namespace(sqe.nsid) from None
        op = OPCODE_NAMES[sqe.opcode]
        if op == OP_FLUSH:
            qp.submit(OP_FLUSH, device_nsid, 0, 1, RequestContext(conn, sqe.cid, op, 0, tenant_id))
        else:
            nlb = sqe.nlb
            ctx = RequestContext(conn, sqe.cid, op, nlb * block_size, tenant_id)
            qp.submit(op, device_nsid, sqe.slba, nlb, ctx)

    def _submit_to_device_batch(
        self,
        members: "List[tuple[TargetConnection, CapsuleCmdPdu]]",
        tenant_id: int,
        group: Any = None,
    ) -> None:
        """Submit a run of commands with one SQ doorbell per device run.

        Members are processed strictly in order and consecutive commands
        bound for the same device are placed in its SQ as one batch (one
        doorbell), so CID allocation, controller execution order, RNG draw
        order, and completion scheduling are exactly those of a loop of
        ``_submit_to_device`` calls.  Used by the oPF batch-execution path,
        whose members never take the latency-sensitive routing overrides.
        """
        run_qp: Optional[IoQpair] = None
        specs: List[tuple] = []
        for conn, pdu in members:
            sqe = pdu.sqe
            try:
                qp, device_nsid, block_size = self._routes[sqe.nsid]
            except KeyError:
                raise self._unknown_namespace(sqe.nsid) from None
            op = OPCODE_NAMES[sqe.opcode]
            nbytes = sqe.nlb * block_size if op != OP_FLUSH else 0
            ctx = RequestContext(conn, sqe.cid, op, nbytes, tenant_id, group)
            if qp is not run_qp and specs:
                assert run_qp is not None
                run_qp.submit_batch(specs)
                specs = []
            run_qp = qp
            if op == OP_FLUSH:
                specs.append((OP_FLUSH, device_nsid, 0, 1, ctx))
            else:
                specs.append((op, device_nsid, sqe.slba, sqe.nlb, ctx))
        if specs:
            assert run_qp is not None
            run_qp.submit_batch(specs)

    # -- completion path -----------------------------------------------------------
    def _on_device_completion(self, completion: NvmeCompletion) -> None:
        """Baseline: each completion produces data (reads) + one response.

        The device-completion hook of every device qpair, and the override
        point for a runtime that answers completions differently.
        """
        ctx: RequestContext = completion.command.context
        cost = self.costs.nvme_complete + self.costs.cqe_build + self.costs.pdu_tx
        if ctx.op == OP_READ:
            cost += self.costs.pdu_tx  # the C2HData PDU
        self.core.run_later(cost, self._send_response, (ctx, completion.status))

    def _send_response(self, args: "Tuple[RequestContext, int]") -> None:
        ctx, status = args
        self.stats.requests_completed += 1
        if ctx.op == OP_READ:
            self.stats.data_pdus_sent += 1
            ctx.conn.send(C2HDataPdu(cid=ctx.cid, data_len=ctx.nbytes))
        self.stats.completion_notifications += 1
        ctx.conn.send(CapsuleRespPdu(cqe=Cqe(cid=ctx.cid, status=status)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} conns={len(self._connections)}>"
