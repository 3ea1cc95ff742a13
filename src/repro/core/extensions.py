"""Extensions beyond the paper's evaluated design.

The paper notes its flag scheme "can be easily extended to support more
I/O flags" and leaves deeper co-design as future work.  This module
implements one such extension end to end:

**Device-level priority** (:class:`DevicePriorityOpfTarget`) — NVMe-oPF's
latency-sensitive bypass skips the *target's* software queues, but an LS
command still waits behind every command already resident in the SSD's
submission queues.  NVMe's weighted-round-robin arbitration offers an
urgent priority class; this target allocates one urgent qpair per device
and routes latency-sensitive commands through it, so the device itself
serves them ahead of queued throughput-critical batches.  The
``bench_extensions`` benchmark quantifies the extra tail reduction.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..nvmeof.capsule import OPCODE_NAMES
from ..nvmeof.pdu import CapsuleCmdPdu
from ..nvmeof.target import RequestContext, TargetConnection
from ..ssd.latency import OP_FLUSH
from .target import OpfTarget

#: Depth of the urgent device qpair each SSD gets.
URGENT_QPAIR_DEPTH = 256


class DevicePriorityOpfTarget(OpfTarget):
    """NVMe-oPF target with an urgent device qpair for LS commands."""

    runtime_name = "nvme-opf-devprio"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._urgent_qpairs: Dict[int, Any] = {}
        for device in self.subsystem.devices:
            qp = device.create_qpair(depth=URGENT_QPAIR_DEPTH, urgent=True)
            qp.on_completion = self._on_device_completion
            self._urgent_qpairs[id(device)] = qp
        self._urgent_routes = self._route_table(self._urgent_qpairs)
        self.urgent_submissions = 0

    def _submit_to_device(self, args: "Tuple[TargetConnection, CapsuleCmdPdu, int]") -> None:
        """Route a latency-sensitive command through the device's urgent class.

        Only latency-sensitive commands reach this stage: window members are
        submitted through ``_submit_to_device_batch``.
        """
        conn, pdu, tenant_id = args
        sqe = pdu.sqe
        try:
            qp, device_nsid, block_size = self._urgent_routes[sqe.nsid]
        except KeyError:
            raise self._unknown_namespace(sqe.nsid) from None
        op = OPCODE_NAMES[sqe.opcode]
        self.urgent_submissions += 1
        if op == OP_FLUSH:
            qp.submit(OP_FLUSH, device_nsid, 0, 1, RequestContext(conn, sqe.cid, op, 0, tenant_id))
        else:
            nlb = sqe.nlb
            ctx = RequestContext(conn, sqe.cid, op, nlb * block_size, tenant_id)
            qp.submit(op, device_nsid, sqe.slba, nlb, ctx)
