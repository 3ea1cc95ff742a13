"""Baseline NVMe-over-Fabrics runtime (SPDK-model): PDUs, capsules,
qpairs, transport binding, initiator, target, subsystems."""

from .capsule import Cqe, OPCODE_FLUSH, OPCODE_READ, OPCODE_WRITE, Sqe
from .initiator import InitiatorStats, NvmeOfInitiator
from .pdu import (
    AnyPdu,
    C2HDataPdu,
    CapsuleCmdPdu,
    CapsuleRespPdu,
    H2CDataPdu,
    IcReqPdu,
    IcRespPdu,
    decode_pdu,
)
from .qpair import FabricQpair, IoRequest
from .subsystem import NamespaceMapping, Subsystem
from .target import NvmeOfTarget, RequestContext, TargetConnection, TargetStats
from .transport import PduTransport

__all__ = [
    "AnyPdu",
    "C2HDataPdu",
    "CapsuleCmdPdu",
    "CapsuleRespPdu",
    "Cqe",
    "FabricQpair",
    "H2CDataPdu",
    "IcReqPdu",
    "IcRespPdu",
    "InitiatorStats",
    "IoRequest",
    "NamespaceMapping",
    "NvmeOfInitiator",
    "NvmeOfTarget",
    "OPCODE_FLUSH",
    "OPCODE_READ",
    "OPCODE_WRITE",
    "PduTransport",
    "RequestContext",
    "Sqe",
    "Subsystem",
    "TargetConnection",
    "TargetStats",
    "decode_pdu",
]
