"""NVMe command/response capsules with byte-level encoding.

The 64-byte Submission Queue Entry (SQE) and 16-byte Completion Queue Entry
(CQE) are encoded with their real field offsets so that NVMe-oPF's use of
*reserved* SQE bytes (paper §IV-A: two reserved bits for priority flags,
eight for the initiator/tenant id) is implemented exactly as described —
the capsule size does not change, and a baseline runtime that ignores the
reserved bytes interoperates with an oPF initiator.

Layout (subset of NVM Express 2.0, figure "Common Command Format")::

    byte  0        : opcode
    byte  1        : fuse/psdt flags
    bytes 2-3      : command identifier (CID), little endian
    bytes 4-7      : namespace id (NSID)
    byte  8        : RESERVED  -> oPF priority flags (bits 0-1)
    byte  9        : RESERVED  -> oPF tenant id
    bytes 10-15    : reserved
    bytes 16-23    : metadata pointer (unused here)
    bytes 24-39    : data pointer (SGL; carried as zeros)
    bytes 40-47    : CDW10/11 -> starting LBA for I/O commands
    bytes 48-49    : CDW12 low -> number of logical blocks - 1 ("0's based")
    bytes 50-63    : CDW12 high .. CDW15 (zeros)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import ProtocolError
from ..ssd.latency import OP_FLUSH, OP_READ, OP_WRITE

SQE_SIZE = 64
CQE_SIZE = 16

#: NVMe I/O opcodes (NVM command set).
OPCODE_FLUSH = 0x00
OPCODE_WRITE = 0x01
OPCODE_READ = 0x02

#: Opcode -> the SSD substrate's mnemonic ('read' / 'write' / 'flush').
OPCODE_NAMES = {OPCODE_FLUSH: OP_FLUSH, OPCODE_WRITE: OP_WRITE, OPCODE_READ: OP_READ}
#: The mnemonic -> its opcode (the inverse of :data:`OPCODE_NAMES`).
OPCODE_BY_NAME = {v: k for k, v in OPCODE_NAMES.items()}

_SQE_PACK = struct.Struct("<BBHIBB6x8x16sQH14x")
_CQE_PACK = struct.Struct("<I4xHHHH")


@dataclass(slots=True, init=False)
class Sqe:
    """One submission queue entry (command capsule payload).

    Built in one frame: ``__init__`` checks every field inline.
    """

    opcode: int
    cid: int
    nsid: int
    slba: int
    nlb: int
    rsvd_priority: int  # byte 8: oPF priority/draining flag bits
    rsvd_tenant: int  # byte 9: oPF tenant id

    def __init__(
        self,
        opcode: int,
        cid: int,
        nsid: int = 1,
        slba: int = 0,
        nlb: int = 1,
        rsvd_priority: int = 0,
        rsvd_tenant: int = 0,
    ) -> None:
        if opcode not in OPCODE_NAMES:
            raise ProtocolError(f"unsupported opcode {opcode:#x}")
        if not (0 <= cid <= 0xFFFF):
            raise ProtocolError(f"CID out of range: {cid}")
        if not (0 <= rsvd_priority <= 0xFF):
            raise ProtocolError("priority byte out of range")
        if not (0 <= rsvd_tenant <= 0xFF):
            raise ProtocolError("tenant byte out of range")
        if opcode != OPCODE_FLUSH and nlb < 1:
            raise ProtocolError("nlb must be >= 1 for I/O commands")
        self.opcode = opcode
        self.cid = cid
        self.nsid = nsid
        self.slba = slba
        self.nlb = nlb
        self.rsvd_priority = rsvd_priority
        self.rsvd_tenant = rsvd_tenant

    @property
    def op_name(self) -> str:
        """Mnemonic used by the SSD substrate ('read' / 'write' / 'flush')."""
        return OPCODE_NAMES[self.opcode]

    @classmethod
    def for_io(
        cls,
        op_name: str,
        cid: int,
        nsid: int = 1,
        slba: int = 0,
        nlb: int = 1,
    ) -> "Sqe":
        try:
            opcode = OPCODE_BY_NAME[op_name]
        except KeyError:
            raise ProtocolError(f"unknown op {op_name!r}") from None
        if op_name == OP_FLUSH:
            return cls(opcode=opcode, cid=cid, nsid=nsid, slba=0, nlb=1)
        return cls(opcode=opcode, cid=cid, nsid=nsid, slba=slba, nlb=nlb)

    def encode(self) -> bytes:
        """Serialise to the 64-byte wire format."""
        nlb_zero_based = 0 if self.opcode == OPCODE_FLUSH else self.nlb - 1
        return _SQE_PACK.pack(
            self.opcode,
            0,  # fuse/psdt
            self.cid,
            self.nsid,
            self.rsvd_priority,
            self.rsvd_tenant,
            b"\x00" * 16,  # SGL data pointer (zero-copy: no real address)
            self.slba,
            nlb_zero_based,
        )

    @classmethod
    def decode(cls, data: bytes) -> "Sqe":
        if len(data) != SQE_SIZE:
            raise ProtocolError(f"SQE must be {SQE_SIZE} bytes, got {len(data)}")
        opcode, _flags, cid, nsid, prio, tenant, _dptr, slba, nlb0 = _SQE_PACK.unpack(data)
        if opcode not in OPCODE_NAMES:
            raise ProtocolError(f"unsupported opcode {opcode:#x}")
        nlb = 1 if opcode == OPCODE_FLUSH else nlb0 + 1
        return cls(
            opcode=opcode,
            cid=cid,
            nsid=nsid,
            slba=slba,
            nlb=nlb,
            rsvd_priority=prio,
            rsvd_tenant=tenant,
        )


@dataclass(slots=True, init=False)
class Cqe:
    """One completion queue entry (response capsule payload).

    Built in one frame: ``__init__`` checks the CID and status inline.
    """

    cid: int
    status: int
    sqid: int
    sqhd: int
    result: int

    def __init__(
        self, cid: int, status: int = 0, sqid: int = 1, sqhd: int = 0, result: int = 0
    ) -> None:
        if not (0 <= cid <= 0xFFFF):
            raise ProtocolError(f"CID out of range: {cid}")
        if not (0 <= status <= 0xFFFF):
            raise ProtocolError(f"status out of range: {status}")
        self.cid = cid
        self.status = status
        self.sqid = sqid
        self.sqhd = sqhd
        self.result = result

    @property
    def ok(self) -> bool:
        return self.status == 0

    def encode(self) -> bytes:
        return _CQE_PACK.pack(self.result, self.sqhd, self.sqid, self.cid, self.status)

    @classmethod
    def decode(cls, data: bytes) -> "Cqe":
        if len(data) != CQE_SIZE:
            raise ProtocolError(f"CQE must be {CQE_SIZE} bytes, got {len(data)}")
        result, sqhd, sqid, cid, status = _CQE_PACK.unpack(data)
        return cls(cid=cid, status=status, sqid=sqid, sqhd=sqhd, result=result)
