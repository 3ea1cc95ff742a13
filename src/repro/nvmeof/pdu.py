"""NVMe/TCP Protocol Data Units.

Every fabric message is one PDU with an 8-byte common header (CH) followed
by a PDU-specific header and, for data-bearing PDUs, a payload.  Headers are
encoded to real bytes (roundtrip-tested); bulk data is represented by its
length only — the simulator is zero-copy, like the runtime it models.

``wire_size`` (the framed message size) is the class's fixed ``HLEN`` for
the fixed-size PDUs, and a slot set once at construction for the PDUs that
carry data.  Each PDU is built in one frame: the checks run inline in
``__init__``.

PDU types implemented (NVMe/TCP transport spec, §3.2):

=====================  ======  =============================================
PDU                    type    role
=====================  ======  =============================================
ICReq / ICResp         0/1     connection initialisation exchange
CapsuleCmd             4       SQE (+ optional in-capsule write data)
CapsuleResp            5       CQE (the "completion notification")
H2CData                6       host-to-controller data (not used: writes
                               travel in-capsule, as SPDK configures)
C2HData                7       controller-to-host data (read payloads)
=====================  ======  =============================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Union

from ..errors import ProtocolError
from .capsule import CQE_SIZE, Cqe, SQE_SIZE, Sqe

CH_SIZE = 8

PDU_TYPE_ICREQ = 0x00
PDU_TYPE_ICRESP = 0x01
PDU_TYPE_CAPSULE_CMD = 0x04
PDU_TYPE_CAPSULE_RESP = 0x05
PDU_TYPE_H2C_DATA = 0x06
PDU_TYPE_C2H_DATA = 0x07

_CH_PACK = struct.Struct("<BBBBI")


def _encode_ch(pdu_type: int, flags: int, hlen: int, plen: int) -> bytes:
    return _CH_PACK.pack(pdu_type, flags, hlen, 0, plen)


@dataclass(slots=True)
class IcReqPdu:
    """Initialize Connection Request (host -> controller)."""

    pfv: int = 0  # PDU format version
    maxr2t: int = 0
    hpda: int = 0
    #: oPF extension: announced tenant id (baseline leaves 0); carried in a
    #: reserved field of the ICReq, so the PDU size is unchanged.
    tenant_id: int = 0
    #: oPF resync extension (also reserved bytes): the initiator's drain
    #: epoch, bumped on every qpair disconnect.  A reconnect handshake with
    #: a higher epoch triggers window reconciliation at the target.
    resync_epoch: int = 0
    #: Highest-retired CID (queue order) of the announcing epoch; only
    #: meaningful when ``has_last_retired`` is set (a u16 cannot spare a
    #: sentinel — every value is a valid CID).
    last_retired: int = 0
    has_last_retired: bool = False

    HLEN = 128  # fixed by spec
    wire_size = HLEN

    def encode(self) -> bytes:
        flags = 0x01 if self.has_last_retired else 0
        body = struct.pack(
            "<HHBBHHB",
            self.pfv,
            self.maxr2t,
            self.hpda,
            self.tenant_id,
            self.resync_epoch & 0xFFFF,
            self.last_retired & 0xFFFF,
            flags,
        )
        pad = self.HLEN - CH_SIZE - len(body)
        return _encode_ch(PDU_TYPE_ICREQ, 0, self.HLEN, self.HLEN) + body + b"\x00" * pad

    @classmethod
    def decode(cls, data: bytes) -> "IcReqPdu":
        _check_type(data, PDU_TYPE_ICREQ)
        pfv, maxr2t, hpda, tenant, epoch, last, flags = struct.unpack_from(
            "<HHBBHHB", data, CH_SIZE
        )
        return cls(
            pfv=pfv,
            maxr2t=maxr2t,
            hpda=hpda,
            tenant_id=tenant,
            resync_epoch=epoch,
            last_retired=last,
            has_last_retired=bool(flags & 0x01),
        )


@dataclass(slots=True)
class IcRespPdu:
    """Initialize Connection Response (controller -> host)."""

    pfv: int = 0
    cpda: int = 0
    maxh2cdata: int = 131072

    HLEN = 128
    wire_size = HLEN

    def encode(self) -> bytes:
        body = struct.pack("<HBI", self.pfv, self.cpda, self.maxh2cdata)
        pad = self.HLEN - CH_SIZE - len(body)
        return _encode_ch(PDU_TYPE_ICRESP, 0, self.HLEN, self.HLEN) + body + b"\x00" * pad

    @classmethod
    def decode(cls, data: bytes) -> "IcRespPdu":
        _check_type(data, PDU_TYPE_ICRESP)
        pfv, cpda, maxh2cdata = struct.unpack_from("<HBI", data, CH_SIZE)
        return cls(pfv=pfv, cpda=cpda, maxh2cdata=maxh2cdata)


@dataclass(slots=True, init=False)
class CapsuleCmdPdu:
    """Command capsule: CH + SQE (+ in-capsule data for writes)."""

    sqe: Sqe
    data_len: int  # in-capsule data (write payload), bytes
    #: ``HLEN + data_len``, fixed at construction.
    wire_size: int = field(init=False, repr=False, compare=False)

    HLEN = CH_SIZE + SQE_SIZE

    def __init__(self, sqe: Sqe, data_len: int = 0) -> None:
        if data_len < 0:
            raise ProtocolError("negative data_len")
        self.sqe = sqe
        self.data_len = data_len
        self.wire_size = self.HLEN + data_len

    def encode(self) -> bytes:
        """Header bytes only; the payload is represented by ``data_len``."""
        return _encode_ch(PDU_TYPE_CAPSULE_CMD, 0, self.HLEN, self.wire_size) + self.sqe.encode()

    @classmethod
    def decode(cls, data: bytes) -> "CapsuleCmdPdu":
        _check_type(data, PDU_TYPE_CAPSULE_CMD)
        plen = _plen(data)
        sqe = Sqe.decode(data[CH_SIZE : CH_SIZE + SQE_SIZE])
        return cls(sqe=sqe, data_len=plen - cls.HLEN)


@dataclass(slots=True)
class CapsuleRespPdu:
    """Response capsule: CH + CQE.  This is the *completion notification*
    whose count NVMe-oPF reduces (Fig. 6c)."""

    cqe: Cqe
    #: oPF extension: when set, this single response completes every
    #: throughput-critical request queued up to (and including) ``cqe.cid``.
    coalesced: bool = False
    coalesced_count: int = 1

    HLEN = CH_SIZE + CQE_SIZE
    wire_size = HLEN

    def encode(self) -> bytes:
        flags = 0x80 if self.coalesced else 0
        return _encode_ch(PDU_TYPE_CAPSULE_RESP, flags, self.HLEN, self.HLEN) + self.cqe.encode()

    @classmethod
    def decode(cls, data: bytes) -> "CapsuleRespPdu":
        _check_type(data, PDU_TYPE_CAPSULE_RESP)
        flags = data[1]
        cqe = Cqe.decode(data[CH_SIZE : CH_SIZE + CQE_SIZE])
        return cls(cqe=cqe, coalesced=bool(flags & 0x80))


@dataclass(slots=True, init=False)
class C2HDataPdu:
    """Controller-to-host data (read payload)."""

    cid: int
    data_len: int
    offset: int
    last: bool
    #: ``HLEN + data_len``, fixed at construction.
    wire_size: int = field(init=False, repr=False, compare=False)

    HLEN = CH_SIZE + 16  # PSH: cccid(2) rsvd(2) datao(4) datal(4) rsvd(4)

    def __init__(self, cid: int, data_len: int, offset: int = 0, last: bool = True) -> None:
        if data_len < 1:
            raise ProtocolError("C2HData requires at least one byte")
        self.cid = cid
        self.data_len = data_len
        self.offset = offset
        self.last = last
        self.wire_size = self.HLEN + data_len

    def encode(self) -> bytes:
        flags = 0x04 if self.last else 0  # LAST_PDU
        psh = struct.pack("<HHII4x", self.cid, 0, self.offset, self.data_len)
        return _encode_ch(PDU_TYPE_C2H_DATA, flags, self.HLEN, self.wire_size) + psh

    @classmethod
    def decode(cls, data: bytes) -> "C2HDataPdu":
        _check_type(data, PDU_TYPE_C2H_DATA)
        flags = data[1]
        cid, _rsvd, offset, data_len = struct.unpack_from("<HHII", data, CH_SIZE)
        return cls(cid=cid, data_len=data_len, offset=offset, last=bool(flags & 0x04))


@dataclass(slots=True, init=False)
class H2CDataPdu:
    """Host-to-controller data (unused on the happy path; writes are
    in-capsule, matching SPDK's configuration, but the type exists for
    completeness and tests)."""

    cid: int
    data_len: int
    offset: int
    last: bool
    #: ``HLEN + data_len``, fixed at construction.
    wire_size: int = field(init=False, repr=False, compare=False)

    HLEN = CH_SIZE + 16

    def __init__(self, cid: int, data_len: int, offset: int = 0, last: bool = True) -> None:
        if data_len < 1:
            raise ProtocolError("H2CData requires at least one byte")
        self.cid = cid
        self.data_len = data_len
        self.offset = offset
        self.last = last
        self.wire_size = self.HLEN + data_len

    def encode(self) -> bytes:
        flags = 0x04 if self.last else 0
        psh = struct.pack("<HHII4x", self.cid, 0, self.offset, self.data_len)
        return _encode_ch(PDU_TYPE_H2C_DATA, flags, self.HLEN, self.wire_size) + psh

    @classmethod
    def decode(cls, data: bytes) -> "H2CDataPdu":
        _check_type(data, PDU_TYPE_H2C_DATA)
        flags = data[1]
        cid, _rsvd, offset, data_len = struct.unpack_from("<HHII", data, CH_SIZE)
        return cls(cid=cid, data_len=data_len, offset=offset, last=bool(flags & 0x04))


AnyPdu = Union[IcReqPdu, IcRespPdu, CapsuleCmdPdu, CapsuleRespPdu, C2HDataPdu, H2CDataPdu]

_DECODERS = {
    PDU_TYPE_ICREQ: IcReqPdu,
    PDU_TYPE_ICRESP: IcRespPdu,
    PDU_TYPE_CAPSULE_CMD: CapsuleCmdPdu,
    PDU_TYPE_CAPSULE_RESP: CapsuleRespPdu,
    PDU_TYPE_C2H_DATA: C2HDataPdu,
    PDU_TYPE_H2C_DATA: H2CDataPdu,
}


def decode_pdu(data: bytes) -> AnyPdu:
    """Decode any PDU from its header bytes."""
    if len(data) < CH_SIZE:
        raise ProtocolError("truncated PDU (no common header)")
    pdu_type = data[0]
    decoder = _DECODERS.get(pdu_type)
    if decoder is None:
        raise ProtocolError(f"unknown PDU type {pdu_type:#x}")
    return decoder.decode(data)


def _check_type(data: bytes, expected: int) -> None:
    if len(data) < CH_SIZE:
        raise ProtocolError("truncated PDU (no common header)")
    if data[0] != expected:
        raise ProtocolError(f"expected PDU type {expected:#x}, got {data[0]:#x}")


def _plen(data: bytes) -> int:
    return _CH_PACK.unpack_from(data, 0)[4]
