"""TCP transport binding for NVMe-oF PDUs.

Bridges the protocol layer (PDU objects) onto the byte-accurate TCP-lite
substrate: each PDU becomes one framed message of ``pdu.wire_size`` bytes.
Header bytes are *actually encoded* on send and decoded on receive in
``validate`` mode, which the test-suite uses to prove the reserved-bit flag
scheme survives a real serialisation round trip; performance runs skip the
byte work (``validate=False``) since the sizes are identical either way.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ProtocolError
from ..net.tcp import TcpSocket
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


class PduTransport:
    """One side of an NVMe-oF/TCP connection.

    The socket delivers received PDUs straight to the installed handler,
    and the PDU counters are the socket's message counters: one PDU is one
    framed message, so this layer adds no call and no state per PDU.
    """

    def __init__(self, socket: TcpSocket, validate: bool = False) -> None:
        self.socket = socket
        self.validate = validate
        socket.deliver = self._no_handler

    def set_handler(self, handler: Callable[[AnyPdu], None]) -> None:
        """Deliver every received PDU to ``handler``."""
        self.socket.deliver = handler

    @property
    def pdus_sent(self) -> int:
        return self.socket.stats.messages_sent

    @property
    def pdus_received(self) -> int:
        return self.socket.stats.messages_delivered

    @property
    def bytes_sent(self) -> int:
        return self.socket.stats.bytes_sent

    def send(self, pdu: AnyPdu) -> None:
        """Frame and transmit one PDU."""
        size = pdu.wire_size
        if size < 1:
            raise ProtocolError(f"PDU with non-positive wire size: {pdu!r}")
        if self.validate:
            # Round-trip the header bytes; ship the decoded twin.  Data
            # lengths are carried out-of-band (zero-copy simulation).
            encoded = pdu.encode()
            twin = decode_pdu(encoded)
            pdu = self._restore_data_len(pdu, twin)
        self.socket.send_message(pdu, size)

    @staticmethod
    def _restore_data_len(original: AnyPdu, twin: AnyPdu) -> AnyPdu:
        # encode() emits header bytes only; re-attach payload lengths (with
        # the wire size stored from them) and simulation-only envelope
        # fields that do not travel in headers.
        if isinstance(original, CapsuleCmdPdu) and isinstance(twin, CapsuleCmdPdu):
            twin.data_len = original.data_len
            twin.wire_size = original.wire_size
        elif isinstance(original, (C2HDataPdu, H2CDataPdu)) and isinstance(
            twin, (C2HDataPdu, H2CDataPdu)
        ):
            twin.data_len = original.data_len
            twin.wire_size = original.wire_size
        elif isinstance(original, CapsuleRespPdu) and isinstance(twin, CapsuleRespPdu):
            twin.coalesced_count = original.coalesced_count
        return twin

    @staticmethod
    def _no_handler(pdu: AnyPdu) -> None:
        raise ProtocolError("PDU arrived before a handler was installed")

    @property
    def local_node(self) -> str:
        return self.socket.local_node

    @property
    def remote_node(self) -> str:
        return self.socket.remote_node

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PduTransport {self.local_node}->{self.remote_node}>"


__all__ = [
    "PduTransport",
    "IcReqPdu",
    "IcRespPdu",
    "CapsuleCmdPdu",
    "CapsuleRespPdu",
    "C2HDataPdu",
    "H2CDataPdu",
]
