"""NVMe submission/completion queue pairs (circular buffers).

Standard NVMe devices expose paired circular buffers: hosts place commands
in a Submission Queue (SQ) and ring a doorbell; the controller executes
commands *in any order* and places Completion Queue Entries (CQEs) into the
Completion Queue (CQ) as they finish — the out-of-order behaviour §IV-C of
the paper deals with.  The ring discipline (head/tail indices, full/empty
conditions, phase-less simplified CQE reaping) is modelled faithfully
enough that queue-depth limits and QueueFullError behave like the spec.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..errors import ConfigError, QueueEmptyError, QueueFullError
from .latency import OP_FLUSH, VALID_OPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment

#: NVMe status codes (subset).
STATUS_SUCCESS = 0x0
STATUS_INVALID_FIELD = 0x2
STATUS_INTERNAL_ERROR = 0x6
STATUS_LBA_OUT_OF_RANGE = 0x80


class NvmeCommand:
    """One submission-queue entry (SQE analogue)."""

    __slots__ = (
        "cid",
        "opcode",
        "nsid",
        "slba",
        "nlb",
        "submitted_at",
        "context",
    )

    def __init__(
        self,
        cid: int,
        opcode: str,
        nsid: int = 1,
        slba: int = 0,
        nlb: int = 1,
        context: Any = None,
    ) -> None:
        if opcode not in VALID_OPS:
            raise ConfigError(f"unknown NVMe opcode {opcode!r}")
        if not (0 <= cid <= 0xFFFF):
            raise ConfigError(f"CID out of 16-bit range: {cid}")
        if nlb < 1 and opcode != OP_FLUSH:
            raise ConfigError("nlb must be >= 1")
        self.cid = cid
        self.opcode = opcode
        self.nsid = nsid
        self.slba = slba
        self.nlb = nlb
        self.submitted_at = 0.0
        self.context = context

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NvmeCommand cid={self.cid} {self.opcode} slba={self.slba} nlb={self.nlb}>"


class NvmeCompletion:
    """One completion-queue entry (CQE analogue)."""

    __slots__ = ("cid", "status", "completed_at", "command")

    def __init__(self, cid: int, status: int, completed_at: float, command: NvmeCommand) -> None:
        self.cid = cid
        self.status = status
        self.completed_at = completed_at
        self.command = command

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCESS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NvmeCompletion cid={self.cid} status={self.status:#x}>"


class SubmissionQueue:
    """Host-side circular command buffer."""

    def __init__(self, env: "Environment", depth: int = 1024, qid: int = 1) -> None:
        if depth < 2:
            raise ConfigError("NVMe queues must have depth >= 2")
        self.env = env
        self.depth = depth
        self.qid = qid
        self._ring: List[Optional[NvmeCommand]] = [None] * depth
        self._head = 0
        self._tail = 0
        #: Doorbell callback, installed by the controller.
        self.doorbell: Optional[Callable[[], None]] = None
        self.submitted_total = 0

    def __len__(self) -> int:
        return (self._tail - self._head) % self.depth

    @property
    def is_full(self) -> bool:
        # One slot is sacrificed to distinguish full from empty, as in the spec.
        return (self._tail + 1) % self.depth == self._head

    @property
    def is_empty(self) -> bool:
        return self._head == self._tail

    def submit(self, command: NvmeCommand) -> None:
        """Place a command in the ring and ring the doorbell."""
        if self.is_full:
            raise QueueFullError(f"SQ {self.qid} full (depth {self.depth})")
        command.submitted_at = self.env.now
        self._ring[self._tail] = command
        self._tail = (self._tail + 1) % self.depth
        self.submitted_total += 1
        if self.doorbell is not None:
            self.doorbell()

    def submit_batch(self, commands: List[NvmeCommand]) -> None:
        """Place a batch of commands in the ring, ringing the doorbell once.

        Equivalent to submitting each command in order, except the doorbell
        rings a single time after the last one — the controller's round-robin
        arbitration then fetches the whole run in the same submission order
        it would have fetched them one doorbell at a time, so execution
        order, RNG draw order, and completion scheduling are unchanged.  The
        batch accumulates in the ring before the controller drains it, so a
        batch that does not fit is refused whole, before any command is
        placed (the ring stays empty between doorbells).
        """
        if len(commands) > self.depth - 1 - len(self):
            raise QueueFullError(
                f"SQ {self.qid} cannot take a batch of {len(commands)} (depth {self.depth})"
            )
        for command in commands:
            command.submitted_at = self.env.now
            self._ring[self._tail] = command
            self._tail = (self._tail + 1) % self.depth
            self.submitted_total += 1
        if commands and self.doorbell is not None:
            self.doorbell()

    def pop(self) -> NvmeCommand:
        """Controller side: consume the oldest command."""
        if self.is_empty:
            raise QueueEmptyError(f"SQ {self.qid} empty")
        command = self._ring[self._head]
        self._ring[self._head] = None
        self._head = (self._head + 1) % self.depth
        assert command is not None
        return command


class CompletionQueue:
    """Host-side circular completion buffer."""

    def __init__(self, env: "Environment", depth: int = 1024, qid: int = 1) -> None:
        if depth < 2:
            raise ConfigError("NVMe queues must have depth >= 2")
        self.env = env
        self.depth = depth
        self.qid = qid
        self._ring: List[Optional[NvmeCompletion]] = [None] * depth
        self._head = 0
        self._tail = 0
        #: Polled-host hook.  When set, the controller reaps every CQE in
        #: the step that posts it and hands it here (instead of an
        #: interrupt); when None, CQEs wait in the ring for :meth:`reap`.
        self.on_post: Optional[Callable[[NvmeCompletion], None]] = None

    def __len__(self) -> int:
        return (self._tail - self._head) % self.depth

    @property
    def is_full(self) -> bool:
        return (self._tail + 1) % self.depth == self._head

    @property
    def is_empty(self) -> bool:
        return self._head == self._tail

    def post(self, completion: NvmeCompletion) -> None:
        """Controller side: publish a CQE.

        A full CQ is a host bug (host must size CQ >= outstanding commands);
        the spec makes the controller stall, we fail loudly instead.
        """
        if self.is_full:
            raise QueueFullError(f"CQ {self.qid} full (depth {self.depth})")
        self._ring[self._tail] = completion
        self._tail = (self._tail + 1) % self.depth

    def reap(self) -> NvmeCompletion:
        """Host side: consume the oldest CQE."""
        if self.is_empty:
            raise QueueEmptyError(f"CQ {self.qid} empty")
        completion = self._ring[self._head]
        self._ring[self._head] = None
        self._head = (self._head + 1) % self.depth
        assert completion is not None
        return completion