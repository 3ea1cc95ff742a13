"""NVMe controller: command arbitration, parallel channels, CQE posting.

The controller drains submission queues in round-robin (the spec's default
arbitration), dispatches each command to a pool of channel workers, and
posts the completion to the paired CQ when the flash access finishes.
Because channel service times vary, completions post **out of order**
relative to submission — the property NVMe-oPF's CID queues must handle.

Every SQ is empty between doorbells: each submit rings its SQ's doorbell,
:meth:`NvmeController._arbitrate` fetches until every SQ is empty, and a
batch that does not fit its SQ is refused whole.  So while no fetched
command waits for a channel and a channel is free, a newly submitted
command is the only one a doorbell would fetch, and
:meth:`~repro.ssd.device.IoQpair.submit` starts it directly with the
doorbell's exact effects.  For the same reason a channel that frees up
starts the next fetched command itself: arbitration there would fetch
nothing.  Likewise a polled host reaps each CQE the moment it posts, so
its CQ is empty between completions and the controller posts and reaps in
one step.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from math import exp as _exp
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

import numpy as np

from ..errors import DeviceError
from ..simcore.events import NORMAL
from ..simcore.rng import NormalBuffer
from .ftl import Ftl
from .latency import OP_FLUSH, OP_READ, OP_WRITE, SsdProfile
from .queues import (
    CompletionQueue,
    NvmeCommand,
    NvmeCompletion,
    STATUS_LBA_OUT_OF_RANGE,
    STATUS_SUCCESS,
    SubmissionQueue,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment

_INF = float("inf")


class QueuePair:
    """One SQ/CQ pair registered with a controller.

    ``urgent`` marks the NVMe urgent priority class: with weighted-round-
    robin arbitration enabled, the controller always fetches urgent SQs
    before normal ones.  (The baseline runtimes use only normal qpairs;
    the device-priority extension routes latency-sensitive commands here.)
    """

    __slots__ = ("sq", "cq", "qid", "urgent")

    def __init__(
        self, sq: SubmissionQueue, cq: CompletionQueue, qid: int, urgent: bool = False
    ) -> None:
        self.sq = sq
        self.cq = cq
        self.qid = qid
        self.urgent = urgent


class NvmeController:
    """Executes commands from registered queue pairs on parallel channels."""

    def __init__(
        self,
        env: "Environment",
        profile: SsdProfile,
        rng: np.random.Generator,
        ftl: Optional[Ftl] = None,
        name: str = "nvme",
    ) -> None:
        self.env = env
        self.profile = profile
        self.rng = rng
        #: Array-RNG wrapper: service-time draws come out of prefetched
        #: ``standard_normal(batch)`` arrays, bit-identical to scalar draws
        #: from ``rng`` (see :class:`NormalBuffer`).  The controller must be
        #: the *only* consumer of ``rng`` — the device wiring gives it an
        #: exclusive ``ssd/<name>`` stream.
        self._draws = NormalBuffer(rng)
        self.ftl = ftl
        self.name = name
        self._qpairs: List[QueuePair] = []
        self._rr_index = 0
        #: Commands fetched from SQs, waiting for a free channel.  Urgent-
        #: class commands dispatch strictly before normal ones.
        self._dispatch: Deque[Tuple[NvmeCommand, QueuePair]] = deque()
        self._dispatch_urgent: Deque[Tuple[NvmeCommand, QueuePair]] = deque()
        self._free_channels = profile.channels
        #: Profile values read per command, cached once (the profile is
        #: frozen): opcode -> (lognormal (mu, sigma) or None, mean).
        self._service = {
            OP_READ: (profile._read_lognorm, profile.read_mean_us),
            OP_WRITE: (profile._write_lognorm, profile.write_mean_us),
        }
        self._capacity_blocks = profile.capacity_blocks
        #: Pre-bound completion callback (one heap entry per channel batch;
        #: avoids a method-object allocation per command).
        self._on_channel_done_cb = self._on_channel_done
        self.commands_completed = 0
        self.commands_failed = 0
        self.commands_faulted = 0
        self.busy_time = 0.0
        #: Fault-injection hooks.  ``service_scale`` multiplies every sampled
        #: service time (latency-spike fault); ``fault_status`` — when not
        #: None — fails every command with that NVMe status (transient
        #: device-error fault).  Both default to the no-op values, so runs
        #: without chaos are bit-identical to the pre-fault code paths.
        self.service_scale = 1.0
        self.fault_status: Optional[int] = None

    # -- queue pair management -----------------------------------------------
    def register_qpair(
        self, sq: SubmissionQueue, cq: CompletionQueue, urgent: bool = False
    ) -> QueuePair:
        """Attach an SQ/CQ pair; the SQ doorbell is wired to arbitration."""
        qid = len(self._qpairs) + 1
        qpair = QueuePair(sq, cq, qid, urgent=urgent)
        self._qpairs.append(qpair)
        sq.doorbell = self._on_doorbell
        return qpair

    @property
    def inflight(self) -> int:
        """Commands executing on channels right now."""
        return self.profile.channels - self._free_channels

    # -- arbitration -----------------------------------------------------------
    def _on_doorbell(self) -> None:
        self._arbitrate()
        self._fill_channels()

    def _arbitrate(self) -> None:
        """Round-robin fetch from non-empty SQs into the dispatch queue."""
        qpairs = self._qpairs
        n = len(qpairs)
        if n == 0:
            return
        rr = self._rr_index
        empty_streak = 0
        while empty_streak < n:
            qpair = qpairs[rr]
            rr += 1
            if rr == n:
                rr = 0
            sq = qpair.sq
            if sq._head == sq._tail:  # inlined sq.is_empty (hot scan loop)
                empty_streak += 1
                continue
            empty_streak = 0
            # sq.pop(), inlined: the SQ is known non-empty.
            ring = sq._ring
            head = sq._head
            command = ring[head]
            ring[head] = None
            sq._head = (head + 1) % sq.depth
            queue = self._dispatch_urgent if qpair.urgent else self._dispatch
            queue.append((command, qpair))
        self._rr_index = rr

    def _fill_channels(self) -> None:
        while self._free_channels > 0 and (self._dispatch_urgent or self._dispatch):
            if self._dispatch_urgent:
                command, qpair = self._dispatch_urgent.popleft()
            else:
                command, qpair = self._dispatch.popleft()
            self._free_channels -= 1
            self._execute(command, qpair)

    def _execute(self, command: NvmeCommand, qpair: QueuePair) -> None:
        # Always through self._validate: DeviceErrorInjector patches it.
        status = self._validate(command)
        if status == STATUS_SUCCESS and self.fault_status is not None:
            status = self.fault_status
            self.commands_faulted += 1
        if status != STATUS_SUCCESS:
            # Failed commands complete "immediately" (controller-side check).
            service = 1.0
        else:
            opcode = command.opcode
            if opcode == OP_FLUSH:
                service = self.profile.flush_us
            else:
                # SsdProfile.service_time, inlined: the same exp(mu + sigma
                # * z) from the same buffered normals.
                lognorm, service = self._service[opcode]
                if lognorm is not None:
                    draws = self._draws
                    pos = draws._pos
                    if pos < draws._n:
                        draws._pos = pos + 1
                        z = draws._buf[pos]
                    else:
                        z = draws.standard_normal()
                    service = _exp(lognorm[0] + lognorm[1] * z)
                nlb = command.nlb
                if nlb > 1:
                    service += (nlb - 1) * self.profile.extra_block_us
                if opcode == OP_WRITE and self.ftl is not None:
                    service += self.ftl.write_penalty(nlb * self.profile.block_size, service)
            if self.service_scale != 1.0:
                service *= self.service_scale
        self.busy_time += service

        # env.call_later, inlined: the same (now + delay, NORMAL, seq) key,
        # and one tuple per channel completion instead of an Event.
        env = self.env
        if not 0.0 <= service < _INF:
            raise env._bad_delay(service)
        seq = env._seq
        env._seq = seq + 1
        _heappush(
            env._queue,
            (env.now + service, NORMAL, seq, self._on_channel_done_cb, (command, qpair, status)),
        )

    def _on_channel_done(self, done: Tuple[NvmeCommand, QueuePair, int]) -> None:
        command, qpair, status = done
        self._free_channels += 1
        if status == STATUS_SUCCESS:
            self.commands_completed += 1
        else:
            self.commands_failed += 1
        completion = NvmeCompletion(command.cid, status, self.env.now, command)
        cq = qpair.cq
        host = cq.on_post
        if host is None:
            cq.post(completion)  # nobody polls: the CQE waits for reap()
        else:
            # A polled host reaps at once: post and reap in one step.
            cq._head = cq._tail = (cq._tail + 1) % cq.depth
            host(completion)
        if self._free_channels:
            # Start the next fetched command, urgent class first, on the
            # channel just freed -- unless the host's callback took it.
            # Every SQ is empty here (see the module docstring), so there is
            # nothing to arbitrate, and a waiting command means every other
            # channel is busy.
            if self._dispatch_urgent:
                command, qpair = self._dispatch_urgent.popleft()
            elif self._dispatch:
                command, qpair = self._dispatch.popleft()
            else:
                return
            self._free_channels -= 1
            self._execute(command, qpair)

    def _validate(self, command: NvmeCommand) -> int:
        if command.opcode == OP_WRITE or command.opcode == OP_READ:
            if command.slba < 0 or command.slba + command.nlb > self._capacity_blocks:
                return STATUS_LBA_OUT_OF_RANGE
        return STATUS_SUCCESS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<NvmeController {self.name!r} inflight={self.inflight}"
            f" dispatch={len(self._dispatch)}>"
        )


class DeviceErrorInjector:
    """Test helper: wraps a controller's validate step to inject failures."""

    def __init__(self, controller: NvmeController, fail_every: int) -> None:
        if fail_every < 1:
            raise DeviceError("fail_every must be >= 1")
        self.controller = controller
        self.fail_every = fail_every
        self._count = 0
        self._orig_validate = controller._validate
        controller._validate = self._validate  # type: ignore[method-assign]

    def _validate(self, command: NvmeCommand) -> int:
        self._count += 1
        if self._count % self.fail_every == 0:
            return STATUS_LBA_OUT_OF_RANGE
        return self._orig_validate(command)

    def restore(self) -> None:
        self.controller._validate = self._orig_validate  # type: ignore[method-assign]
