"""SPDK-perf-style closed-loop workload generator.

Mirrors the knobs of ``spdk perf`` as used in §V: I/O size (4K), operation
mix (read / write / 50:50), queue depth, access pattern, and a fixed amount
of work.  The generator keeps ``queue_depth`` requests in flight by
submitting from the completion callback (no polling processes — the
callback chain *is* the closed loop).

Work is bounded by ``total_ops`` rather than wall-clock: a deterministic
request count keeps simulated runs comparable across protocols (the paper
instead runs 10-second intervals on real time).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..core.flags import Priority
from ..core.initiator import OpfInitiator
from ..errors import WorkloadError
from ..simcore.events import Event
from ..ssd.latency import OP_FLUSH, OP_READ, OP_WRITE
from ..units import BLOCK_4K
from .patterns import AddressPattern, SEQUENTIAL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nvmeof.initiator import NvmeOfInitiator
    from ..nvmeof.qpair import IoRequest
    from ..simcore.engine import Environment

READ = "read"
WRITE = "write"
RW50 = "rw50"
_MIXES = (READ, WRITE, RW50)


class PerfConfig:
    """Workload parameters (defaults = the paper's perf settings)."""

    def __init__(
        self,
        op_mix: str = READ,
        io_size: int = BLOCK_4K,
        queue_depth: int = 128,
        total_ops: int = 1000,
        pattern: str = SEQUENTIAL,
        priority: "Priority | str" = Priority.THROUGHPUT,
        nsid: int = 1,
        read_fraction: Optional[float] = None,
    ) -> None:
        if op_mix not in _MIXES:
            raise WorkloadError(f"op_mix must be one of {_MIXES}, got {op_mix!r}")
        if io_size < 512 or io_size % 512:
            raise WorkloadError("io_size must be a positive multiple of 512")
        if queue_depth < 1:
            raise WorkloadError("queue_depth must be >= 1")
        if total_ops < 1:
            raise WorkloadError("total_ops must be >= 1")
        self.op_mix = op_mix
        self.io_size = io_size
        self.queue_depth = queue_depth
        self.total_ops = total_ops
        self.pattern = pattern
        self.priority = Priority.parse(priority)
        self.nsid = nsid
        if read_fraction is None:
            read_fraction = {READ: 1.0, WRITE: 0.0, RW50: 0.5}[op_mix]
        if not 0.0 <= read_fraction <= 1.0:
            raise WorkloadError("read_fraction must be within [0, 1]")
        self.read_fraction = read_fraction


class PerfGenerator:
    """Drives one initiator with a closed-loop perf workload."""

    def __init__(
        self,
        env: "Environment",
        initiator: "NvmeOfInitiator",
        config: PerfConfig,
        rng: np.random.Generator,
        namespace_blocks: int = 1 << 20,
    ) -> None:
        self.env = env
        self.initiator = initiator
        self.config = config
        self.rng = rng
        blocks_per_io = config.io_size // initiator.block_size
        if blocks_per_io < 1:
            raise WorkloadError("io_size smaller than the initiator block size")
        self.pattern = AddressPattern(
            config.pattern,
            total_blocks=namespace_blocks,
            blocks_per_io=blocks_per_io,
            rng=rng,
        )
        self.blocks_per_io = blocks_per_io
        self.issued = 0
        self.completed = 0
        self.failed = 0
        #: Drain-marker (flush) completions observed on this tenant's
        #: initiator — protocol plumbing, excluded from the workload books
        #: but tracked so conservation audits can reconcile initiator stats.
        self.drain_markers = 0
        self.drain_marker_failures = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done: Event = Event(env)
        self._drained_tail = False
        self._stopped = False
        initiator.on_request_complete = self._on_complete

    # -- control --------------------------------------------------------------
    def start(self) -> Event:
        """Begin issuing; the returned event fires when all ops complete."""
        if self.started_at is not None:
            raise WorkloadError("generator already started")
        self.started_at = self.env.now
        self._pump()
        return self.done

    def stop(self) -> None:
        """Stop issuing new I/O; ``done`` fires once in-flight work lands.

        Latency-sensitive tenants run open-ended during a scenario and are
        stopped when the throughput-critical tenants finish their quota.
        """
        self._stopped = True
        if not self.done.triggered and self.inflight == 0:
            self.finished_at = self.env.now
            self.done.succeed(self)

    @property
    def inflight(self) -> int:
        return self.issued - self.completed

    def _choose_op(self) -> str:
        if self.config.read_fraction >= 1.0:
            return OP_READ
        if self.config.read_fraction <= 0.0:
            return OP_WRITE
        return OP_READ if self.rng.random() < self.config.read_fraction else OP_WRITE

    def _pump(self) -> None:
        cfg = self.config
        total_ops = cfg.total_ops
        depth = cfg.queue_depth
        initiator = self.initiator
        qpair = initiator.qpair
        # The qpair's occupancy, read directly (FabricQpair.has_capacity).
        outstanding = qpair._outstanding
        qpair_depth = qpair.queue_depth
        # ``issued`` is only ever advanced here (completions arrive via
        # events, never synchronously from submit), so it can ride in a
        # local across the loop.
        issued = self.issued
        while (
            not self._stopped
            and issued < total_ops
            and issued - self.completed < depth
            and len(outstanding) < qpair_depth
        ):
            initiator.submit(
                self._choose_op(),
                slba=self.pattern.next_slba(),
                nlb=self.blocks_per_io,
                nsid=cfg.nsid,
                priority=cfg.priority,
            )
            issued += 1
            self.issued = issued
        if self.issued >= cfg.total_ops and not self._drained_tail:
            # The final partial window would otherwise wait for the idle
            # timer; drain it explicitly so runs end crisply.  drain() can
            # return None when the qpair is momentarily full — retry from
            # later completions (the idle timer is the last-resort backstop).
            if isinstance(self.initiator, OpfInitiator) and self.initiator.pending_undrained > 0:
                if self.initiator.drain() is not None:
                    self._drained_tail = True
            else:
                self._drained_tail = True

    def _on_complete(self, request: "IoRequest") -> None:
        if request.op == OP_FLUSH:
            # Drain markers are not workload operations, but audit them.
            self.drain_markers += 1
            if request.status not in (0, None):
                self.drain_marker_failures += 1
            self._pump()
            return
        self.completed += 1
        if request.status not in (0, None):
            self.failed += 1
        if self.completed >= self.config.total_ops or (self._stopped and self.inflight == 0):
            if not self.done.triggered:
                self.finished_at = self.env.now
                self.done.succeed(self)
            return
        self._pump()

    # -- results -----------------------------------------------------------------
    @property
    def elapsed_us(self) -> float:
        if self.started_at is None:
            raise WorkloadError("generator never started")
        end = self.finished_at if self.finished_at is not None else self.env.now
        return end - self.started_at

    def iops(self) -> float:
        return self.completed / self.elapsed_us * 1e6 if self.elapsed_us > 0 else 0.0

    def throughput_mbps(self) -> float:
        return self.completed * self.config.io_size / self.elapsed_us if self.elapsed_us > 0 else 0.0
