"""VOL-style connector: HDF5 operations -> prioritised fabric I/O.

The paper co-designs h5bench with NVMe-oPF through the HDF5 Virtual Object
Layer, intercepting dataset I/O and routing it through the priority
managers.  This connector does the same: bulk dataset reads/writes become
throughput-critical 4 KiB requests, metadata operations (superblock,
object-header updates) become latency-sensitive requests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List

from ..core.flags import Priority
from ..errors import Hdf5Error
from ..ssd.latency import OP_READ, OP_WRITE
from .dataset import Dataset
from .file import H5File

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nvmeof.initiator import NvmeOfInitiator
    from ..nvmeof.qpair import IoRequest
    from ..simcore.engine import Environment


class VolConnector:
    """Binds one H5 file to one fabric initiator."""

    def __init__(
        self,
        env: "Environment",
        initiator: "NvmeOfInitiator",
        h5file: H5File,
        nsid: int = 1,
        io_blocks: int = 1,
    ) -> None:
        if io_blocks < 1:
            raise Hdf5Error("io_blocks must be >= 1")
        self.env = env
        self.initiator = initiator
        self.h5file = h5file
        self.nsid = nsid
        self.io_blocks = io_blocks
        self.data_requests = 0
        self.metadata_requests = 0
        self.bytes_written = 0
        self.bytes_read = 0

    # -- metadata --------------------------------------------------------------
    def update_metadata(self) -> "IoRequest":
        """One latency-sensitive superblock/object-header write."""
        self.metadata_requests += 1
        return self.initiator.submit(
            OP_WRITE,
            slba=self.h5file.superblock_lba,
            nlb=1,
            nsid=self.nsid,
            priority=Priority.LATENCY,
        )

    # -- bulk data -----------------------------------------------------------------
    def write_elements(
        self, dataset: Dataset, start: int, count: int, queue_depth: int = 128
    ) -> Generator:
        """Generator process: write an element range, ``queue_depth`` deep.

        Yield it from a simulation process::

            yield from vol.write_elements(ds, 0, 100000, queue_depth=64)
        """
        yield from self._run_plan(dataset.io_plan(start, count, self.io_blocks),
                                  OP_WRITE, queue_depth)

    def read_elements(
        self, dataset: Dataset, start: int, count: int, queue_depth: int = 128
    ) -> Generator:
        """Generator process: read an element range, ``queue_depth`` deep."""
        yield from self._run_plan(dataset.io_plan(start, count, self.io_blocks),
                                  OP_READ, queue_depth)

    def _run_plan(self, plan: List, op: str, queue_depth: int) -> Generator:
        """Closed-loop executor over an extent plan using completion events."""
        if queue_depth < 1:
            raise Hdf5Error("queue_depth must be >= 1")
        env = self.env
        inflight = []
        for extent in plan:
            while not self.initiator.qpair.has_capacity or len(inflight) >= queue_depth:
                # Wait for the oldest in-flight request to land.
                head = inflight.pop(0)
                yield head
            request = self.initiator.submit(
                op,
                slba=extent.slba,
                nlb=extent.nlb,
                nsid=self.nsid,
                priority=Priority.THROUGHPUT,
            )
            self.data_requests += 1
            if op == OP_WRITE:
                self.bytes_written += extent.nbytes
            else:
                self.bytes_read += extent.nbytes
            inflight.append(request.completion_event(env))
        # Flush any partial coalescing window *before* waiting on the tail
        # events — they only resolve once a draining flag reaches the target
        # (the initiator's idle timer is the backstop if the qpair is full).
        from ..core.initiator import OpfInitiator

        if isinstance(self.initiator, OpfInitiator):
            self.initiator.drain()
        for event in inflight:
            yield event
