"""NVMe SSD facade: namespaces + I/O queue pairs over one controller.

This is the device the NVMe-oF target exports.  Hosts (the target runtime)
create I/O qpairs, submit read/write commands by LBA, and reap completions
via the CQ post hook.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..errors import DeviceError
from ..simcore.rng import RandomStreams
from .controller import NvmeController, QueuePair
from .ftl import Ftl, FtlConfig
from .latency import OP_FLUSH, OP_READ, OP_WRITE, SsdProfile
from .queues import CompletionQueue, NvmeCommand, NvmeCompletion, SubmissionQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment


class Namespace:
    """One NVMe namespace (a contiguous LBA range)."""

    def __init__(self, nsid: int, blocks: int, block_size: int) -> None:
        if nsid < 1:
            raise DeviceError("nsid must be >= 1")
        if blocks < 1:
            raise DeviceError("namespace must have at least one block")
        self.nsid = nsid
        self.blocks = blocks
        self.block_size = block_size

    def check_range(self, slba: int, nlb: int) -> None:
        if slba < 0 or nlb < 1 or slba + nlb > self.blocks:
            raise DeviceError(
                f"LBA range [{slba}, {slba + nlb}) outside namespace {self.nsid} "
                f"({self.blocks} blocks)"
            )


class IoQpair:
    """Host-side handle to one SQ/CQ pair on a device."""

    def __init__(self, device: "NvmeSsd", qpair: QueuePair, depth: int) -> None:
        self.device = device
        self._qpair = qpair
        self._controller = device.controller
        #: The device's live namespace table (add_namespace mutates it).
        self._namespaces = device._namespaces
        self.depth = depth
        self._cid_seq = 0
        self._outstanding: Dict[int, NvmeCommand] = {}
        qpair.cq.on_post = self._on_cqe
        #: Completion callback: invoked with each NvmeCompletion as it lands.
        self.on_completion: Optional[Callable[[NvmeCompletion], None]] = None

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    def submit(
        self,
        opcode: str,
        nsid: int = 1,
        slba: int = 0,
        nlb: int = 1,
        context: object = None,
    ) -> NvmeCommand:
        """Build, validate, and submit one command; returns it (with CID)."""
        if nsid in self._namespaces:
            ns = self._namespaces[nsid]
        else:
            ns = self.device.namespace(nsid)  # raises DeviceError
        if opcode != OP_FLUSH and (slba < 0 or nlb < 1 or slba + nlb > ns.blocks):
            ns.check_range(slba, nlb)  # raises DeviceError
        seq = self._cid_seq
        self._cid_seq = seq + 1
        command = NvmeCommand(seq & 0xFFFF, opcode, nsid, slba, nlb, context)
        self._outstanding[command.cid] = command
        qpair = self._qpair
        ctrl = self._controller
        if ctrl._free_channels and not ctrl._dispatch and not ctrl._dispatch_urgent:
            # Nothing waits for a channel and every SQ is empty (see
            # repro.ssd.controller), so the doorbell would fetch only this
            # command -- leaving the round-robin index just past this pair,
            # that is qid % len(pairs) -- and _fill_channels would start it.
            # Do exactly that, leaving the ring as a submit and a pop would.
            sq = qpair.sq
            command.submitted_at = ctrl.env.now
            sq._head = sq._tail = (sq._tail + 1) % sq.depth
            sq.submitted_total += 1
            ctrl._rr_index = 0 if ctrl._qpairs[-1] is qpair else qpair.qid
            ctrl._free_channels -= 1
            ctrl._execute(command, qpair)
        else:
            qpair.sq.submit(command)
        return command

    def submit_batch(
        self, specs: "List[Tuple[str, int, int, int, object]]"
    ) -> "List[NvmeCommand]":
        """Submit a batch of ``(opcode, nsid, slba, nlb, context)`` specs.

        Commands are built and validated in order, then placed in the SQ
        with one doorbell for the whole batch (see
        :meth:`SubmissionQueue.submit_batch`) — CID allocation, execution
        order, and completion scheduling match a loop of :meth:`submit`
        calls exactly.  A refused batch (a bad spec, or one the SQ cannot
        fit) leaves no command outstanding and spends no CID.
        """
        commands: "List[NvmeCommand]" = []
        namespaces = self._namespaces
        seq = self._cid_seq
        for opcode, nsid, slba, nlb, context in specs:
            # The namespace lookup and range check, inlined as in submit.
            if nsid in namespaces:
                ns = namespaces[nsid]
            else:
                ns = self.device.namespace(nsid)  # raises DeviceError
            if opcode != OP_FLUSH and (slba < 0 or nlb < 1 or slba + nlb > ns.blocks):
                ns.check_range(slba, nlb)  # raises DeviceError
            commands.append(NvmeCommand(seq & 0xFFFF, opcode, nsid, slba, nlb, context))
            seq += 1
        self._qpair.sq.submit_batch(commands)
        # Accepted.  The doorbell only schedules channel completions, so no
        # CQE for these commands can have posted yet.
        self._cid_seq = seq
        outstanding = self._outstanding
        for command in commands:
            outstanding[command.cid] = command
        return commands

    def read(self, nsid: int, slba: int, nlb: int, context: object = None) -> NvmeCommand:
        return self.submit(OP_READ, nsid=nsid, slba=slba, nlb=nlb, context=context)

    def write(self, nsid: int, slba: int, nlb: int, context: object = None) -> NvmeCommand:
        return self.submit(OP_WRITE, nsid=nsid, slba=slba, nlb=nlb, context=context)

    def flush(self, nsid: int = 1, context: object = None) -> NvmeCommand:
        return self.submit(OP_FLUSH, nsid=nsid, context=context)

    def _on_cqe(self, completion: NvmeCompletion) -> None:
        # Polled host: the controller reaps each CQE in the step that posts
        # it, so the ring never backs up (the CPU cost of reaping is charged
        # by the caller).
        self._outstanding.pop(completion.cid, None)
        if self.on_completion is not None:
            self.on_completion(completion)


class NvmeSsd:
    """One simulated NVMe SSD."""

    def __init__(
        self,
        env: "Environment",
        profile: Optional[SsdProfile] = None,
        streams: Optional[RandomStreams] = None,
        ftl_config: Optional[FtlConfig] = None,
        name: str = "nvme0",
    ) -> None:
        self.env = env
        self.profile = profile or SsdProfile()
        self.name = name
        streams = streams or RandomStreams(0)
        rng = streams.stream(f"ssd/{name}")
        # The FTL draws from its own stream: sharing the service-time
        # generator would let a GC-interval draw perturb every subsequent
        # service time, breaking A/B determinism between FTL-on/off runs.
        ftl = (
            Ftl(env, ftl_config, rng=streams.stream(f"ssd/{name}/ftl"))
            if ftl_config is not None
            else None
        )
        self.controller = NvmeController(env, self.profile, rng, ftl=ftl, name=name)
        self._namespaces: Dict[int, Namespace] = {
            1: Namespace(1, self.profile.capacity_blocks, self.profile.block_size)
        }

    def namespace(self, nsid: int) -> Namespace:
        try:
            return self._namespaces[nsid]
        except KeyError:
            raise DeviceError(f"unknown namespace {nsid} on {self.name!r}") from None

    def add_namespace(self, nsid: int, blocks: int) -> Namespace:
        """Carve an additional namespace (test/bench convenience)."""
        if nsid in self._namespaces:
            raise DeviceError(f"namespace {nsid} already exists")
        ns = Namespace(nsid, blocks, self.profile.block_size)
        self._namespaces[nsid] = ns
        return ns

    def create_qpair(self, depth: int = 1024, urgent: bool = False) -> IoQpair:
        """Allocate one I/O SQ/CQ pair of the given depth.

        ``urgent`` places the pair in the NVMe urgent priority class: the
        controller arbitrates it strictly before normal pairs.
        """
        sq = SubmissionQueue(self.env, depth=depth)
        cq = CompletionQueue(self.env, depth=depth)
        qpair = self.controller.register_qpair(sq, cq, urgent=urgent)
        return IoQpair(self, qpair, depth)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NvmeSsd {self.name!r} profile={self.profile.name!r}>"
