"""NVMe SSD substrate: profiles, queues, controller, FTL, device facade."""

from .controller import DeviceErrorInjector, NvmeController, QueuePair
from .device import IoQpair, Namespace, NvmeSsd
from .ftl import Ftl, FtlConfig
from .latency import (
    CHAMELEON_SSD,
    CLOUDLAB_SSD,
    OP_FLUSH,
    OP_READ,
    OP_WRITE,
    SsdProfile,
)
from .queues import (
    CompletionQueue,
    NvmeCommand,
    NvmeCompletion,
    STATUS_LBA_OUT_OF_RANGE,
    STATUS_SUCCESS,
    SubmissionQueue,
)

__all__ = [
    "CHAMELEON_SSD",
    "CLOUDLAB_SSD",
    "CompletionQueue",
    "DeviceErrorInjector",
    "Ftl",
    "FtlConfig",
    "IoQpair",
    "Namespace",
    "NvmeCommand",
    "NvmeCompletion",
    "NvmeController",
    "NvmeSsd",
    "OP_FLUSH",
    "OP_READ",
    "OP_WRITE",
    "QueuePair",
    "SsdProfile",
    "STATUS_LBA_OUT_OF_RANGE",
    "STATUS_SUCCESS",
    "SubmissionQueue",
]
