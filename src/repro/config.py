"""Hardware presets (Table I) and per-network tuning.

The paper's two testbeds become :data:`CHAMELEON_CC` (10/25 Gbps) and
:data:`CLOUDLAB_CL` (100 Gbps).  :func:`network_tuning` centralises the
fabric parameters that vary with line rate — most importantly the droptail
queue depth, which is the congestion mechanism of the 10 Gbps experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import ConfigError
from .net.tcp import TcpConfig
from .ssd.latency import CHAMELEON_SSD, CLOUDLAB_SSD, SsdProfile


#: Hard sanity cap on any worker pool: the campaign runner's processes and
#: the simulation service's slicing threads (a sweep never needs more).
MAX_WORKERS = 64


@dataclass(frozen=True)
class HardwarePreset:
    """One testbed row of Table I."""

    name: str
    processor: str
    cores: int
    ram_gb: int
    nic_gbps: Tuple[float, ...]
    ssd: SsdProfile

    def supports(self, gbps: float) -> bool:
        return gbps in self.nic_gbps


#: Chameleon Cloud storage_nvme nodes (Table I, "CC" column).
CHAMELEON_CC = HardwarePreset(
    name="chameleon-cc",
    processor="AMD EPYC 7352 2.3GHz",
    cores=24,
    ram_gb=256,
    nic_gbps=(10.0, 25.0),
    ssd=CHAMELEON_SSD,
)

#: CloudLab r6525 nodes (Table I, "CL" column).
CLOUDLAB_CL = HardwarePreset(
    name="cloudlab-cl",
    processor="AMD EPYC 7543 2.8GHz",
    cores=32,
    ram_gb=256,
    nic_gbps=(100.0,),
    ssd=CLOUDLAB_SSD,
)

PRESETS = (CHAMELEON_CC, CLOUDLAB_CL)


def preset_for_network(gbps: float) -> HardwarePreset:
    """The testbed that provides the given line rate (Table I pairing)."""
    for preset in PRESETS:
        if preset.supports(gbps):
            return preset
    raise ConfigError(f"no testbed preset offers {gbps} Gbps (choose 10/25/100)")


@dataclass(frozen=True)
class NetworkTuning:
    """Fabric parameters for one line rate."""

    rate_gbps: float
    queue_packets: int
    propagation_us: float
    switch_delay_us: float
    tcp: TcpConfig

    def __post_init__(self) -> None:
        if self.rate_gbps <= 0:
            raise ConfigError("rate must be positive")
        if self.queue_packets < 1:
            raise ConfigError("queue must hold at least one packet")


def network_tuning(gbps: float) -> NetworkTuning:
    """Per-rate fabric tuning.

    The queue-slot budget is the congestion mechanism of the 10 Gbps
    experiments: a saturated multi-tenant read run keeps roughly
    ``n_tc x queue_depth`` requests in flight, and baseline SPDK needs ~2
    packet slots per request (one data segment + one completion capsule)
    where NVMe-oPF needs ~1 (completions coalesced 1/window).  A 768-slot
    budget therefore sits *between* the two demands at 4-5 tenants: SPDK
    tips into droptail loss and AIMD/retransmit stalls while oPF stays
    under the cliff — the paper's 10 Gbps read separation.  Faster fabrics
    get proportionally deeper buffers (switch buffers scale with rate) and
    effectively never drop in these workloads.
    """
    if gbps <= 10:
        queue = 768
    elif gbps <= 25:
        queue = 1280
    else:
        queue = 4096
    return NetworkTuning(
        rate_gbps=gbps,
        queue_packets=queue,
        propagation_us=1.0,
        switch_delay_us=0.5,
        tcp=TcpConfig(),
    )
