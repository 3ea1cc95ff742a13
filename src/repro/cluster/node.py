"""Node models: target nodes (storage service) and initiator nodes (hosts).

A :class:`TargetNode` owns one reactor core, one or more NVMe SSDs behind a
subsystem, and an NVMe-oF(-oPF) target runtime.  An :class:`InitiatorNode`
hosts one or more initiators (tenants), each on its own core, sharing the
node's NIC — matching the paper's setups where several tenants run per
physical host.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..core.initiator import OpfInitiator
from ..core.target import OpfTarget
from ..cpu.core import CpuCore
from ..cpu.costs import CpuCostModel, DEFAULT_COSTS
from ..errors import ConfigError
from ..net.topology import Fabric
from ..nvmeof.initiator import NvmeOfInitiator
from ..nvmeof.subsystem import Subsystem
from ..nvmeof.target import NvmeOfTarget
from ..nvmeof.transport import PduTransport
from ..ssd.device import NvmeSsd
from ..ssd.ftl import FtlConfig
from ..ssd.latency import SsdProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..metrics.collector import Collector
    from ..simcore.engine import Environment
    from ..simcore.rng import RandomStreams

PROTOCOL_SPDK = "spdk"
PROTOCOL_OPF = "nvme-opf"
PROTOCOLS = (PROTOCOL_SPDK, PROTOCOL_OPF)


class TargetNode:
    """One storage-service host exposing SSDs over the fabric."""

    def __init__(
        self,
        env: "Environment",
        name: str,
        fabric: Fabric,
        streams: "RandomStreams",
        protocol: str = PROTOCOL_SPDK,
        n_ssds: int = 1,
        ssd_profile: Optional[SsdProfile] = None,
        ftl_config: Optional[FtlConfig] = None,
        costs: CpuCostModel = DEFAULT_COSTS,
        conn_switch_cost: float = 0.5,
        target_cls: Optional[type] = None,
    ) -> None:
        if protocol not in PROTOCOLS and target_cls is None:
            raise ConfigError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
        if n_ssds < 1:
            raise ConfigError("a target node needs at least one SSD")
        self.env = env
        self.name = name
        self.fabric = fabric
        fabric.add_node(name)
        self.core = CpuCore(env, name=f"{name}/reactor")
        self.ssds: List[NvmeSsd] = [
            NvmeSsd(
                env,
                profile=ssd_profile,
                streams=streams,
                ftl_config=ftl_config,
                name=f"{name}/ssd{i}",
            )
            for i in range(n_ssds)
        ]
        self.subsystem = Subsystem(f"nqn.2024-06.io.repro:{name}")
        for ssd in self.ssds:
            self.subsystem.add_device(ssd)
        if target_cls is None:
            target_cls = OpfTarget if protocol == PROTOCOL_OPF else NvmeOfTarget
        self.target = target_cls(
            env,
            name,
            self.core,
            self.subsystem,
            costs=costs,
            conn_switch_cost=conn_switch_cost,
        )

    def accept(self, transport: PduTransport) -> None:
        self.target.bind(transport)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TargetNode {self.name!r} ssds={len(self.ssds)}>"


class InitiatorNode:
    """One application host; tenants (initiators) share its NIC."""

    def __init__(self, env: "Environment", name: str, fabric: Fabric) -> None:
        self.env = env
        self.name = name
        self.fabric = fabric
        fabric.add_node(name)
        self.initiators: List[NvmeOfInitiator] = []
        self._core_count = 0

    def add_initiator(
        self,
        tenant_name: str,
        target_node: TargetNode,
        protocol: str = PROTOCOL_SPDK,
        queue_depth: int = 128,
        costs: CpuCostModel = DEFAULT_COSTS,
        collector: Optional["Collector"] = None,
        window_size: int = 32,
        validate_pdus: bool = False,
        transport: str = "tcp",
        retry_policy=None,
        recovery_rng=None,
        events=None,
        **opf_kwargs,
    ) -> NvmeOfInitiator:
        """Create one tenant connected to ``target_node``.

        Tenant ids come from a fabric-wide running index so each initiator
        is a distinct tenant at the target, as in the paper's experiments.
        ``transport`` selects the fabric binding: ``"tcp"`` (the paper's
        evaluation) or ``"rdma"`` (RoCE-style lossless QPs).
        """
        if protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
        if transport not in ("tcp", "rdma"):
            raise ConfigError(f"unknown transport {transport!r}; choose 'tcp' or 'rdma'")
        core = CpuCore(self.env, name=f"{self.name}/core{self._core_count}")
        self._core_count += 1
        tenant_id = _next_tenant_id(self.fabric)
        if protocol == PROTOCOL_OPF:
            initiator: NvmeOfInitiator = OpfInitiator(
                self.env,
                tenant_name,
                core,
                costs=costs,
                queue_depth=queue_depth,
                tenant_id=tenant_id,
                collector=collector,
                window_size=window_size,
                retry_policy=retry_policy,
                recovery_rng=recovery_rng,
                events=events,
                **opf_kwargs,
            )
        else:
            initiator = NvmeOfInitiator(
                self.env,
                tenant_name,
                core,
                costs=costs,
                queue_depth=queue_depth,
                tenant_id=tenant_id,
                collector=collector,
                retry_policy=retry_policy,
                recovery_rng=recovery_rng,
                events=events,
            )
        if transport == "rdma":
            sock_i, sock_t = self.fabric.connect_rdma(
                self.name, target_node.name, name=tenant_name
            )
            initiator.attach(PduTransport(sock_i, validate=validate_pdus))
            target_node.accept(PduTransport(sock_t, validate=validate_pdus))
        else:
            sock_i, sock_t = self.fabric.connect(self.name, target_node.name, name=tenant_name)
            initiator.attach(PduTransport(sock_i, validate=validate_pdus))
            target_node.accept(PduTransport(sock_t, validate=validate_pdus))
        self.initiators.append(initiator)
        return initiator

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<InitiatorNode {self.name!r} initiators={len(self.initiators)}>"


def _next_tenant_id(fabric: Fabric) -> int:
    """Fabric-wide unique tenant id counter (stored on the fabric object)."""
    counter = getattr(fabric, "_tenant_counter", 0)
    fabric._tenant_counter = counter + 1  # type: ignore[attr-defined]
    return counter
