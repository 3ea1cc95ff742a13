"""Scenario topology as data: the one description every topology constructor uses.

A :class:`ScenarioSpec` is a picklable, declarative build description —
node declarations plus tenant placements.  :meth:`Scenario.two_sided
<repro.cluster.scenario.Scenario.two_sided>`,
:func:`~repro.cluster.scaling.build_scaleout` and the scenario-program
compiler each assemble one and call :meth:`ScenarioSpec.build`.
Construction order is allocation order (tenant ids, connection ids and RNG
streams follow it), so the spec records it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigError
from ..workloads.mixes import TenantSpec
from .node import InitiatorNode, TargetNode
from .scenario import Scenario, ScenarioConfig


@dataclass(frozen=True)
class TenantPlacement:
    """One tenant declaration: which initiator node talks to which target."""

    spec: TenantSpec
    initiator_node: str
    target_node: str
    nsid: int


@dataclass
class ScenarioSpec:
    """Picklable declarative form of a scenario build.

    ``node_order`` is the exact declaration sequence — tuples of
    ``(kind, name, n_ssds)`` with kind ``"target"`` or ``"initiator"``
    (``n_ssds`` is 0 for initiator nodes).
    """

    config: ScenarioConfig
    node_order: Tuple[Tuple[str, str, int], ...]
    placements: Tuple[TenantPlacement, ...]

    def __post_init__(self) -> None:
        self.node_order = tuple(tuple(n) for n in self.node_order)
        self.placements = tuple(self.placements)
        seen = set()
        targets = set()
        initiators = set()
        for kind, name, _n_ssds in self.node_order:
            if kind not in ("target", "initiator"):
                raise ConfigError(f"unknown node kind {kind!r} for node {name!r}")
            if name in seen:
                raise ConfigError(f"duplicate node name {name!r}")
            seen.add(name)
            (targets if kind == "target" else initiators).add(name)
        names = set()
        for placement in self.placements:
            if placement.spec.name in names:
                raise ConfigError(f"duplicate tenant name {placement.spec.name!r}")
            names.add(placement.spec.name)
            if placement.initiator_node not in initiators:
                raise ConfigError(
                    f"tenant {placement.spec.name!r} references unknown initiator "
                    f"node {placement.initiator_node!r}"
                )
            if placement.target_node not in targets:
                raise ConfigError(
                    f"tenant {placement.spec.name!r} references unknown target "
                    f"node {placement.target_node!r}"
                )

    # -- topologies -----------------------------------------------------------------
    @classmethod
    def two_sided(cls, config: ScenarioConfig, tenants: List[TenantSpec]) -> "ScenarioSpec":
        """The Figure 6/7 shape: one target node with one SSD, each tenant
        on its own initiator node.

        Each tenant runs its own ``op_mix`` while ``config.op_mix`` names
        the run's mix (the figures label their rows with it), so a tenant
        whose mix differs is refused.
        """
        node_order = [("target", "target0", 1)]
        placements = []
        for i, tenant in enumerate(tenants):
            if tenant.op_mix != config.op_mix:
                raise ConfigError(
                    f"tenant {tenant.name!r} runs op_mix {tenant.op_mix!r} but the "
                    f"config's op_mix is {config.op_mix!r}"
                )
            node_order.append(("initiator", f"client{i}", 0))
            placements.append(TenantPlacement(tenant, f"client{i}", "target0", 1))
        return cls(config, tuple(node_order), tuple(placements))

    @classmethod
    def scaleout(
        cls,
        config: ScenarioConfig,
        n_node_pairs: int,
        initiators_per_node: int,
        include_ls: bool = True,
    ) -> "ScenarioSpec":
        """The Figure 8 shape: N initiator-nodes, N single-SSD target-nodes,
        pairwise wiring, tenants per :func:`~repro.cluster.scaling
        .tenants_for_node`."""
        from .scaling import tenants_for_node

        if n_node_pairs < 1:
            raise ConfigError("need at least one node pair")
        node_order: List[Tuple[str, str, int]] = []
        placements: List[TenantPlacement] = []
        for pair in range(n_node_pairs):
            node_order.append(("target", f"target{pair}", 1))
            node_order.append(("initiator", f"client{pair}", 0))
            for tenant in tenants_for_node(
                pair, initiators_per_node, config.op_mix, include_ls
            ):
                placements.append(
                    TenantPlacement(tenant, f"client{pair}", f"target{pair}", 1)
                )
        return cls(config, tuple(node_order), tuple(placements))

    # -- construction ---------------------------------------------------------------
    def build(self) -> Scenario:
        """A fresh :class:`Scenario` with every node built in declaration
        order, then every tenant declared in placement order."""
        sc = Scenario(self.config)
        tmap: Dict[str, TargetNode] = {}
        imap: Dict[str, InitiatorNode] = {}
        for kind, name, n_ssds in self.node_order:
            if kind == "target":
                tmap[name] = sc.add_target_node(name, n_ssds)
            else:
                imap[name] = sc.add_initiator_node(name)
        for p in self.placements:
            sc.add_tenant(p.spec, imap[p.initiator_node], tmap[p.target_node], p.nsid)
        return sc
