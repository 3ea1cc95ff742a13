"""Cluster assembly: nodes, scenario specs and builds, scaling patterns."""

from .node import InitiatorNode, PROTOCOL_OPF, PROTOCOL_SPDK, PROTOCOLS, TargetNode
from .scaling import ScalePoint, build_scaleout, scale_curve, tenants_for_node
from .scenario import Scenario, ScenarioConfig, ScenarioResult
from .spec import ScenarioSpec, TenantPlacement

__all__ = [
    "InitiatorNode",
    "PROTOCOL_OPF",
    "PROTOCOL_SPDK",
    "PROTOCOLS",
    "ScalePoint",
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "ScenarioSpec",
    "TargetNode",
    "TenantPlacement",
    "build_scaleout",
    "scale_curve",
    "tenants_for_node",
]
