"""Scale-out experiment builders (paper §V-D).

Two patterns over a pool of initiator-node/target-node pairs (each
initiator-node talks to its own target-node, as in the paper's 10-node
setup):

* **Pattern 1** — fix the node count, grow the number of initiators per
  initiator-node (1..5).  Each node hosts one latency-sensitive initiator
  and the rest throughput-critical (the composition §V-E states explicitly
  and §V-D's latency curves imply).
* **Pattern 2** — fix four throughput-critical initiators per node (LS:TC
  = 0:4), grow the number of node pairs (1..5).

:func:`scale_curve` runs either: a pattern is the list of shapes it visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.flags import Priority
from ..errors import ConfigError
from ..workloads.mixes import LS_QUEUE_DEPTH, TC_QUEUE_DEPTH, TenantSpec
from .scenario import Scenario, ScenarioConfig
from .spec import ScenarioSpec

#: Pattern 2's initiators per node (LS:TC = 0:4).
PATTERN2_PER_NODE = 4


def tenants_for_node(
    node_index: int,
    initiators_per_node: int,
    op_mix: str,
    include_ls: bool = True,
) -> List[TenantSpec]:
    """Tenant composition for one initiator-node under pattern 1/2."""
    if initiators_per_node < 1:
        raise ConfigError("need at least one initiator per node")
    tenants: List[TenantSpec] = []
    start = 0
    if include_ls and initiators_per_node >= 2:
        tenants.append(
            TenantSpec(
                name=f"n{node_index}.ls0",
                priority=Priority.LATENCY,
                queue_depth=LS_QUEUE_DEPTH,
                op_mix=op_mix,
            )
        )
        start = 1
    for i in range(start, initiators_per_node):
        tenants.append(
            TenantSpec(
                name=f"n{node_index}.tc{i}",
                priority=Priority.THROUGHPUT,
                queue_depth=TC_QUEUE_DEPTH,
                op_mix=op_mix,
            )
        )
    return tenants


def build_scaleout(
    config: ScenarioConfig,
    n_node_pairs: int,
    initiators_per_node: int,
    include_ls: bool = True,
) -> Scenario:
    """N initiator-nodes, N target-nodes, pairwise wiring
    (:meth:`ScenarioSpec.scaleout <repro.cluster.spec.ScenarioSpec.scaleout>`),
    built."""
    return ScenarioSpec.scaleout(
        config, n_node_pairs, initiators_per_node, include_ls
    ).build()


@dataclass
class ScalePoint:
    """One x-axis point of a Figure 8 curve."""

    total_initiators: int
    protocol: str
    throughput_mbps: float
    mean_latency_us: float
    tc_iops: float


def scale_curve(
    protocol: str,
    op_mix: str,
    shapes: Sequence[Tuple[int, int]],
    include_ls: bool,
    total_ops: int = 600,
    seed: int = 1,
) -> List[ScalePoint]:
    """One Figure 8 curve at 100 Gbps: a scale-out run per ``(node pairs,
    initiators per node)`` shape.  Pattern 1 holds the pairs and grows the
    initiators with ``include_ls=True``; pattern 2 holds
    :data:`PATTERN2_PER_NODE` initiators and grows the pairs without LS."""
    points = []
    for n_node_pairs, per_node in shapes:
        cfg = ScenarioConfig(protocol=protocol, op_mix=op_mix, total_ops=total_ops, seed=seed)
        result = build_scaleout(cfg, n_node_pairs, per_node, include_ls).run()
        points.append(
            ScalePoint(
                total_initiators=n_node_pairs * per_node,
                protocol=protocol,
                throughput_mbps=result.tc_throughput_mbps,
                mean_latency_us=result.mean_latency_us or 0.0,
                tc_iops=result.tc_iops,
            )
        )
    return points
