"""Tenant-mix specifications (the paper's LS:TC ratios).

Figure 7 evaluates seven latency-sensitive : throughput-critical initiator
ratios — 1:1, 1:2, 2:2, 3:2, 1:3, 2:3, 1:4 — with LS initiators at queue
depth 1 and TC initiators at queue depth 128.  This module turns a ratio
string into concrete tenant specs for the scenario builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.flags import Priority
from ..errors import WorkloadError

#: The ratios evaluated in Figure 7, in presentation order.
PAPER_RATIOS = ("1:1", "1:2", "2:2", "3:2", "1:3", "2:3", "1:4")

#: Queue depths from §V-A: TC initiators 128, LS initiators 1.
TC_QUEUE_DEPTH = 128
LS_QUEUE_DEPTH = 1


@dataclass(frozen=True)
class TenantSpec:
    """One initiator to instantiate in a scenario."""

    name: str
    priority: Priority
    queue_depth: int
    op_mix: str = "read"  # "read" | "write" | "rw50"
    #: Workload start offset from the scenario's workload start (us).  Lets
    #: a scenario stage arrival bursts — e.g. a throughput-critical tenant
    #: slamming in mid-run against an established latency-sensitive tenant
    #: (the QoS experiments' shape).  0 = start with everyone else.
    start_delay_us: float = 0.0
    #: Per-tenant op quota.  None (the default) keeps the scenario-level
    #: rule: TC tenants run ``config.total_ops``, LS tenants run open-ended.
    #: Scenario programs use this for heterogeneous quotas (bursts, churn).
    total_ops: "int | None" = None

    def __post_init__(self) -> None:
        if self.start_delay_us < 0:
            raise WorkloadError("start delay must be non-negative")
        if self.total_ops is not None and self.total_ops < 1:
            raise WorkloadError("per-tenant total_ops must be >= 1 when set")

    @property
    def is_latency_sensitive(self) -> bool:
        return self.priority is Priority.LATENCY


def parse_ratio(ratio: str) -> tuple:
    """Parse "L:T" into (n_latency, n_throughput)."""
    try:
        ls_str, tc_str = ratio.split(":")
        n_ls, n_tc = int(ls_str), int(tc_str)
    except (ValueError, AttributeError):
        raise WorkloadError(f"malformed ratio {ratio!r}; expected 'L:T'") from None
    if n_ls < 0 or n_tc < 0 or (n_ls == 0 and n_tc == 0):
        raise WorkloadError(f"ratio must name at least one initiator: {ratio!r}")
    return n_ls, n_tc


def tenants_for_ratio(
    ratio: str,
    op_mix: str = "read",
    tc_queue_depth: int = TC_QUEUE_DEPTH,
) -> List[TenantSpec]:
    """Expand a ratio string into tenant specs (LS tenants first)."""
    n_ls, n_tc = parse_ratio(ratio)
    tenants: List[TenantSpec] = []
    for i in range(n_ls):
        tenants.append(
            TenantSpec(
                name=f"ls{i}",
                priority=Priority.LATENCY,
                queue_depth=LS_QUEUE_DEPTH,
                op_mix=op_mix,
            )
        )
    for i in range(n_tc):
        tenants.append(
            TenantSpec(
                name=f"tc{i}",
                priority=Priority.THROUGHPUT,
                queue_depth=tc_queue_depth,
                op_mix=op_mix,
            )
        )
    return tenants
