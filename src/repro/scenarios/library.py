"""Registered library programs: the paper's figure setups as data.

Each builder re-expresses an existing figure experiment as a scenario
program whose replay is **digest-identical** to the hand-built scenario it
mirrors (the golden-regression suite pins this).  They double as worked
examples of the action vocabulary.
"""

from __future__ import annotations

from .actions import Advance, TenantJoin
from .program import DEFAULT_REGISTRY, ProgramRegistry, ScenarioProgram

#: The golden-regression cell (scaled-down Figure 7): 1 LS + 2 TC tenants,
#: read mix, 10 Gbps, 200 ops per TC tenant, window 16, seed 1.
FIG7_CELL = "fig7-opf-1to2"
FIG7_CELL_SPDK = "fig7-spdk-1to2"
#: The SLO-guard defence experiment: an LS p99 ceiling defended against a
#: mid-run TC burst (``repro.experiments.qos.run_qos_guard`` guarded arm).
QOS_GUARD = "qos-guard-burst"
#: Its ls0 p99 ceiling and the workload time the tc1 burst joins at.
QOS_GUARD_CEILING_US = 650.0
QOS_GUARD_BURST_AT_US = 10_000.0


def _fig7_cell(name: str, protocol: str) -> ScenarioProgram:
    return ScenarioProgram(
        name=name,
        description=(
            "Scaled-down Figure-7 cell (1:2 ratio, read, 10 Gbps, 200 ops, "
            f"window 16, seed 1) on {protocol}; digest-identical to "
            "Scenario.two_sided(tenants_for_ratio('1:2'))."
        ),
        config={
            "protocol": protocol,
            "network_gbps": 10.0,
            "op_mix": "read",
            "total_ops": 200,
            "window_size": 16,
            "seed": 1,
        },
        actions=(
            TenantJoin(tenant="ls0", priority="latency"),
            TenantJoin(tenant="tc0", priority="throughput"),
            TenantJoin(tenant="tc1", priority="throughput"),
        ),
    )


def fig7_cell_program() -> ScenarioProgram:
    return _fig7_cell(FIG7_CELL, "nvme-opf")


def fig7_cell_spdk_program() -> ScenarioProgram:
    return _fig7_cell(FIG7_CELL_SPDK, "spdk")


def qos_guard_program(total_ops: int = 9_000) -> ScenarioProgram:
    """The guarded arm of ``run_qos_guard`` as a program: the TC burst is a
    staged ``tenant_join`` at the burst instant."""
    return ScenarioProgram(
        name=QOS_GUARD,
        description=(
            "SLO-guard defence: ls0's p99 ceiling held against a staged tc1 "
            "burst; mirrors repro.experiments.qos.run_qos_guard(policy=slo-guard)."
        ),
        config={
            "protocol": "nvme-opf",
            "network_gbps": 10.0,
            "op_mix": "read",
            "total_ops": total_ops,
            "window_size": 16,
            "seed": 1,
            "qos_policy": "slo-guard",
            "slos": [{"tenant": "ls0", "p99_ceiling_us": QOS_GUARD_CEILING_US}],
            "qos_interval_us": 100.0,
        },
        actions=(
            TenantJoin(tenant="ls0", priority="latency"),
            TenantJoin(tenant="tc0", priority="throughput"),
            Advance(dt_us=QOS_GUARD_BURST_AT_US),
            TenantJoin(tenant="tc1", priority="throughput"),
        ),
    )


def register_library_programs(registry: ProgramRegistry = DEFAULT_REGISTRY) -> ProgramRegistry:
    """Idempotently register every library program."""
    for build in (fig7_cell_program, fig7_cell_spdk_program, qos_guard_program):
        program = build()
        if program.name not in registry:
            registry.register(program)
    return registry
