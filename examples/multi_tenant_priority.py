#!/usr/bin/env python3
"""Multi-tenant priority isolation — the paper's Figure 1 scenario.

A storage service hosts one NVMe SSD behind an NVMe-oPF target.  Five
tenants connect with different goals:

* ``kv-store``       — an interactive key-value store: latency-sensitive.
* ``web-analytics``  — a second interactive app: latency-sensitive.
* ``etl-1..3``       — batch ETL jobs hammering the device: throughput-
                       critical at queue depth 128.

The script runs the identical tenant mix on the priority-blind baseline
and on NVMe-oPF and prints per-tenant results: with the baseline, the
interactive tenants' tail latency is at the mercy of the batch backlog;
with NVMe-oPF they bypass it, while the batch tenants go *faster* thanks
to completion coalescing.

Run:  python examples/multi_tenant_priority.py
"""

from repro import (
    Priority,
    Scenario,
    ScenarioConfig,
    TenantSpec,
    format_table,
    select_window,
)

#: Every tenant runs the scenario's op mix (the config names that one mix,
#: so ``Scenario.two_sided`` refuses a tenant whose mix differs).
OP_MIX = "rw50"

TENANTS = [
    TenantSpec("kv-store", Priority.LATENCY, queue_depth=1, op_mix=OP_MIX),
    TenantSpec("web-analytics", Priority.LATENCY, queue_depth=1, op_mix=OP_MIX),
    TenantSpec("etl-1", Priority.THROUGHPUT, queue_depth=128, op_mix=OP_MIX),
    TenantSpec("etl-2", Priority.THROUGHPUT, queue_depth=128, op_mix=OP_MIX),
    TenantSpec("etl-3", Priority.THROUGHPUT, queue_depth=128, op_mix=OP_MIX),
]


def run(protocol: str):
    config = ScenarioConfig(
        protocol=protocol,
        network_gbps=100.0,
        op_mix=OP_MIX,
        total_ops=800,
        # The optimizer's pick for a mixed workload, 100 Gbps, three batch
        # tenants (§IV-D).
        window_size=select_window("mixed", 100.0, tc_initiators=3),
        seed=11,
    )
    scenario = Scenario.two_sided(config, TENANTS)
    result = scenario.run()
    details = {}
    for tenant in TENANTS:
        summary = scenario.collector.summary(tenant.name)
        details[tenant.name] = (
            summary.throughput_mbps(scenario.collector.elapsed_us()),
            summary.latency.mean() if len(summary.latency) else float("nan"),
            summary.latency.tail() if len(summary.latency) else float("nan"),
        )
    return result, details


def main() -> None:
    spdk_result, spdk = run("spdk")
    opf_result, opf = run("nvme-opf")

    rows = []
    for tenant in TENANTS:
        s_tput, s_mean, s_tail = spdk[tenant.name]
        o_tput, o_mean, o_tail = opf[tenant.name]
        rows.append([
            tenant.name,
            tenant.priority.value,
            s_tput, o_tput,
            s_tail, o_tail,
        ])
    print(format_table(
        ["tenant", "goal", "SPDK MB/s", "oPF MB/s", "SPDK p99.99 us", "oPF p99.99 us"],
        rows,
        title="Per-tenant outcomes: priority-blind baseline vs NVMe-oPF",
    ))

    print(
        f"\nAggregate batch throughput: {spdk_result.tc_throughput_mbps:.0f} -> "
        f"{opf_result.tc_throughput_mbps:.0f} MB/s; interactive p99.99: "
        f"{spdk_result.ls_tail_us:.0f} -> {opf_result.ls_tail_us:.0f} us."
    )
    print(
        "Each tenant declared only a flag (latency vs throughput); the "
        "priority managers did the rest — no coordination between tenants."
    )


if __name__ == "__main__":
    main()
