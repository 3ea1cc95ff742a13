"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. Lock-free per-tenant queues vs a single shared TC queue (§IV-A).
2. Window-size selection: static-bad vs optimizer-chosen (§IV-D).
3. Latency-sensitive bypass on/off (§III-B).
4. Zero-copy CID queues vs request-copy queues — space accounting (§IV-B).
"""

import functools

from conftest import run_once

from repro.cluster import Scenario, ScenarioConfig
from repro.core import SharedQueueOpfTarget, select_window
from repro.core.cid_queue import ENTRY_BYTES, RETIRED_MEMORY
from repro.metrics import format_table
from repro.workloads import TenantSpec, tenants_for_ratio
from repro.core.flags import Priority


def _run(protocol="nvme-opf", ratio="0:3", total_ops=400, window=16, **kw):
    cfg = ScenarioConfig(
        protocol=protocol, network_gbps=100, total_ops=total_ops,
        window_size=window, warmup_us=200, **kw,
    )
    sc = Scenario.two_sided(cfg, tenants_for_ratio(ratio, op_mix="read"))
    return sc, sc.run()


def test_ablation_lockfree_vs_shared_queue(benchmark, show):
    """Per-tenant queues keep coalescing intact; the shared queue flushes
    windows prematurely, sending ~per-request responses again."""

    def run_both():
        _, per_tenant = _run()
        sc, shared = _run(
            target_cls=functools.partial(SharedQueueOpfTarget, tc_queue_depth=4096)
        )
        return per_tenant, shared, sc.target_nodes[0].target

    per_tenant, shared, shared_target = run_once(benchmark, run_both)

    assert shared_target.premature_flushes > 0
    # Shared queue destroys most of the notification reduction.
    assert shared.completion_notifications > per_tenant.completion_notifications * 3
    # And costs throughput.
    assert per_tenant.tc_throughput_mbps >= shared.tc_throughput_mbps * 0.98

    show(format_table(
        ["design", "TC MB/s", "notifications", "premature flushes"],
        [
            ["per-tenant (lock-free)", per_tenant.tc_throughput_mbps,
             per_tenant.completion_notifications, 0],
            ["shared queue", shared.tc_throughput_mbps,
             shared.completion_notifications, shared_target.premature_flushes],
        ],
        title="Ablation: lock-free per-tenant queues (§IV-A)",
    ))


def test_ablation_window_selection(benchmark, show):
    """The optimizer's window beats degenerate static choices (§IV-D)."""

    def run_windows():
        results = {}
        for label, window in [
            ("w=1", 1),
            ("optimizer", select_window("read", 100.0, tc_initiators=3)),
        ]:
            _, res = _run(window=window)
            results[label] = res
        return results

    results = run_once(benchmark, run_windows)
    assert (
        results["optimizer"].tc_throughput_mbps
        > results["w=1"].tc_throughput_mbps * 1.10
    )
    show(format_table(
        ["window", "TC MB/s", "notifications"],
        [[k, v.tc_throughput_mbps, v.completion_notifications] for k, v in results.items()],
        title="Ablation: window selection (§IV-D)",
    ))


def test_ablation_priority_awareness(benchmark, show):
    """Priority awareness end to end: the same interactive QD-1 tenant
    behind three TC tenants, on the priority-blind baseline (FIFO behind
    everyone's queue-depth-128 backlog) vs on oPF with the LS bypass.

    Note: within oPF itself, tagging a QD-1 tenant TC is *almost* as good
    as LS, because per-tenant queues mean it never waits behind other
    tenants' windows — the bypass's value shows against the FIFO baseline.
    """

    def run_both():
        _, spdk = _run(protocol="spdk", ratio="1:3", total_ops=400, window=32)
        _, opf = _run(protocol="nvme-opf", ratio="1:3", total_ops=400, window=32)
        # Also measure the within-oPF variant (QD-1 tenant tagged TC).
        cfg = ScenarioConfig(
            protocol="nvme-opf", network_gbps=100, total_ops=400,
            window_size=32, warmup_us=200,
        )
        tenants = [TenantSpec("victim", Priority.THROUGHPUT, 1, "read")] + [
            TenantSpec(f"tc{i}", Priority.THROUGHPUT, 128, "read") for i in range(3)
        ]
        sc = Scenario.two_sided(cfg, tenants)
        sc.run()
        victim_tail = sc.collector.summary("victim").latency.tail()
        return spdk, opf, victim_tail

    spdk, opf, tc_tagged_tail = run_once(benchmark, run_both)
    assert opf.ls_tail_us is not None and spdk.ls_tail_us is not None
    # The bypass protects the interactive tenant against the FIFO baseline.
    assert opf.ls_tail_us < spdk.ls_tail_us * 0.85

    show(format_table(
        ["config", "interactive-tenant p99.99 us"],
        [
            ["SPDK (no priorities, FIFO)", spdk.ls_tail_us],
            ["oPF, tenant tagged LS (bypass)", opf.ls_tail_us],
            ["oPF, tenant tagged TC", tc_tagged_tail],
        ],
        title="Ablation: priority awareness / LS bypass (§III-B)",
    ))


#: Retired-CID memory one queue may hold at the default ``RETIRED_MEMORY``:
#: an 8 KiB bitmap plus a 4,096-entry u16 ring, with their object headers.
RETIRED_BYTES_BOUND = int(16.5 * 1024)


def _cid_queues(sc):
    """Every CID queue a scenario holds: one per oPF initiator (a target's
    windows are CID-keyed dicts, with no retired-CID memory)."""
    return [i.pm.cid_queue for node in sc.initiator_nodes.values() for i in node.initiators]


def test_ablation_zero_copy_queue_footprint(benchmark, show):
    """CID-only queues: footprint independent of I/O size (§IV-B), and the
    memory of retired CIDs the chaos-safe drain protocol adds stays bounded
    however many CIDs a queue retires."""

    def measure():
        # Peak queue residency equals one window per tenant; compute the
        # footprint both ways for a 64-deep window of 4 KiB requests.
        entries = 64 * 4
        cid_bytes = entries * ENTRY_BYTES
        copy_bytes = entries * (4096 + 64)  # data + SQE copy per request
        # What the live queues of a long run actually hold beside their
        # entries: the opf-read benchmark unit (read 1:4 at 100 Gbps, 5,000
        # ops per TC tenant), whose TC queues each retire more CIDs than
        # they remember.
        cfg = ScenarioConfig(protocol="nvme-opf", network_gbps=100.0, op_mix="read",
                             total_ops=5000, window_size=32, seed=1)
        sc = Scenario.two_sided(cfg, tenants_for_ratio("1:4", op_mix="read"))
        sc.run()
        return cid_bytes, copy_bytes, _cid_queues(sc)

    cid_bytes, copy_bytes, queues = run_once(benchmark, measure)
    assert cid_bytes * 100 < copy_bytes
    assert len(queues) == 5  # five initiators: one LS, four TC
    assert sum(q.total_drained > RETIRED_MEMORY for q in queues) == 4
    retired = [q.retired_bytes for q in queues]
    assert max(retired) <= RETIRED_BYTES_BOUND
    show(format_table(
        ["design", "bytes for 4x64 queued 4KiB requests"],
        [["zero-copy (CIDs only)", cid_bytes], ["request copies", copy_bytes]],
        title="Ablation: zero-copy queues (§IV-B)",
        float_fmt="{:.0f}",
    ))
    show(format_table(
        ["queues", "retired-CID bytes per queue (max)", "retired-CID bytes, all queues"],
        [[len(queues), max(retired), sum(retired)]],
        title="Retired-CID memory after one opf-read unit (§IV-B)",
        float_fmt="{:.0f}",
    ))
