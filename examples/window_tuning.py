#!/usr/bin/env python3
"""Window-size tuning: static sweep, the optimizer, and online tuning.

The coalescing window is NVMe-oPF's central knob (§IV-D): too small and
completion coalescing buys nothing; too large and drain round trips stall
the pipeline (and a window above the queue depth would live-lock).  This
example:

1. sweeps static windows for one throughput-critical tenant,
2. shows what :func:`repro.core.select_window` picks for several operating
   points, and
3. runs the QoS ``aimd-window`` policy, the run-time tuner, from a cold
   window and compares where it settles with an offline sweep's best.

Run:  python examples/window_tuning.py
"""

from repro import Scenario, ScenarioConfig, format_table, select_window
from repro.experiments.qos import run_qos_aimd
from repro.workloads import tenants_for_ratio


def sweep_static_windows():
    print("1) Static window sweep (1 TC tenant, 4K reads, 100 Gbps)\n")
    rows = []
    for window in (1, 2, 4, 8, 16, 32, 64):
        cfg = ScenarioConfig(
            protocol="nvme-opf", network_gbps=100.0, op_mix="read",
            total_ops=1200, window_size=window, seed=3,
        )
        res = Scenario.two_sided(cfg, tenants_for_ratio("0:1")).run()
        rows.append([window, res.tc_throughput_mbps, res.completion_notifications])
    base_cfg = ScenarioConfig(protocol="spdk", network_gbps=100.0, op_mix="read",
                              total_ops=1200, seed=3)
    base = Scenario.two_sided(base_cfg, tenants_for_ratio("0:1")).run()
    rows.insert(0, ["SPDK", base.tc_throughput_mbps, base.completion_notifications])
    print(format_table(["window", "TC MB/s", "notifications"], rows))


def show_optimizer():
    print("\n2) The optimizer's choices (select_window)\n")
    rows = []
    for workload in ("read", "write", "mixed"):
        for gbps in (10.0, 25.0, 100.0):
            for n_tc in (1, 4):
                rows.append([workload, f"{gbps:g}G", n_tc,
                             select_window(workload, gbps, tc_initiators=n_tc)])
    print(format_table(["workload", "network", "TC tenants", "window"], rows))


def show_online_tuning():
    print("\n3) Online tuning: the aimd-window policy from a cold window\n")
    run_qos_aimd(print_table=True)


def main() -> None:
    sweep_static_windows()
    show_optimizer()
    show_online_tuning()


if __name__ == "__main__":
    main()
