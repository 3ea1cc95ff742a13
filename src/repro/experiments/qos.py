"""QoS control-plane experiments (the closed-loop companion to Fig. 6/7).

Two demonstrations of the :mod:`repro.qos` controller:

* :func:`run_qos_guard` — SLO defence.  One latency-sensitive tenant with a
  p99 ceiling shares a 10 Gbps fabric with one steady throughput-critical
  tenant; a second TC tenant bursts in mid-run.  With the default ``static``
  policy the LS tail blows through its ceiling for the whole burst; with
  ``slo-guard`` the controller rate-limits the TC tenants at the congestion
  knee, holding the SLO for ≥99 % of the run while aggregate TC throughput
  stays within a few percent of the unthrottled level.

* :func:`run_qos_aimd` — online window tuning.  An offline sweep over a
  reduced window grid (the Fig. 6 methodology) finds the best coalescing
  window; then the ``aimd-window`` policy starts from a cold window and must
  converge to within one power-of-two of that offline optimum without ever
  seeing the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.scenario import Scenario, ScenarioConfig, ScenarioResult
from ..core.flags import Priority
from ..metrics.report import format_table
from ..qos.slo import TenantSlo
from ..scenarios.library import QOS_GUARD_BURST_AT_US, QOS_GUARD_CEILING_US
from ..workloads.mixes import LS_QUEUE_DEPTH, TC_QUEUE_DEPTH, TenantSpec

#: Reduced window grid for the offline reference sweep (Fig. 6 methodology).
QOS_WINDOW_GRID = (8, 16, 32, 64)


@dataclass
class QosGuardResult:
    """Static-vs-slo-guard comparison under a TC burst."""

    static: ScenarioResult
    guarded: ScenarioResult
    #: Fraction of tracked time the LS tenant met its p99 ceiling.
    static_attainment: float
    guarded_attainment: float
    #: Guarded aggregate TC throughput relative to the unthrottled run.
    tc_throughput_ratio: float
    #: Closed [start, end) intervals (us) the guarded run spent in violation.
    violations: List[Tuple[float, float]] = field(default_factory=list)

    def action_log(self) -> str:
        report = self.guarded.qos_report
        return report.action_log() if report is not None else ""


@dataclass
class QosAimdResult:
    """Offline window sweep vs online AIMD convergence."""

    network_gbps: float
    #: (window, TC MB/s) for each offline grid point.
    offline_curve: List[Tuple[int, float]]
    offline_best_window: int
    start_window: int
    online_final_window: int
    online_throughput_mbps: float

    @property
    def converged(self) -> bool:
        """Final window within one power-of-two of the offline optimum."""
        distance = abs(
            math.log2(self.online_final_window) - math.log2(self.offline_best_window)
        )
        return distance <= 1.0


def _guard_tenants() -> List[TenantSpec]:
    return [
        TenantSpec("ls0", Priority.LATENCY, LS_QUEUE_DEPTH, "read"),
        TenantSpec("tc0", Priority.THROUGHPUT, TC_QUEUE_DEPTH, "read"),
        TenantSpec(
            "tc1",
            Priority.THROUGHPUT,
            TC_QUEUE_DEPTH,
            "read",
            start_delay_us=QOS_GUARD_BURST_AT_US,
        ),
    ]


def run_qos_guard(
    network_gbps: float = 10.0,
    total_ops: int = 9_000,
    window_size: int = 16,
    interval_us: float = 100.0,
    seed: int = 1,
    qos_params: Optional[Dict[str, float]] = None,
    print_table: bool = False,
) -> QosGuardResult:
    """Defend an LS p99 SLO against a mid-run TC burst.

    Runs the identical 1 LS + 2 TC scenario twice — ``static`` (monitoring
    only: the SLO is attached so violation time is tracked, but nothing
    acts) and ``slo-guard`` — and reports attainment plus the TC throughput
    cost of the defence.
    """
    slos = (TenantSlo("ls0", p99_ceiling_us=QOS_GUARD_CEILING_US),)

    def build(policy: str) -> ScenarioResult:
        cfg = ScenarioConfig(
            protocol="nvme-opf",
            network_gbps=network_gbps,
            op_mix="read",
            total_ops=total_ops,
            window_size=window_size,
            seed=seed,
            qos_policy=policy,
            slos=slos,
            qos_interval_us=interval_us,
            qos_params=qos_params if policy == "slo-guard" else None,
        )
        return Scenario.two_sided(cfg, _guard_tenants()).run()

    static = build("static")
    guarded = build("slo-guard")
    assert static.qos_report is not None and guarded.qos_report is not None
    result = QosGuardResult(
        static=static,
        guarded=guarded,
        static_attainment=static.qos_report.attainment("ls0"),
        guarded_attainment=guarded.qos_report.attainment("ls0"),
        tc_throughput_ratio=(
            guarded.tc_throughput_mbps / static.tc_throughput_mbps
            if static.tc_throughput_mbps
            else 0.0
        ),
        violations=guarded.qos_report.violations("ls0"),
    )
    if print_table:
        print(
            format_table(
                ["policy", "TC MB/s", "LS p99.99 us", "SLO attainment"],
                [
                    ["static", static.tc_throughput_mbps, static.ls_tail_us,
                     result.static_attainment],
                    ["slo-guard", guarded.tc_throughput_mbps, guarded.ls_tail_us,
                     result.guarded_attainment],
                ],
                title=(
                    f"SLO defence: ls0 p99 <= {QOS_GUARD_CEILING_US:g} us, "
                    f"TC burst at t={QOS_GUARD_BURST_AT_US / 1000:g} ms"
                ),
                float_fmt="{:.3f}",
            )
        )
        print(f"\nTC throughput kept: {result.tc_throughput_ratio:.1%} of unthrottled")
        print("\nController actions:")
        print(result.action_log() or "  (none)")
    return result


def run_qos_aimd(
    windows: Sequence[int] = QOS_WINDOW_GRID,
    network_gbps: float = 25.0,
    start_window: int = 4,
    total_ops_offline: int = 2_000,
    total_ops_online: int = 8_000,
    interval_us: float = 500.0,
    seed: int = 1,
    print_table: bool = False,
) -> QosAimdResult:
    """Re-find the Fig. 6 window peak online with the AIMD policy."""
    tenants = [
        TenantSpec("ls0", Priority.LATENCY, LS_QUEUE_DEPTH, "read"),
        TenantSpec("tc0", Priority.THROUGHPUT, TC_QUEUE_DEPTH, "read"),
    ]
    curve: List[Tuple[int, float]] = []
    for window in windows:
        cfg = ScenarioConfig(
            protocol="nvme-opf",
            network_gbps=network_gbps,
            op_mix="read",
            total_ops=total_ops_offline,
            window_size=window,
            seed=seed,
        )
        res = Scenario.two_sided(cfg, list(tenants)).run()
        curve.append((window, res.tc_throughput_mbps))
    best_window = max(curve, key=lambda point: point[1])[0]

    cfg = ScenarioConfig(
        protocol="nvme-opf",
        network_gbps=network_gbps,
        op_mix="read",
        total_ops=total_ops_online,
        window_size=start_window,
        seed=seed,
        qos_policy="aimd-window",
        qos_interval_us=interval_us,
    )
    online = Scenario.two_sided(cfg, list(tenants)).run()
    assert online.qos_report is not None
    final_window = int(online.qos_report.final_windows["tc0"])
    result = QosAimdResult(
        network_gbps=network_gbps,
        offline_curve=curve,
        offline_best_window=best_window,
        start_window=start_window,
        online_final_window=final_window,
        online_throughput_mbps=online.tc_throughput_mbps,
    )
    if print_table:
        print(
            format_table(
                ["window", "TC MB/s"],
                [[w, tp] for w, tp in curve],
                title=f"Offline window sweep ({network_gbps:g} Gbps, Fig. 6 methodology)",
            )
        )
        print(
            f"\nOffline best window: {best_window}; AIMD from window "
            f"{start_window} settled at {final_window} "
            f"({'within' if result.converged else 'OUTSIDE'} one power-of-two)"
        )
    return result
