"""Figure 7: throughput and p99.99 tail latency across LS:TC ratios.

The full grid is 7 ratios x {10, 25, 100} Gbps x {read, 50:50, write}
x {SPDK, NVMe-oPF}; every point is one scenario run, one work unit of
:func:`fig7_units`.  Throughput is the aggregate of the
throughput-critical initiators (7a-c); tail latency is the pooled p99.99
of the latency-sensitive initiators (7d-f).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.window import select_window
from ..metrics.report import format_table, improvement_pct, reduction_pct
from ..parallel.pool import run_campaign
from ..parallel.units import KIND_SCENARIO, WorkUnit
from ..workloads.mixes import PAPER_RATIOS
from .calibration import NETWORK_SPEEDS

_MIX_NAMES = {"read": "read", "rw50": "mixed 50:50", "write": "write"}


@dataclass
class Fig7Point:
    ratio: str
    network_gbps: float
    op_mix: str
    protocol: str
    tc_throughput_mbps: float
    ls_tail_us: Optional[float]


def fig7_units(
    ratios: Sequence[str] = PAPER_RATIOS,
    speeds: Sequence[float] = NETWORK_SPEEDS,
    mixes: Sequence[str] = ("read", "rw50", "write"),
    total_ops: int = 600,
    seed: int = 1,
) -> List[WorkUnit]:
    """The Figure 7 grid: one scenario unit per cell per protocol."""
    units: List[WorkUnit] = []
    for op_mix in mixes:
        for gbps in speeds:
            for ratio in ratios:
                n_tc = int(ratio.split(":")[1])
                window = select_window(
                    "mixed" if op_mix == "rw50" else op_mix,
                    gbps,
                    tc_initiators=max(1, n_tc),
                )
                for protocol in ("spdk", "nvme-opf"):
                    units.append(
                        WorkUnit(
                            unit_id=f"fig7/{op_mix}/{gbps:g}G/{ratio}/{protocol}",
                            kind=KIND_SCENARIO,
                            payload={
                                "config": {
                                    "protocol": protocol,
                                    "network_gbps": gbps,
                                    "op_mix": op_mix,
                                    "total_ops": total_ops,
                                    "window_size": window,
                                    "seed": seed,
                                },
                                "ratio": ratio,
                            },
                        )
                    )
    return units


def run_fig7(
    ratios: Sequence[str] = PAPER_RATIOS,
    speeds: Sequence[float] = NETWORK_SPEEDS,
    mixes: Sequence[str] = ("read", "rw50", "write"),
    total_ops: int = 600,
    seed: int = 1,
    workers: int = 0,
    print_table: bool = False,
) -> List[Fig7Point]:
    """Run the Figure 7 grid; returns one point per cell per protocol.

    ``workers`` > 1 fans the cells out to that many processes; the points
    are identical either way.
    """
    units = fig7_units(ratios, speeds, mixes, total_ops, seed)
    campaign = run_campaign(units, workers)
    points = []
    for unit, result in zip(units, campaign.results):
        config = unit.payload["config"]
        points.append(
            Fig7Point(
                unit.payload["ratio"],
                config["network_gbps"],
                config["op_mix"],
                config["protocol"],
                result.data["tc_throughput_mbps"],
                result.data["ls_tail_us"],
            )
        )
    if print_table:
        print(format_fig7(points))
    return points


def pair_up(points: List[Fig7Point]) -> List[Tuple[Fig7Point, Fig7Point]]:
    """Group (spdk, opf) pairs at identical operating points."""
    by_key: Dict[Tuple, Dict[str, Fig7Point]] = {}
    order: List[Tuple] = []
    for p in points:
        key = (p.ratio, p.network_gbps, p.op_mix)
        if key not in by_key:
            by_key[key] = {}
            order.append(key)
        by_key[key][p.protocol] = p
    return [(by_key[k]["spdk"], by_key[k]["nvme-opf"]) for k in order if len(by_key[k]) == 2]


def format_fig7(points: List[Fig7Point]) -> str:
    rows = []
    for spdk, opf in pair_up(points):
        rows.append(
            [
                _MIX_NAMES.get(spdk.op_mix, spdk.op_mix),
                f"{spdk.network_gbps:g}G",
                spdk.ratio,
                spdk.tc_throughput_mbps,
                opf.tc_throughput_mbps,
                improvement_pct(opf.tc_throughput_mbps, spdk.tc_throughput_mbps),
                spdk.ls_tail_us if spdk.ls_tail_us is not None else float("nan"),
                opf.ls_tail_us if opf.ls_tail_us is not None else float("nan"),
                reduction_pct(opf.ls_tail_us or 0.0, spdk.ls_tail_us or 1.0),
            ]
        )
    return format_table(
        [
            "workload", "net", "LS:TC",
            "SPDK MB/s", "oPF MB/s", "tput +%",
            "SPDK p99.99", "oPF p99.99", "tail -%",
        ],
        rows,
        title="Figure 7: throughput (a-c) and tail latency (d-f)",
    )


def mean_tail_reduction(points: List[Fig7Point]) -> float:
    """Observation 3's aggregate: average tail reduction over the grid."""
    reductions = []
    for spdk, opf in pair_up(points):
        if spdk.ls_tail_us and opf.ls_tail_us:
            reductions.append(reduction_pct(opf.ls_tail_us, spdk.ls_tail_us))
    return sum(reductions) / len(reductions) if reductions else 0.0
