"""Figure 8: scale-out studies at 100 Gbps (patterns 1 and 2).

* (a, b, c): 5 initiator-node/target-node pairs, initiators per node grows
  1..5 (up to 25 tenants on 5 SSDs) — read, mixed, write.
* (d, e, f): 4 TC initiators per node, node pairs grow 1..5 — same mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cluster.scaling import ScalePoint
from ..metrics.report import format_table, improvement_pct
from ..parallel.pool import run_campaign
from ..parallel.units import KIND_FIG8_CURVE, WorkUnit


@dataclass
class Fig8Curve:
    """One line of one panel: a protocol's scaling curve."""

    panel: str  # "a".."f"
    op_mix: str
    pattern: int
    protocol: str
    points: List[ScalePoint]


_PANELS = {
    (1, "read"): "a",
    (1, "rw50"): "b",
    (1, "write"): "c",
    (2, "read"): "d",
    (2, "rw50"): "e",
    (2, "write"): "f",
}


def fig8_units(
    mixes: Sequence[str] = ("read", "rw50", "write"),
    patterns: Sequence[int] = (1, 2),
    n_node_pairs: int = 5,
    per_node_range: Optional[List[int]] = None,
    pairs_range: Optional[List[int]] = None,
    total_ops: int = 600,
    seed: int = 1,
) -> List[WorkUnit]:
    """The Figure 8 grid: one unit per curve (one protocol of one panel)."""
    units: List[WorkUnit] = []
    for op_mix in mixes:
        for pattern in patterns:
            for protocol in ("spdk", "nvme-opf"):
                units.append(
                    WorkUnit(
                        unit_id=f"fig8/{op_mix}/p{pattern}/{protocol}",
                        kind=KIND_FIG8_CURVE,
                        payload={
                            "pattern": pattern,
                            "protocol": protocol,
                            "op_mix": op_mix,
                            "n_node_pairs": n_node_pairs,
                            "per_node_range": per_node_range,
                            "pairs_range": pairs_range,
                            "total_ops": total_ops,
                            "seed": seed,
                        },
                    )
                )
    return units


def run_fig8(
    mixes: Sequence[str] = ("read", "rw50", "write"),
    patterns: Sequence[int] = (1, 2),
    n_node_pairs: int = 5,
    per_node_range: Optional[List[int]] = None,
    pairs_range: Optional[List[int]] = None,
    total_ops: int = 600,
    seed: int = 1,
    workers: int = 0,
    print_table: bool = False,
) -> List[Fig8Curve]:
    """Run the Figure 8 curves; ``workers`` > 1 fans them out to processes."""
    units = fig8_units(
        mixes, patterns, n_node_pairs, per_node_range, pairs_range, total_ops, seed
    )
    campaign = run_campaign(units, workers)
    curves = []
    for unit, result in zip(units, campaign.results):
        payload = unit.payload
        curves.append(
            Fig8Curve(
                _PANELS[(payload["pattern"], payload["op_mix"])],
                payload["op_mix"],
                payload["pattern"],
                payload["protocol"],
                [ScalePoint(**p) for p in result.data["points"]],
            )
        )
    if print_table:
        print(format_fig8(curves))
    return curves


def format_fig8(curves: List[Fig8Curve]) -> str:
    rows = []
    by_key: Dict[tuple, Dict[str, Fig8Curve]] = {}
    for curve in curves:
        by_key.setdefault((curve.panel, curve.op_mix, curve.pattern), {})[curve.protocol] = curve
    for (panel, op_mix, pattern), pair in sorted(by_key.items()):
        spdk, opf = pair.get("spdk"), pair.get("nvme-opf")
        if spdk is None or opf is None:
            continue
        for sp, op in zip(spdk.points, opf.points):
            rows.append(
                [
                    panel,
                    op_mix,
                    sp.total_initiators,
                    sp.throughput_mbps,
                    op.throughput_mbps,
                    improvement_pct(op.throughput_mbps, sp.throughput_mbps),
                    sp.mean_latency_us,
                    op.mean_latency_us,
                ]
            )
    return format_table(
        ["panel", "mix", "initiators", "SPDK MB/s", "oPF MB/s", "+%",
         "SPDK lat us", "oPF lat us"],
        rows,
        title="Figure 8: scale-out, 100 Gbps",
    )
