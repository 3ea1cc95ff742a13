"""Calibration record: how simulator constants map to the paper's numbers.

The simulator's free parameters (CPU costs, SSD service means, fabric queue
depths) were tuned once, against the paper's headline ratios, and then
frozen — every figure harness runs the same constants.  This module is the
authoritative record of that tuning so EXPERIMENTS.md and reviewers can see
exactly what was fitted and what is emergent.

Fitted (three knobs):

* ``CpuCostModel`` defaults (:mod:`repro.cpu.costs`) — chosen so the
  baseline target's per-request cost makes SPDK CPU-bound at ~210k 4K read
  IOPS / ~240k write IOPS with 4 interleaved tenants.
* SSD profiles (:mod:`repro.ssd.latency`) — channel service means put the
  device read ceiling at 320k IOPS and write at ~314k, between the baseline
  CPU ceiling and the 100 Gbps line rate.
* Fabric queue slots (:mod:`repro.config`) — sized so multi-tenant 10 Gbps
  runs sit near (not beyond) the droptail cliff.

Emergent (not fitted): completion-notification counts, tail-latency gaps,
scaling trends, window-size response, premature-drain/live-lock behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class PaperTarget:
    """One quantitative claim from the paper, with tolerance for the check.

    ``kind`` is "gain_pct" (oPF throughput improvement over SPDK),
    "reduction_pct" (oPF tail-latency reduction), or "factor".
    ``strict`` targets are asserted by the benchmark harness; loose ones
    are reported but only checked for *direction* (oPF must still win).
    """

    figure: str
    description: str
    kind: str
    value: float
    strict: bool = True
    note: Optional[str] = None


#: The paper's headline claims indexed by a short id.  These drive both the
#: EXPERIMENTS.md comparison table and the shape assertions in benchmarks.
PAPER_TARGETS: Dict[str, PaperTarget] = {
    "fig6a_window_gain": PaperTarget(
        "6a", "peak window-size throughput gain, 2 initiators, 25/100G",
        "gain_pct", 23.1, strict=False,
    ),
    "fig6b_w32_100g": PaperTarget(
        "6b", "window 32 @ 100G single TC initiator throughput gain",
        "gain_pct", 21.29, strict=False,
    ),
    "fig6c_notification_reduction": PaperTarget(
        "6c", "completion notifications cut by ~window factor",
        "factor", 16.0, strict=True,
        note="window 16 at QD 128 must cut notifications >= 8x",
    ),
    "fig7_read_100g_1_4": PaperTarget(
        "7a", "read throughput gain @100G, ratio 1:4", "gain_pct", 49.5, strict=False,
    ),
    "fig7_read_10g_1_4": PaperTarget(
        "7a", "read throughput gain @10G, ratio 1:4", "gain_pct", 194.5, strict=False,
        note="paper's 2.94X is not reproducible from clean fabric mechanics; "
        "we match direction with a smaller factor (see EXPERIMENTS.md)",
    ),
    "fig7_write_100g_1_4": PaperTarget(
        "7c", "write throughput gain @100G, ratio 1:4", "gain_pct", 32.6, strict=False,
    ),
    "fig7_tail_reduction_avg": PaperTarget(
        "7d-f", "mean tail-latency reduction across ratios/speeds",
        "reduction_pct", 25.6, strict=False,
    ),
    "fig8_write_scaleout": PaperTarget(
        "8f", "write scale-out throughput gain, pattern 2", "gain_pct", 95.2, strict=False,
    ),
    "fig8_spdk_plateau": PaperTarget(
        "8a", "SPDK plateaus by ~15 initiators; oPF keeps scaling",
        "factor", 1.0, strict=True,
        note="oPF@25 initiators must exceed SPDK@25 initiators",
    ),
    "fig9_hdf5_write": PaperTarget(
        "9a", "h5bench write bandwidth gain at 40 ranks", "gain_pct", 25.2, strict=False,
    ),
}


#: Operating points the figure harnesses iterate (mirrors §V-A).
NETWORK_SPEEDS: Tuple[float, ...] = (10.0, 25.0, 100.0)
WINDOW_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
