"""Programmatic shape validation against the paper's headline claims.

Runs a reduced but representative grid and scores each entry of
:data:`~repro.experiments.calibration.PAPER_TARGETS`:

* **strict** targets must pass their threshold (the benchmark suite also
  asserts them);
* **loose** targets are scored for *direction* (NVMe-oPF must win) and the
  measured magnitude is reported next to the paper's.

``nvme-opf validate`` prints the scorecard; :func:`run_validation` returns
it for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cluster.scenario import Scenario, ScenarioConfig
from ..metrics.report import format_table, improvement_pct, reduction_pct
from ..workloads.mixes import tenants_for_ratio
from .calibration import PAPER_TARGETS, PaperTarget
from .fig9 import run_h5bench_cluster
from ..workloads.h5bench import H5BenchConfig


@dataclass
class ValidationEntry:
    """One scored claim."""

    target_id: str
    target: PaperTarget
    measured: Optional[float]
    direction_ok: bool
    note: str = ""

    @property
    def ok(self) -> bool:
        if not self.target.strict:
            return self.direction_ok
        return self.direction_ok and self.measured is not None


def _pair(ratio: str, op_mix: str, gbps: float, total_ops: int = 500, window: int = 32,
          seed: int = 1):
    out = {}
    for protocol in ("spdk", "nvme-opf"):
        cfg = ScenarioConfig(
            protocol=protocol, network_gbps=gbps, op_mix=op_mix,
            total_ops=total_ops, window_size=window, warmup_us=200, seed=seed,
        )
        out[protocol] = Scenario.two_sided(cfg, tenants_for_ratio(ratio, op_mix=op_mix)).run()
    return out["spdk"], out["nvme-opf"]


def run_validation(total_ops: int = 500, seed: int = 1) -> List[ValidationEntry]:
    """Run the validation grid; returns one entry per paper target."""
    entries: List[ValidationEntry] = []

    # -- Figure 6(a)/(b): window-size gains ----------------------------------
    spdk_2t, opf_2t = _pair("1:1", "read", 100.0, total_ops, seed=seed)
    gain_6a = improvement_pct(opf_2t.tc_throughput_mbps, spdk_2t.tc_throughput_mbps)
    entries.append(ValidationEntry(
        "fig6a_window_gain", PAPER_TARGETS["fig6a_window_gain"], gain_6a, gain_6a > 0
    ))
    spdk_1t, opf_1t = _pair("0:1", "read", 100.0, total_ops, seed=seed)
    gain_6b = improvement_pct(opf_1t.tc_throughput_mbps, spdk_1t.tc_throughput_mbps)
    entries.append(ValidationEntry(
        "fig6b_w32_100g", PAPER_TARGETS["fig6b_w32_100g"], gain_6b, gain_6b > 0
    ))

    # -- Figure 6(c): notification factor (strict) ----------------------------
    factor = (
        spdk_1t.completion_notifications / max(1, opf_1t.completion_notifications)
    )
    entries.append(ValidationEntry(
        "fig6c_notification_reduction",
        PAPER_TARGETS["fig6c_notification_reduction"],
        factor,
        factor >= 8.0,
        note=f"{factor:.0f}x fewer notifications at window 32",
    ))

    # -- Figure 7 headline gains ----------------------------------------------
    for target_id, gbps, op_mix in [
        ("fig7_read_100g_1_4", 100.0, "read"),
        ("fig7_read_10g_1_4", 10.0, "read"),
        ("fig7_write_100g_1_4", 100.0, "write"),
    ]:
        spdk, opf = _pair("1:4", op_mix, gbps, total_ops, seed=seed)
        gain = improvement_pct(opf.tc_throughput_mbps, spdk.tc_throughput_mbps)
        entries.append(ValidationEntry(
            target_id, PAPER_TARGETS[target_id], gain, gain > 0
        ))

    # -- Figure 7(d-f): tail reduction -----------------------------------------
    spdk_t, opf_t = _pair("1:3", "read", 100.0, total_ops, seed=seed)
    tail_red = reduction_pct(opf_t.ls_tail_us or 0.0, spdk_t.ls_tail_us or 1.0)
    entries.append(ValidationEntry(
        "fig7_tail_reduction_avg",
        PAPER_TARGETS["fig7_tail_reduction_avg"],
        tail_red,
        tail_red > 0,
    ))

    # -- Figure 8: plateau + scale-out gain (strict plateau check) --------------
    from ..cluster.scaling import scale_curve

    scale_ops = max(400, total_ops)
    spdk_scale = scale_curve("spdk", "read", [(2, 1), (2, 5)], include_ls=True,
                             total_ops=scale_ops, seed=seed)
    opf_scale = scale_curve("nvme-opf", "read", [(2, 1), (2, 5)], include_ls=True,
                            total_ops=scale_ops, seed=seed)
    opf_wins_at_scale = (
        opf_scale[-1].throughput_mbps > spdk_scale[-1].throughput_mbps
    )
    entries.append(ValidationEntry(
        "fig8_spdk_plateau",
        PAPER_TARGETS["fig8_spdk_plateau"],
        improvement_pct(opf_scale[-1].throughput_mbps, spdk_scale[-1].throughput_mbps),
        opf_wins_at_scale,
    ))
    spdk_w = scale_curve("spdk", "write", [(2, 5)], include_ls=True,
                         total_ops=scale_ops, seed=seed)
    opf_w = scale_curve("nvme-opf", "write", [(2, 5)], include_ls=True,
                        total_ops=scale_ops, seed=seed)
    gain_w = improvement_pct(opf_w[-1].throughput_mbps, spdk_w[-1].throughput_mbps)
    entries.append(ValidationEntry(
        "fig8_write_scaleout", PAPER_TARGETS["fig8_write_scaleout"], gain_w, gain_w > 0
    ))

    # -- Figure 9: h5bench write gain -------------------------------------------
    bench = H5BenchConfig(mode="write", particles_per_rank=64 * 1024, timesteps=2)
    spdk_bw, _ = run_h5bench_cluster("spdk", bench, 2, 5, network_gbps=25.0, seed=seed)
    opf_bw, _ = run_h5bench_cluster("nvme-opf", bench, 2, 5, network_gbps=25.0, seed=seed)
    gain_9 = improvement_pct(opf_bw, spdk_bw)
    entries.append(ValidationEntry(
        "fig9_hdf5_write", PAPER_TARGETS["fig9_hdf5_write"], gain_9, gain_9 > 0
    ))

    return entries


def format_validation(entries: List[ValidationEntry]) -> str:
    rows = []
    for entry in entries:
        rows.append([
            entry.target.figure,
            entry.target.description[:48],
            f"{entry.target.value:g}",
            f"{entry.measured:.1f}" if entry.measured is not None else "-",
            "strict" if entry.target.strict else "loose",
            "PASS" if entry.ok else "FAIL",
        ])
    return format_table(
        ["fig", "claim", "paper", "measured", "mode", "verdict"],
        rows,
        title="Shape validation vs paper targets",
    )


def main_validate(total_ops: int = 500) -> bool:
    entries = run_validation(total_ops=total_ops)
    print(format_validation(entries))
    ok = all(e.ok for e in entries)
    print(f"\n{'ALL SHAPES HOLD' if ok else 'SHAPE FAILURES PRESENT'} "
          f"({sum(e.ok for e in entries)}/{len(entries)})")
    return ok
