"""Sensitivity analysis: are the conclusions robust to the fitted constants?

Three simulator constants were calibrated against the paper
(:mod:`repro.experiments.calibration`).  If the headline conclusion — the
priority schemes beat the FIFO baseline for multi-tenant traffic — only
held at the fitted point, the reproduction would be circular.  This module
perturbs each fitted constant across a wide range and re-measures the 1:4
read gain, so the benchmark suite can assert the *direction* survives
everywhere and the tables show how the *magnitude* moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..cluster.scenario import Scenario, ScenarioConfig
from ..metrics.report import format_table, improvement_pct
from ..ssd.latency import SsdProfile
from ..workloads.mixes import tenants_for_ratio


@dataclass
class SensitivityPoint:
    """One perturbation of one fitted constant."""

    knob: str
    factor: float
    spdk_mbps: float
    opf_mbps: float

    @property
    def gain_pct(self) -> float:
        return improvement_pct(self.opf_mbps, self.spdk_mbps)


def _run_pair(cfg_kwargs: dict, total_ops: int, seed: int) -> tuple:
    out = {}
    for protocol in ("spdk", "nvme-opf"):
        cfg = ScenarioConfig(
            protocol=protocol, network_gbps=100.0, op_mix="read",
            total_ops=total_ops, window_size=32, warmup_us=200, seed=seed,
            **cfg_kwargs,
        )
        sc = Scenario.two_sided(cfg, tenants_for_ratio("1:4"))
        out[protocol] = sc.run()
    return out["spdk"].tc_throughput_mbps, out["nvme-opf"].tc_throughput_mbps


def sweep_cpu_cost_scale(
    factors: Sequence[float] = (0.5, 0.75, 1.0, 1.5, 2.0),
    total_ops: int = 400,
    seed: int = 1,
) -> List[SensitivityPoint]:
    """Scale every CPU cost uniformly (faster/slower host CPUs)."""
    from ..cpu.costs import DEFAULT_COSTS

    points = []
    for factor in factors:
        spdk, opf = _run_pair(
            {"costs": DEFAULT_COSTS.scaled(factor)}, total_ops, seed
        )
        points.append(SensitivityPoint("cpu_cost_scale", factor, spdk, opf))
    return points


def sweep_device_speed(
    factors: Sequence[float] = (0.5, 0.75, 1.0, 1.5, 2.0),
    total_ops: int = 400,
    seed: int = 1,
) -> List[SensitivityPoint]:
    """Scale the SSD service means (slower/faster flash)."""
    from ..config import CLOUDLAB_CL

    points = []
    for factor in factors:
        profile = SsdProfile(
            name=f"sensitivity-x{factor:g}",
            read_mean_us=CLOUDLAB_CL.ssd.read_mean_us * factor,
            write_mean_us=CLOUDLAB_CL.ssd.write_mean_us * factor,
            channels=CLOUDLAB_CL.ssd.channels,
        )
        spdk, opf = _run_pair({"ssd_profile": profile}, total_ops, seed)
        points.append(SensitivityPoint("device_speed", factor, spdk, opf))
    return points


def sweep_conn_switch_cost(
    values: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
    total_ops: int = 400,
    seed: int = 1,
) -> List[SensitivityPoint]:
    """Vary the tenant-switch penalty, including removing it entirely."""
    points = []
    for value in values:
        spdk, opf = _run_pair({"conn_switch_cost": value}, total_ops, seed)
        points.append(SensitivityPoint("conn_switch_cost", value, spdk, opf))
    return points


def format_sensitivity(points: List[SensitivityPoint]) -> str:
    return format_table(
        ["knob", "factor", "SPDK MB/s", "oPF MB/s", "gain %"],
        [[p.knob, p.factor, p.spdk_mbps, p.opf_mbps, p.gain_pct] for p in points],
        title="Sensitivity of the 1:4 read gain to the fitted constants",
    )
