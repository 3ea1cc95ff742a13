"""Per-figure experiment harnesses (see DESIGN.md's experiment index)."""

from .calibration import NETWORK_SPEEDS, PAPER_TARGETS, PaperTarget, WINDOW_SIZES
from .fig6 import Fig6aPoint, Fig6bPoint, Fig6cPoint, run_fig6a, run_fig6b, run_fig6c
from .fig7 import Fig7Point, format_fig7, mean_tail_reduction, pair_up, run_fig7
from .fig8 import Fig8Curve, format_fig8, run_fig8
from .fig9 import Fig9Point, format_fig9, run_fig9, run_h5bench_cluster
from .fuzz import FuzzFailure, FuzzResult, repro_seed, run_fuzz
from .qos import QOS_WINDOW_GRID, QosAimdResult, QosGuardResult, run_qos_aimd, run_qos_guard
from .table1 import run_table1, table1_rows

__all__ = [
    "Fig6aPoint",
    "Fig6bPoint",
    "Fig6cPoint",
    "Fig7Point",
    "Fig8Curve",
    "Fig9Point",
    "FuzzFailure",
    "FuzzResult",
    "NETWORK_SPEEDS",
    "PAPER_TARGETS",
    "PaperTarget",
    "QOS_WINDOW_GRID",
    "QosAimdResult",
    "QosGuardResult",
    "WINDOW_SIZES",
    "format_fig7",
    "format_fig8",
    "format_fig9",
    "mean_tail_reduction",
    "pair_up",
    "repro_seed",
    "run_fig6a",
    "run_fig6b",
    "run_fig6c",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fuzz",
    "run_h5bench_cluster",
    "run_qos_aimd",
    "run_qos_guard",
    "run_table1",
    "table1_rows",
]
