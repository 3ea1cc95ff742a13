"""Measurement: collectors, percentiles, export, report tables."""

from .collector import Collector, InitiatorSummary
from .events import EventCounter
from .export import rows_for, to_row, write_csv
from .percentile import LatencyDistribution, P2Quantile, exact_percentile
from .report import (
    format_table,
    improvement_pct,
    jain_fairness,
    reduction_pct,
    speedup,
)

__all__ = [
    "Collector",
    "EventCounter",
    "InitiatorSummary",
    "LatencyDistribution",
    "P2Quantile",
    "exact_percentile",
    "format_table",
    "improvement_pct",
    "jain_fairness",
    "reduction_pct",
    "rows_for",
    "speedup",
    "to_row",
    "write_csv",
]
