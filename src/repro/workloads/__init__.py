"""Workload generators: perf-style closed loops, tenant mixes, h5bench."""

from .mixes import (
    LS_QUEUE_DEPTH,
    PAPER_RATIOS,
    TC_QUEUE_DEPTH,
    TenantSpec,
    parse_ratio,
    tenants_for_ratio,
)
from .patterns import AddressPattern, RANDOM, SEQUENTIAL
from .perf import READ, RW50, WRITE, PerfConfig, PerfGenerator
from .phased import DEFAULT_PHASES, PhaseResult, PhaseSpec, PhasedGenerator
from .replay import TraceRecordEntry, TraceReplayer, synthesize_trace

__all__ = [
    "AddressPattern",
    "DEFAULT_PHASES",
    "LS_QUEUE_DEPTH",
    "PAPER_RATIOS",
    "PerfConfig",
    "PerfGenerator",
    "PhaseResult",
    "PhaseSpec",
    "PhasedGenerator",
    "RANDOM",
    "READ",
    "RW50",
    "SEQUENTIAL",
    "TC_QUEUE_DEPTH",
    "TenantSpec",
    "TraceRecordEntry",
    "TraceReplayer",
    "WRITE",
    "parse_ratio",
    "synthesize_trace",
    "tenants_for_ratio",
]
