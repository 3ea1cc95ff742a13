"""Parallel sweep/campaign runner (``repro.parallel``).

The engine sustains millions of events per second on one core; the next
order of magnitude in sweep throughput is across cores.  This package
fans independent work units — figure sweep points, fuzz-seed blocks,
fault-matrix cells, registered scenario programs — out to worker
processes, each running its own :class:`~repro.simcore.engine.Environment`,
and merges the results deterministically: merge order is keyed by
work-unit id, never by completion order, so a parallel campaign's output
is byte-for-byte identical to a serial one (the differential test suite
pins this under shuffled completion order and worker crash/retry).

The figure and fuzz unit lists live with their experiments
(``repro.experiments.fig7.fig7_units`` and friends).
"""

from .pool import (
    MAX_WORKERS,
    CampaignResult,
    check_cli_workers,
    merge_results,
    run_campaign,
    run_units,
)
from .sweeps import (
    FAULT_MATRIX,
    FAULT_MATRIX_POLICY,
    fault_matrix_units,
    program_units,
)
from .units import (
    KIND_FIG8_CURVE,
    KIND_FIG9_POINT,
    KIND_FUZZ_BLOCK,
    KIND_PROGRAM,
    KIND_SCENARIO,
    UnitResult,
    WorkUnit,
    execute_unit,
    known_kinds,
    register_executor,
)

__all__ = [
    "CampaignResult",
    "FAULT_MATRIX",
    "FAULT_MATRIX_POLICY",
    "KIND_FIG8_CURVE",
    "KIND_FIG9_POINT",
    "KIND_FUZZ_BLOCK",
    "KIND_PROGRAM",
    "KIND_SCENARIO",
    "MAX_WORKERS",
    "UnitResult",
    "WorkUnit",
    "check_cli_workers",
    "execute_unit",
    "fault_matrix_units",
    "known_kinds",
    "merge_results",
    "program_units",
    "register_executor",
    "run_campaign",
    "run_units",
]
