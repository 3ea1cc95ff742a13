"""Campaign units that are not a figure grid: fault-matrix cells, programs.

The figure and fuzz grids live next to their experiments
(``repro.experiments.fig7|8|9|fuzz``); this module holds the two unit
lists that have no experiment of their own — the canonical single-fault
chaos matrix and the registered scenario-program library.  Run either
through :func:`~repro.parallel.pool.run_units`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ConfigError
from ..faults.recovery import RetryPolicy
from ..faults.schedule import FaultSchedule
from ..scenarios.library import register_library_programs
from ..scenarios.program import DEFAULT_REGISTRY
from .units import KIND_PROGRAM, KIND_SCENARIO, WorkUnit


# -- fault-matrix cells -------------------------------------------------------

#: The canonical single-fault matrix on the golden Figure-7 cell (the chaos
#: suite runs these same schedules; component names match the two_sided
#: topology: client0/sw/target0 with tenants ls0, tc0, tc1).
FAULT_MATRIX = {
    "link_flap": lambda s: s.link_flap("sw->client0", 300.0, 150.0),
    "link_degrade": lambda s: s.link_degrade("client0->sw", 300.0, 300.0, scale=0.25),
    "link_loss_burst": lambda s: s.link_loss_burst("sw->client0", 300.0, 300.0, p=0.3),
    "nic_down": lambda s: s.nic_down("client0", 300.0, 150.0),
    "switch_pressure": lambda s: s.switch_pressure("sw", 300.0, 400.0, scale=0.25),
    "ssd_latency_spike": lambda s: s.ssd_latency_spike(
        "target0/ssd0", 300.0, 300.0, scale=8.0
    ),
    "ssd_transient_error": lambda s: s.ssd_transient_error("target0/ssd0", 300.0, 200.0),
    "target_crash": lambda s: s.target_crash("target0", 300.0, 400.0),
    "qpair_disconnect": lambda s: s.qpair_disconnect("tc0", 300.0),
}

#: The chaos suite's retry policy, reused so matrix cells recover cleanly.
FAULT_MATRIX_POLICY = dict(
    timeout_us=400.0,
    backoff_base_us=50.0,
    reconnect_delay_us=50.0,
    handshake_timeout_us=200.0,
)


def fault_matrix_units(
    kinds: Optional[Sequence[str]] = None,
    total_ops: int = 200,
    seed: int = 1,
    retry_policy: Optional[RetryPolicy] = None,
) -> List[WorkUnit]:
    """One chaos cell per fault kind on the golden Figure-7 scenario."""
    kinds = sorted(FAULT_MATRIX) if kinds is None else list(kinds)
    policy = retry_policy if retry_policy is not None else RetryPolicy(**FAULT_MATRIX_POLICY)
    units = []
    for kind in kinds:
        try:
            build = FAULT_MATRIX[kind]
        except KeyError:
            raise ConfigError(
                f"key 'kinds' names unknown fault kind {kind!r}; "
                f"known: {sorted(FAULT_MATRIX)}"
            ) from None
        units.append(
            WorkUnit(
                unit_id=f"faults/{kind}",
                kind=KIND_SCENARIO,
                payload={
                    "config": {
                        "protocol": "nvme-opf",
                        "network_gbps": 10.0,
                        "op_mix": "read",
                        "total_ops": total_ops,
                        "window_size": 16,
                        "seed": seed,
                    },
                    "ratio": "1:2",
                    "chaos": build(FaultSchedule()),
                    "retry_policy": policy,
                },
            )
        )
    return units


# -- registered scenario programs ---------------------------------------------


def program_units(
    names: Optional[Sequence[str]] = None,
    check_invariants: bool = True,
) -> List[WorkUnit]:
    """One unit per library program (default: all of them)."""
    registry = register_library_programs(DEFAULT_REGISTRY)
    names = list(names) if names is not None else registry.names()
    units = []
    for name in names:
        program = registry.get(name)  # raises, naming unknown programs
        units.append(
            WorkUnit(
                unit_id=f"program/{name}",
                kind=KIND_PROGRAM,
                payload={
                    "program": program.to_dict(),
                    "check_invariants": check_invariants,
                },
            )
        )
    return units
