"""Scenario programs: typed action sequences compiled onto the cluster.

The package turns scenarios into *data*: a :class:`ScenarioProgram` is a
named, JSON-serializable sequence of typed actions (tenants joining and
leaving, faults, SLO changes, window resizes, checkpoints, invariant
assertions) that validates eagerly and replays deterministically through
the simulation kernel.  A seed-driven generator composes random-but-valid
programs, and the invariant harness checks every replay's books.
"""

from .actions import (
    ACTION_TYPES,
    Action,
    Advance,
    AssertInvariant,
    Checkpoint,
    FaultInject,
    SetWindow,
    SloChange,
    TenantJoin,
    TenantLeave,
    UsageBurst,
    action_from_dict,
)
from .compiler import (
    CheckpointRecord,
    CompiledProgram,
    ProgramRun,
    ProgramRunEnvelope,
    compile_program,
    replay,
)
from .generate import generate_program
from .invariants import (
    INVARIANTS,
    MIDRUN_INVARIANTS,
    check_all,
    check_invariant,
)
from .library import register_library_programs
from .program import (
    DEFAULT_REGISTRY,
    PROGRAM_FORMAT,
    ProgramRegistry,
    ScenarioProgram,
)

__all__ = [
    "ACTION_TYPES",
    "Action",
    "Advance",
    "AssertInvariant",
    "Checkpoint",
    "CheckpointRecord",
    "CompiledProgram",
    "DEFAULT_REGISTRY",
    "FaultInject",
    "INVARIANTS",
    "MIDRUN_INVARIANTS",
    "PROGRAM_FORMAT",
    "ProgramRegistry",
    "ProgramRun",
    "ProgramRunEnvelope",
    "ScenarioProgram",
    "SetWindow",
    "SloChange",
    "TenantJoin",
    "TenantLeave",
    "UsageBurst",
    "action_from_dict",
    "check_all",
    "check_invariant",
    "compile_program",
    "generate_program",
    "register_library_programs",
    "replay",
]
