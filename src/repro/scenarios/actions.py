"""The typed scenario-action vocabulary.

A scenario program is a straight-line sequence of these actions.  Time is a
cursor: :class:`Advance` moves it forward, every other action happens *at*
the cursor.  The cursor counts microseconds from workload onset — the same
time base as :attr:`repro.workloads.mixes.TenantSpec.start_delay_us`, the
scripted-action hook, and (for programs) the fault injector's epoch — so
one timeline positions tenants, faults, and control actions alike.

Actions are frozen dataclasses with eager validation: a malformed action
fails at construction with a :class:`~repro.errors.ScenarioProgramError`
naming the problem, not mid-replay.  Each serializes to a flat dict with an
``"op"`` discriminator; :func:`action_from_dict` is the inverse and rejects
unknown ops, unknown or missing keys, and a value of the wrong JSON type,
each by name.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

from ..core.flags import Priority
from ..errors import ReproError, ScenarioProgramError
from ..faults.schedule import FAULT_KINDS

#: Op names, in vocabulary order.
OP_ADVANCE = "advance"
OP_TENANT_JOIN = "tenant_join"
OP_TENANT_LEAVE = "tenant_leave"
OP_USAGE_BURST = "usage_burst"
OP_FAULT_INJECT = "fault_inject"
OP_SLO_CHANGE = "slo_change"
OP_SET_WINDOW = "set_window"
OP_CHECKPOINT = "checkpoint"
OP_ASSERT_INVARIANT = "assert_invariant"

_PRIORITIES = ("latency", "throughput")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioProgramError(message)


def checked(
    where: str, value: object, kind: Any, described: str,
    error: Type[ReproError] = ScenarioProgramError,
) -> Any:
    """``value`` if it is a ``kind``, else an ``error`` naming ``where``.

    The one type rule for every field decoded from JSON (a program, an
    action, a checkpoint, an injection record, a service submission): a
    bool is never a number.
    """
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise error(f"{where} must be {described}, got {type(value).__name__}")
    return value


def finite(where: str, value: object, error: Type[ReproError] = ScenarioProgramError) -> float:
    """``value`` as a float if it is a finite number, else an ``error``
    naming ``where``."""
    checked(where, value, (int, float), "a number", error)
    try:
        number = float(value)  # type: ignore[arg-type]
    except OverflowError:  # an integer past the largest float
        number = math.inf
    if not math.isfinite(number):
        raise error(f"{where} must be finite (got {reprlib.repr(value)})")
    return number


#: The class and description :func:`checked` needs for each annotated type
#: of an action field that is not a float.
_KINDS = {"str": (str, "a string"), "int": (int, "an integer")}


def _decoded(where: str, value: object, declared: str) -> object:
    """``value``, decoded from JSON for a field annotated ``declared``.

    A value of the wrong JSON type is refused by :func:`checked` or
    :func:`finite`.  A float field keeps the number it was given (an
    integer stays one in :meth:`Action.to_dict`); ``params`` pairs are
    re-frozen into tuples (JSON has none).
    """
    if declared == "Tuple[Tuple[str, float], ...]":
        _require(
            isinstance(value, list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in value),
            f"{where} must be a list of [name, number] pairs, got {reprlib.repr(value)}",
        )
        return tuple(
            (checked(f"{where} name", k, str, "a string"), finite(f"{where} value", v))
            for k, v in value  # type: ignore[union-attr]
        )
    if value is None and declared.startswith("Optional["):
        return value
    kind = declared.removeprefix("Optional[").removesuffix("]")
    if kind == "float":
        finite(where, value)
        return value
    return checked(where, value, *_KINDS[kind])


@dataclass(frozen=True)
class Action:
    """Base class: dict round-trip shared by every action."""

    op: ClassVar[str] = "?"

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"op": self.op}
        data.update(asdict(self))
        return data

    @classmethod
    def _from_dict(cls, data: Dict[str, object]) -> "Action":
        declared = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(declared) - {"op"})
        _require(
            not unknown,
            f"unknown keys for {cls.op!r} action: {unknown}; known: {sorted(declared)}",
        )
        missing = sorted(
            name for name, f in declared.items() if f.default is MISSING and name not in data
        )
        _require(not missing, f"missing keys for {cls.op!r} action: {missing}")
        return cls(
            **{
                name: _decoded(f"{cls.op!r} key {name!r}", value, declared[name].type)
                for name, value in data.items()
                if name != "op"
            }
        )


@dataclass(frozen=True)
class Advance(Action):
    """Move the program cursor ``dt_us`` microseconds forward."""

    op: ClassVar[str] = OP_ADVANCE
    dt_us: float

    def __post_init__(self) -> None:
        _require(self.dt_us > 0, f"advance must move time forward (got {self.dt_us})")


@dataclass(frozen=True)
class TenantJoin(Action):
    """A tenant arrives: its initiator exists from t=0 (connected with
    everyone else), its workload starts at the cursor."""

    op: ClassVar[str] = OP_TENANT_JOIN
    tenant: str
    priority: str = "throughput"
    queue_depth: int = 0  # 0 = the paper's depth for the priority class
    op_mix: str = "read"
    total_ops: Optional[int] = None

    def __post_init__(self) -> None:
        _require(bool(self.tenant), "tenant_join needs a tenant name")
        _require(
            self.priority in _PRIORITIES,
            f"unknown priority {self.priority!r}; choose from {_PRIORITIES}",
        )
        _require(self.queue_depth >= 0, "queue_depth must be >= 0 (0 = default)")
        _require(self.op_mix in ("read", "write", "rw50"), f"unknown op_mix {self.op_mix!r}")
        _require(
            self.total_ops is None or self.total_ops >= 1,
            "per-tenant total_ops must be >= 1 when set",
        )

    @property
    def priority_flag(self) -> Priority:
        return Priority.LATENCY if self.priority == "latency" else Priority.THROUGHPUT


@dataclass(frozen=True)
class TenantLeave(Action):
    """The tenant stops issuing I/O at the cursor; in-flight work lands."""

    op: ClassVar[str] = OP_TENANT_LEAVE
    tenant: str

    def __post_init__(self) -> None:
        _require(bool(self.tenant), "tenant_leave needs a tenant name")


@dataclass(frozen=True)
class UsageBurst(Action):
    """A bounded companion workload slams the named tenant's node: ``ops``
    throughput-critical operations from the same initiator node to the same
    target, starting at the cursor."""

    op: ClassVar[str] = OP_USAGE_BURST
    tenant: str
    ops: int
    queue_depth: int = 64
    op_mix: str = "read"

    def __post_init__(self) -> None:
        _require(bool(self.tenant), "usage_burst needs a tenant name")
        _require(self.ops >= 1, "a burst needs at least one op")
        _require(self.queue_depth >= 1, "burst queue_depth must be >= 1")
        _require(self.op_mix in ("read", "write", "rw50"), f"unknown op_mix {self.op_mix!r}")


@dataclass(frozen=True)
class FaultInject(Action):
    """Inject one fault (``repro.faults`` vocabulary) at the cursor."""

    op: ClassVar[str] = OP_FAULT_INJECT
    kind: str
    component: str
    duration_us: float = 0.0
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        _require(
            self.kind in FAULT_KINDS,
            f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}",
        )
        _require(bool(self.component), "fault_inject needs a component name")
        _require(self.duration_us >= 0, "fault duration must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        data = super().to_dict()
        data["params"] = [list(pair) for pair in self.params]
        return data


@dataclass(frozen=True)
class SloChange(Action):
    """Replace (or clear, when both bounds are None) a tenant's SLO at the
    cursor.  Requires a scenario that builds the QoS control plane."""

    op: ClassVar[str] = OP_SLO_CHANGE
    tenant: str
    p99_ceiling_us: Optional[float] = None
    throughput_floor_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        _require(bool(self.tenant), "slo_change needs a tenant name")
        _require(
            self.p99_ceiling_us is None or self.p99_ceiling_us > 0,
            "p99 ceiling must be positive",
        )
        _require(
            self.throughput_floor_mbps is None or self.throughput_floor_mbps > 0,
            "throughput floor must be positive",
        )


@dataclass(frozen=True)
class SetWindow(Action):
    """Resize a tenant's oPF coalescing window at the cursor (clamped to
    the live-lock-safe range, exactly like a controller action)."""

    op: ClassVar[str] = OP_SET_WINDOW
    tenant: str
    window: int

    def __post_init__(self) -> None:
        _require(bool(self.tenant), "set_window needs a tenant name")
        _require(self.window >= 1, "window must be >= 1")


@dataclass(frozen=True)
class Checkpoint(Action):
    """Record a labelled snapshot of the books (per-tenant issued /
    completed / failed) at the cursor; snapshots ride on the replay digest."""

    op: ClassVar[str] = OP_CHECKPOINT
    label: str

    def __post_init__(self) -> None:
        _require(bool(self.label), "checkpoint needs a label")


@dataclass(frozen=True)
class AssertInvariant(Action):
    """Check a named invariant (``repro.scenarios.invariants``) mid-run at
    the cursor; a failure raises :class:`~repro.errors.InvariantViolation`."""

    op: ClassVar[str] = OP_ASSERT_INVARIANT
    invariant: str

    def __post_init__(self) -> None:
        # Late import: invariants imports nothing from here, but keeping the
        # registry authoritative in one module avoids drift.
        from .invariants import MIDRUN_INVARIANTS

        _require(
            self.invariant in MIDRUN_INVARIANTS,
            f"unknown mid-run invariant {self.invariant!r}; choose from "
            f"{tuple(sorted(MIDRUN_INVARIANTS))}",
        )


#: op name -> action class (serialization dispatch).
ACTION_TYPES: Dict[str, Type[Action]] = {
    cls.op: cls
    for cls in (
        Advance,
        TenantJoin,
        TenantLeave,
        UsageBurst,
        FaultInject,
        SloChange,
        SetWindow,
        Checkpoint,
        AssertInvariant,
    )
}


def action_from_dict(data: Dict[str, object]) -> Action:
    """Inverse of :meth:`Action.to_dict`; rejects an unknown or non-string
    op, unknown or missing keys, and values of the wrong JSON type."""
    checked("action", data, dict, "a dict")
    op = checked("action 'op'", data.get("op"), str, "a string")
    cls = ACTION_TYPES.get(op)
    _require(
        cls is not None,
        f"unknown action op {op!r}; choose from {tuple(sorted(ACTION_TYPES))}",
    )
    return cls._from_dict(data)  # type: ignore[union-attr]
