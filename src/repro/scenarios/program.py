"""Scenario programs: validated action sequences with a registry.

A :class:`ScenarioProgram` is *data*: a name, a plain-dict scenario config
(the JSON-able subset of :class:`~repro.cluster.scenario.ScenarioConfig`),
a topology size, and a tuple of :mod:`~repro.scenarios.actions`.  Programs
validate eagerly and resource-aware — you cannot leave a tenant that never
joined, resize a window on a windowless protocol, change an SLO without a
control plane, or inject a fault on a component the topology does not have
— so every program that constructs is replayable.

Programs serialize to/from JSON (:meth:`ScenarioProgram.to_json`) and can
be published in a :class:`ProgramRegistry`; the library module registers
the paper's figure setups to prove the vocabulary covers them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..cluster.scenario import ScenarioConfig
from ..errors import ScenarioProgramError
from ..faults.schedule import (
    KIND_LINK_DEGRADE,
    KIND_LINK_DOWN,
    KIND_LINK_LOSS,
    KIND_NIC_DOWN,
    KIND_SSD_ERROR,
    KIND_SSD_SPIKE,
    KIND_SWITCH_PRESSURE,
    KIND_TARGET_CRASH,
)
from .actions import (
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
    checked,
)

#: Serialization format tag (bumped on incompatible changes).
PROGRAM_FORMAT = "nvme-opf/scenario-program@1"

#: ScenarioConfig fields a program's config dict may set: the JSON-able
#: subset.  Object-valued knobs (cost models, FTL configs, target-class
#: overrides) and the chaos schedule are deliberately excluded — faults are
#: expressed as actions, and the rest are not scenario *data*.
PROGRAM_CONFIG_KEYS = frozenset(
    {
        "protocol",
        "network_gbps",
        "transport",
        "op_mix",
        "pattern",
        "io_size",
        "window_size",
        "total_ops",
        "ls_total_ops",
        "warmup_us",
        "seed",
        "conn_switch_cost",
        "validate_pdus",
        "namespace_blocks",
        "qos_policy",
        "slos",
        "qos_interval_us",
        "qos_params",
        "retry_policy",
    }
)

#: Separator for synthetic burst-tenant names; forbidden in join names so a
#: burst can never collide with a declared tenant.
BURST_SEP = "#burst"

#: The largest topology a program may declare: target nodes, and SSDs per
#: target node.  Every node and SSD is simulated and every name is listed
#: when a fault target is checked, so an unbounded count would stall
#: validation and compilation; the figures use a few of each.
MAX_TARGET_NODES = 64
MAX_SSDS = 64


def _bad(message: str) -> ScenarioProgramError:
    return ScenarioProgramError(message)


def storage_names(n_target_nodes: int, n_ssds: int) -> Tuple[List[str], List[str]]:
    """A program topology's target node names and SSD names, in declaration
    order: ``target{i}`` and ``target{i}/ssd{j}`` — the names the compiled
    scenario registers with the fault injector."""
    targets = [f"target{i}" for i in range(n_target_nodes)]
    return targets, [f"{target}/ssd{j}" for target in targets for j in range(n_ssds)]


@dataclass
class ScenarioProgram:
    """One named, validated scenario program."""

    name: str
    config: Dict[str, object]
    actions: Tuple[Action, ...]
    n_target_nodes: int = 1
    n_ssds: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        self.actions = tuple(self.actions)
        self.config = dict(self.config)
        self.validate()

    # -- validation -------------------------------------------------------------
    def scenario_config(self, chaos=None, chaos_epoch: str = "absolute") -> ScenarioConfig:
        """The typed config this program's dict compiles to."""
        data = dict(self.config)
        if chaos is not None:
            data["chaos"] = chaos
            data["chaos_epoch"] = chaos_epoch
        return ScenarioConfig.from_dict(data)

    def validate(self) -> None:
        """Full structural + resource-aware validation (raises on the first
        problem, naming it)."""
        if not self.name:
            raise _bad("a program needs a name")
        if self.n_target_nodes < 1:
            raise _bad("a program needs at least one target node")
        if self.n_target_nodes > MAX_TARGET_NODES:
            raise _bad(f"program 'n_target_nodes' must be at most {MAX_TARGET_NODES}")
        if self.n_ssds < 1:
            raise _bad("target nodes need at least one SSD")
        if self.n_ssds > MAX_SSDS:
            raise _bad(f"program 'n_ssds' must be at most {MAX_SSDS}")
        unknown = sorted(set(self.config) - PROGRAM_CONFIG_KEYS)
        if unknown:
            raise _bad(
                f"program {self.name!r}: config keys {unknown} are not "
                f"program data; allowed: {sorted(PROGRAM_CONFIG_KEYS)}"
            )
        cfg = self.scenario_config()  # eager: bad values fail here, typed

        joined: Set[str] = set()
        left: Set[str] = set()
        ls_unbounded: List[str] = []
        has_tc = False
        has_fault = False
        for index, action in enumerate(self.actions):
            where = f"program {self.name!r} action #{index} ({action.op})"
            if isinstance(action, Advance):
                continue  # advancing time needs no validation
            elif isinstance(action, TenantJoin):
                if BURST_SEP in action.tenant:
                    raise _bad(f"{where}: {BURST_SEP!r} is reserved for burst names")
                if action.tenant in joined:
                    raise _bad(f"{where}: tenant {action.tenant!r} already joined")
                joined.add(action.tenant)
                if action.priority == "latency":
                    if action.total_ops is None and cfg.ls_total_ops is None:
                        ls_unbounded.append(action.tenant)
                else:
                    has_tc = True
            elif isinstance(action, TenantLeave):
                self._require_live(where, action.tenant, joined, left)
                left.add(action.tenant)
            elif isinstance(action, UsageBurst):
                if action.tenant not in joined:
                    raise _bad(f"{where}: burst rides on unjoined tenant {action.tenant!r}")
                has_tc = True
            elif isinstance(action, SetWindow):
                if cfg.protocol != "nvme-opf":
                    raise _bad(
                        f"{where}: window actions require protocol 'nvme-opf' "
                        f"(got {cfg.protocol!r})"
                    )
                self._require_live(where, action.tenant, joined, left)
            elif isinstance(action, SloChange):
                if not cfg.qos_enabled:
                    raise _bad(
                        f"{where}: slo_change needs a QoS control plane — set a "
                        "non-static qos_policy or declare initial slos"
                    )
                self._require_live(where, action.tenant, joined, left)
            elif isinstance(action, FaultInject):
                has_fault = True
                self._check_fault_target(where, action, joined)
            elif isinstance(action, (Checkpoint, AssertInvariant)):
                pass
            else:  # pragma: no cover - the vocabulary is closed
                raise _bad(f"{where}: unknown action type {type(action).__name__}")

        if not joined:
            raise _bad(f"program {self.name!r} joins no tenants")
        for slo in cfg.slos:
            if slo.tenant not in joined:
                raise _bad(
                    f"program {self.name!r}: SLO names unjoined tenant {slo.tenant!r}"
                )
        if has_fault and cfg.retry_policy is None:
            raise _bad(
                f"program {self.name!r} injects faults but sets no retry_policy; "
                "recovery is required so no command is lost"
            )
        if not has_tc and ls_unbounded:
            raise _bad(
                f"program {self.name!r} would never terminate: no "
                "throughput-critical work bounds the run and latency-sensitive "
                f"tenants {sorted(ls_unbounded)} have no op quota"
            )

    @staticmethod
    def _require_live(where: str, tenant: str, joined: Set[str], left: Set[str]) -> None:
        if tenant not in joined:
            raise _bad(f"{where}: tenant {tenant!r} never joined")
        if tenant in left:
            raise _bad(f"{where}: tenant {tenant!r} already left")

    def _check_fault_target(self, where: str, action: FaultInject, joined: Set[str]) -> None:
        """Resource-aware fault validation against the implied topology.

        Targets and SSDs are named by :func:`storage_names`, client nodes
        ``client{k}`` in join order, links ``{node}->sw`` / ``sw->{node}``,
        the switch ``sw`` — the same names the compiler's topology will
        register with the injector.
        """
        targets, ssds = storage_names(self.n_target_nodes, self.n_ssds)
        nodes = set(targets) | {f"client{i}" for i in range(len(joined))}
        links = {f"{n}->sw" for n in nodes} | {f"sw->{n}" for n in nodes}
        kind, component = action.kind, action.component
        if kind in (KIND_LINK_DOWN, KIND_LINK_DEGRADE, KIND_LINK_LOSS):
            pool: Iterable[str] = links
        elif kind == KIND_NIC_DOWN:
            pool = nodes
        elif kind == KIND_SWITCH_PRESSURE:
            pool = {"sw"}
        elif kind in (KIND_SSD_SPIKE, KIND_SSD_ERROR):
            pool = ssds
        elif kind == KIND_TARGET_CRASH:
            pool = targets
        else:  # KIND_QPAIR_DISCONNECT
            pool = joined
        if component not in pool:
            raise _bad(
                f"{where}: no live {kind} component {component!r}; "
                f"known: {sorted(pool)}"
            )

    # -- introspection ----------------------------------------------------------
    @property
    def duration_us(self) -> float:
        """The cursor position after the last action (the program's nominal
        span; the run itself ends when the workload quotas complete)."""
        return sum(a.dt_us for a in self.actions if isinstance(a, Advance))

    def tenants(self) -> List[str]:
        """Declared tenant names in join order (bursts excluded)."""
        return [a.tenant for a in self.actions if isinstance(a, TenantJoin)]

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "format": PROGRAM_FORMAT,
            "name": self.name,
            "description": self.description,
            "n_target_nodes": self.n_target_nodes,
            "n_ssds": self.n_ssds,
            "config": dict(self.config),
            "actions": [a.to_dict() for a in self.actions],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def signature(self) -> str:
        """Canonical one-line rendering (corpus digests key off this)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioProgram":
        if not isinstance(data, dict):
            raise _bad(f"program must be a dict, got {type(data).__name__}")
        fmt = data.get("format", PROGRAM_FORMAT)
        if fmt != PROGRAM_FORMAT:
            raise _bad(f"unsupported program format {fmt!r}; expected {PROGRAM_FORMAT!r}")
        known = {"format", "name", "description", "n_target_nodes", "n_ssds", "config", "actions"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise _bad(f"unknown program keys: {unknown}; known: {sorted(known)}")
        raw_actions = data.get("actions", ())
        if not isinstance(raw_actions, (list, tuple)):
            raise _bad(
                f"malformed action list: expected a list, got "
                f"{type(raw_actions).__name__}"
            )
        actions: List[Action] = []
        for index, raw in enumerate(raw_actions):
            # Locate failures: the service returns these messages verbatim as
            # HTTP 400 bodies, so an unknown op/key must name which action of
            # the submitted program it came from, not just what was wrong.
            op = raw.get("op", "?") if isinstance(raw, dict) else "?"
            try:
                actions.append(action_from_dict(raw))
            except ScenarioProgramError as exc:
                raise _bad(f"action #{index} ({op!r}): {exc}") from None
        return cls(
            name=checked("program 'name'", data.get("name", ""), str, "a string"),
            config=checked("program 'config'", data.get("config", {}), dict, "an object"),
            actions=actions,
            n_target_nodes=checked(
                "program 'n_target_nodes'", data.get("n_target_nodes", 1), int, "an integer"
            ),
            n_ssds=checked("program 'n_ssds'", data.get("n_ssds", 1), int, "an integer"),
            description=checked(
                "program 'description'", data.get("description", ""), str, "a string"
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioProgram":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _bad(f"program is not valid JSON: {exc}") from None
        return cls.from_dict(data)


class ProgramRegistry:
    """Named programs, looked up for replay and experiments."""

    def __init__(self) -> None:
        self._programs: Dict[str, ScenarioProgram] = {}

    def register(self, program: ScenarioProgram) -> ScenarioProgram:
        if program.name in self._programs:
            raise _bad(f"program {program.name!r} already registered")
        self._programs[program.name] = program
        return program

    def get(self, name: str) -> ScenarioProgram:
        try:
            return self._programs[name]
        except KeyError:
            raise _bad(
                f"no program named {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._programs)

    def __contains__(self, name: str) -> bool:
        return name in self._programs

    def __len__(self) -> int:
        return len(self._programs)

    def __iter__(self):
        for name in self.names():
            yield self._programs[name]


#: The process-wide default registry (the library module populates it).
DEFAULT_REGISTRY = ProgramRegistry()
