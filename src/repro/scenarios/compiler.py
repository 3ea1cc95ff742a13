"""Compile scenario programs onto the cluster layer and replay them.

The compiler walks a validated :class:`~repro.scenarios.program
.ScenarioProgram` once with a time cursor and lowers each action onto the
scenario machinery it already has:

* ``tenant_join`` / ``usage_burst`` become tenant placements on a
  :class:`~repro.cluster.spec.ScenarioSpec` (arrival staged via
  ``start_delay_us``; each join gets its own initiator node, bursts ride
  the base tenant's initiator node and target),
* ``fault_inject`` actions become one :class:`FaultSchedule` replayed by
  the :mod:`repro.faults` injector, armed at workload onset so fault times
  share the program's time base,
* ``tenant_leave`` / ``set_window`` / ``slo_change`` / ``checkpoint`` /
  ``assert_invariant`` become scripted callbacks on the engine's callback
  fast path (:meth:`Scenario.at_workload_time`).

Replaying is deterministic end to end: same program + same seed produce a
bit-identical :meth:`ProgramRun.digest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.scenario import Scenario, ScenarioConfig, ScenarioResult
from ..cluster.spec import ScenarioSpec, TenantPlacement
from ..core.flags import Priority
from ..errors import ScenarioProgramError
from ..faults.schedule import FaultSchedule
from ..qos.slo import TenantSlo
from ..workloads.mixes import LS_QUEUE_DEPTH, TC_QUEUE_DEPTH, TenantSpec
from .actions import (
    Advance,
    AssertInvariant,
    Checkpoint,
    FaultInject,
    SetWindow,
    SloChange,
    TenantJoin,
    TenantLeave,
    UsageBurst,
)
from .invariants import check_all, check_invariant
from .program import BURST_SEP, ScenarioProgram, storage_names


@dataclass(frozen=True)
class CheckpointRecord:
    """One checkpoint action's snapshot of the per-tenant books."""

    label: str
    at_us: float
    #: tenant -> (issued, completed, failed), sorted by tenant at render.
    books: Tuple[Tuple[str, int, int, int], ...]

    def render(self) -> str:
        cells = ",".join(f"{n}:{i}/{c}/{f}" for n, i, c, f in self.books)
        return f"checkpoint/{self.label}@{self.at_us!r}={cells}"


@dataclass(frozen=True)
class ProgramRunEnvelope:
    """A picklable summary of one replay, safe to ship across processes.

    :class:`ProgramRun` holds the live :class:`Scenario` — generators,
    engine state, open connections — which cannot cross a process
    boundary.  The envelope carries everything a campaign merge needs:
    the program's identity, its canonical digest (and sha256), and the
    checkpoint count, all pure functions of (program, seed).
    """

    program_name: str
    signature_sha256: str
    digest: str
    digest_sha256: str
    n_checkpoints: int
    elapsed_us: float


@dataclass
class ProgramRun:
    """Everything one replay produced."""

    program: ScenarioProgram
    scenario: Scenario
    result: ScenarioResult
    checkpoints: List[CheckpointRecord] = field(default_factory=list)

    def digest(self) -> str:
        """The replay's canonical rendering: the scenario's full metrics
        digest plus every checkpoint line.  Two same-seed replays of the
        same program must produce *equal* strings."""
        lines = [self.result.metrics_digest()]
        lines.extend(cp.render() for cp in self.checkpoints)
        return "\n".join(lines)

    def envelope(self) -> ProgramRunEnvelope:
        """The picklable cross-process summary of this run."""
        import hashlib

        digest = self.digest()
        return ProgramRunEnvelope(
            program_name=self.program.name,
            signature_sha256=hashlib.sha256(
                self.program.signature().encode()
            ).hexdigest(),
            digest=digest,
            digest_sha256=hashlib.sha256(digest.encode()).hexdigest(),
            n_checkpoints=len(self.checkpoints),
            elapsed_us=self.result.elapsed_us,
        )


class CompiledProgram:
    """A program lowered onto a ready-to-run :class:`Scenario`."""

    def __init__(self, program: ScenarioProgram) -> None:
        self.program = program
        self.checkpoints: List[CheckpointRecord] = []
        schedule = self._compile_faults(program)
        self._lower_actions(
            program.scenario_config(chaos=schedule, chaos_epoch="workload")
            if schedule is not None
            else program.scenario_config()
        )
        self._ran = False

    # -- lowering ---------------------------------------------------------------
    @staticmethod
    def _compile_faults(program: ScenarioProgram) -> Optional[FaultSchedule]:
        schedule = FaultSchedule()
        cursor = 0.0
        for action in program.actions:
            if isinstance(action, Advance):
                cursor += action.dt_us
            elif isinstance(action, FaultInject):
                schedule.add(
                    action.kind,
                    action.component,
                    cursor,
                    action.duration_us,
                    **dict(action.params),
                )
        return schedule if len(schedule) else None

    def _lower_actions(self, config: ScenarioConfig) -> None:
        """Build the program's topology as a :class:`ScenarioSpec` into
        ``self.scenario``, then register its scripted actions on it."""
        program = self.program
        targets, _ssds = storage_names(program.n_target_nodes, program.n_ssds)
        node_order = [("target", name, program.n_ssds) for name in targets]
        placements: List[TenantPlacement] = []
        placement: Dict[str, Tuple[str, str]] = {}
        scripted = []
        cursor = 0.0
        joins = 0
        bursts = 0
        for action in program.actions:
            if isinstance(action, Advance):
                cursor += action.dt_us
            elif isinstance(action, TenantJoin):
                depth = action.queue_depth or (
                    LS_QUEUE_DEPTH if action.priority == "latency" else TC_QUEUE_DEPTH
                )
                spec = TenantSpec(
                    name=action.tenant,
                    priority=action.priority_flag,
                    queue_depth=depth,
                    op_mix=action.op_mix,
                    start_delay_us=cursor,
                    total_ops=action.total_ops,
                )
                node = f"client{joins}"
                target = targets[joins % len(targets)]
                node_order.append(("initiator", node, 0))
                placements.append(TenantPlacement(spec, node, target, 1))
                placement[action.tenant] = (node, target)
                joins += 1
            elif isinstance(action, UsageBurst):
                node, target = placement[action.tenant]
                spec = TenantSpec(
                    name=f"{action.tenant}{BURST_SEP}{bursts}",
                    priority=Priority.THROUGHPUT,
                    queue_depth=action.queue_depth,
                    op_mix=action.op_mix,
                    start_delay_us=cursor,
                    total_ops=action.ops,
                )
                placements.append(TenantPlacement(spec, node, target, 1))
                bursts += 1
            elif isinstance(action, self.SCRIPTED_OPS):
                scripted.append((action, cursor))
            elif isinstance(action, FaultInject):
                pass  # lowered into the chaos schedule above
            else:  # pragma: no cover - the vocabulary is closed
                raise ScenarioProgramError(f"cannot lower {type(action).__name__}")
        self.scenario = ScenarioSpec(config, node_order, placements).build()
        for action, at_us in scripted:
            self.schedule_action(action, at_us)

    #: Action ops that lower to a scripted callback (schedulable mid-session).
    SCRIPTED_OPS = (TenantLeave, SetWindow, SloChange, Checkpoint, AssertInvariant)

    def schedule_action(self, action, at_us: float) -> None:
        """Register one scripted action at workload-relative time ``at_us``.

        The single lowering point for every scripted op: the compile-time
        walk above uses it with the program cursor, and the service layer
        (``repro.service.session``) uses it to inject actions into a session
        that has not launched its workload yet.  Because both paths append to
        the same ``Scenario`` scripted list, an injected action is
        bit-identical to having compiled a program with that action appended
        — the checkpoint/resume digest proofs lean on this equivalence.
        """
        self.scenario.at_workload_time(at_us, self.action_callback(action))

    def action_callback(self, action) -> Callable[[], None]:
        """The bare actuator closure for one scripted action (the service's
        post-launch injection path schedules these directly on the engine)."""
        if isinstance(action, TenantLeave):
            return self._leave_fn(action.tenant)
        if isinstance(action, SetWindow):
            return self._window_fn(action.tenant, action.window)
        if isinstance(action, SloChange):
            return self._slo_fn(action)
        if isinstance(action, Checkpoint):
            return self._checkpoint_fn(action.label)
        if isinstance(action, AssertInvariant):
            return self._assert_fn(action.invariant)
        raise ScenarioProgramError(
            f"{action.op!r} actions cannot be scheduled as scripted callbacks"
        )

    # Closure factories (late-bound lookups: the live objects exist only
    # once run() instantiates the tenants).
    def _leave_fn(self, tenant: str):
        def leave() -> None:
            self.scenario.generators_by_name[tenant].stop()

        return leave

    def _window_fn(self, tenant: str, window: int):
        def resize() -> None:
            self.scenario.initiators_by_name[tenant].apply_window(window)

        return resize

    def _slo_fn(self, action: SloChange):
        def change() -> None:
            controller = self.scenario.qos_controller
            if controller is None:  # pragma: no cover - validation forbids it
                raise ScenarioProgramError("slo_change without a control plane")
            handle = controller.handle(action.tenant)
            if action.p99_ceiling_us is None and action.throughput_floor_mbps is None:
                handle.slo = None
            else:
                handle.slo = TenantSlo(
                    action.tenant,
                    p99_ceiling_us=action.p99_ceiling_us,
                    throughput_floor_mbps=action.throughput_floor_mbps,
                )

        return change

    def _checkpoint_fn(self, label: str):
        def snapshot() -> None:
            books = tuple(
                (
                    name,
                    gen.issued,
                    gen.completed,
                    gen.failed,
                )
                for name, gen in sorted(self.scenario.generators_by_name.items())
            )
            self.checkpoints.append(
                CheckpointRecord(label=label, at_us=self.scenario.env.now, books=books)
            )

        return snapshot

    def _assert_fn(self, invariant: str):
        def check() -> None:
            check_invariant(
                invariant,
                self.scenario,
                None,
                context=f"{self.program.name} @ t={self.scenario.env.now:.1f}us",
            )

        return check

    # -- execution --------------------------------------------------------------
    def run(self, check_invariants: bool = True) -> ProgramRun:
        if self._ran:
            raise ScenarioProgramError(
                "a compiled program can only run once; compile a fresh one"
            )
        self._ran = True
        result = self.scenario.run()
        run = ProgramRun(
            program=self.program,
            scenario=self.scenario,
            result=result,
            checkpoints=list(self.checkpoints),
        )
        if check_invariants:
            check_all(self.scenario, result, context=self.program.name)
        return run


def compile_program(program: ScenarioProgram) -> CompiledProgram:
    """Lower a validated program onto a fresh scenario."""
    return CompiledProgram(program)


def replay(program: ScenarioProgram, check_invariants: bool = True) -> ProgramRun:
    """Compile and run a program; post-run invariants checked by default."""
    return compile_program(program).run(check_invariants=check_invariants)
