"""One hosted simulation: budgeted slices, injection, checkpoint/resume.

A :class:`SimSession` wraps a compiled scenario program in a *non-blocking*
run loop.  Where :meth:`CompiledProgram.run` drives the engine to completion
inside one call, a session advances in budgeted slices
(:meth:`SimSession.advance` — capped by event count and/or virtual-time
horizon via :meth:`Environment.advance <repro.simcore.engine.Environment
.advance>`), so one thread can multiplex many sessions and a worker pool can
host them concurrently.  Between slices the session is inert: callers read
telemetry snapshots, inject future-time actions, pause it, or serialize a
checkpoint.

Determinism is the load-bearing property.  A session steps the scenario's
own lifecycle (:meth:`Scenario.lifecycle
<repro.cluster.scenario.Scenario.lifecycle>`) through the engine's one
dispatch loop, the same code ``Scenario.run()`` uses, allocating zero extra
engine state — so a session's sealed digest is bit-identical to running the
same program through :func:`repro.scenarios.compiler.replay`.
Checkpoints exploit this: a checkpoint is just the program, the seed it
embeds, the injection log, and the *step cursor* (how many heap entries have
been dispatched).  Resume re-compiles the program, re-applies the injections
at their recorded cursors, and replays exactly ``steps`` entries; engine
clock and sequence counter must land on the recorded values or the resume
is refused as divergent.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from collections import deque

from ..errors import ReproError, ServiceError
from ..scenarios.actions import (
    Action,
    FaultInject,
    SetWindow,
    SloChange,
    TenantLeave,
    action_from_dict,
    checked,
    finite,
)
from ..scenarios.compiler import ProgramRun, compile_program
from ..scenarios.invariants import check_all
from ..scenarios.program import BURST_SEP, ScenarioProgram
from ..cluster.scenario import _invoke_scripted

#: Version tag on every serialized session checkpoint.
CHECKPOINT_FORMAT = "nvme-opf/session-checkpoint@1"

#: Telemetry snapshots retained per session (older ones age out; the
#: long-poll cursor is absolute, so consumers detect the gap).
SNAPSHOT_RING = 4096

# Session lifecycle states (public names; ``draining`` is derived).
ST_CREATED = "created"
ST_RUNNING = "running"
ST_PAUSED = "paused"
ST_DRAINING = "draining"
ST_FINISHED = "finished"
ST_FAILED = "failed"

class SessionNotFound(ServiceError):
    """No session with the requested id (maps to HTTP 404)."""


class SessionStateError(ServiceError):
    """The session is in the wrong state for the request (HTTP 409)."""


@dataclass(frozen=True)
class InjectionRecord:
    """One mid-session action, pinned to the engine's replay cursor.

    ``at_step`` is the step cursor at the moment of injection.  Replay
    re-applies the record when its cursor comes due, so the injected
    engine allocations (if any) consume the same sequence numbers at the
    same virtual time as they did live — the digest cannot tell a resumed
    run from an uninterrupted one.
    """

    action: Dict[str, object]
    at_us: float
    at_step: int
    pre_launch: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "action": dict(self.action),
            "at_us": self.at_us,
            "at_step": self.at_step,
            "pre_launch": self.pre_launch,
        }

    @classmethod
    def from_dict(cls, data: object) -> "InjectionRecord":
        if not isinstance(data, dict):
            raise ServiceError(
                f"malformed injection record: expected a dict, got {type(data).__name__}"
            )
        missing = sorted({"action", "at_us", "at_step", "pre_launch"} - set(data))
        if missing:
            raise ServiceError(f"injection record missing keys: {missing}")
        return cls(
            action=dict(
                checked(
                    "injection record 'action'", data["action"], dict, "an object", ServiceError
                )
            ),
            at_us=finite("injection record 'at_us'", data["at_us"], ServiceError),
            at_step=checked(
                "injection record 'at_step'", data["at_step"], int, "an integer", ServiceError
            ),
            pre_launch=checked(
                "injection record 'pre_launch'", data["pre_launch"], bool, "a bool", ServiceError
            ),
        )


class SimSession:
    """A scenario program hosted as an incremental, steerable run."""

    def __init__(
        self,
        program: ScenarioProgram,
        session_id: str = "s0",
        check_invariants: bool = True,
    ) -> None:
        self.id = session_id
        self.program = program
        self.check_invariants = check_invariants
        self.compiled = compile_program(program)
        # The compiled program is consumed by this session; a second run()
        # through the blocking path would corrupt the timeline.
        self.compiled._ran = True
        self.scenario = self.compiled.scenario
        self.env = self.scenario.env

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._status = ST_CREATED
        self._pause_requested = False
        self.error: Optional[str] = None

        #: Replay cursor: heap entries dispatched so far.
        self.steps = 0
        #: All injections applied to this timeline, in application order.
        self.injections: List[InjectionRecord] = []
        #: Records restored from a checkpoint, waiting for their cursor.
        self._replay: Deque[InjectionRecord] = deque()

        self._snapshots: Deque[Dict[str, object]] = deque(maxlen=SNAPSHOT_RING)
        self._snapshot_base = 0  # absolute seq of _snapshots[0]
        self._snapshot_seq = 0

        self._result_run: Optional[ProgramRun] = None
        self.digest: Optional[str] = None
        self.digest_sha256: Optional[str] = None

        # Step the scenario's lifecycle to its first barrier now, exactly as
        # the serial run() would: a freshly created session is the zero-step
        # point of the canonical timeline.  The phase reads "done" once the
        # lifecycle is exhausted and the result sealed.
        self._lifecycle = self.scenario.lifecycle()
        self._phase, self._barrier = next(self._lifecycle)

    # -- state ----------------------------------------------------------------
    @property
    def state(self) -> str:
        """Public lifecycle state (``running`` in the drain phase reads as
        ``draining`` so dashboards can tell work from cleanup)."""
        status = self._status
        if status == ST_RUNNING and self._phase == "drain":
            return ST_DRAINING
        return status

    @property
    def finished(self) -> bool:
        return self._status in (ST_FINISHED, ST_FAILED)

    def _fail(self, exc: BaseException) -> None:
        self._status = ST_FAILED
        self.error = f"{type(exc).__name__}: {exc}"

    # -- driving --------------------------------------------------------------
    def start(self) -> None:
        """created → running (the manager enqueues separately)."""
        self.resume()

    def resume(self) -> None:
        with self._cond:
            if self._status in (ST_CREATED, ST_PAUSED):
                self._status = ST_RUNNING
                self._pause_requested = False
                self._cond.notify_all()
                return
            if self._status == ST_RUNNING:
                return  # idempotent
            raise SessionStateError(
                f"session {self.id!r} is {self.state}; only created/paused "
                f"sessions can be resumed"
            )

    def pause(self) -> None:
        """Cooperative pause: takes effect at the next slice boundary."""
        self._pause_requested = True  # a mid-slice worker sees this promptly
        with self._cond:
            if self._status == ST_RUNNING:
                self._status = ST_PAUSED
                self._pause_requested = False
                self._capture_snapshot()
                self._cond.notify_all()
                return
            if self._status == ST_PAUSED:
                self._pause_requested = False
                return  # idempotent
            self._pause_requested = False
            raise SessionStateError(
                f"session {self.id!r} is {self.state}; only a running session "
                f"can be paused"
            )

    def advance(
        self,
        max_events: Optional[int] = None,
        until_us: Optional[float] = None,
        stop_on_checkpoint: bool = False,
    ) -> int:
        """Run one budgeted slice; returns heap entries dispatched.

        A created session is implicitly started.  With no budget and no
        horizon the session runs to completion (still honoring a concurrent
        :meth:`pause` request between chunks).  ``stop_on_checkpoint``
        single-steps and halts right after a ``checkpoint`` action fires —
        the determinism suite uses it to snapshot at exact cursors.
        """
        with self._cond:
            if self._status == ST_CREATED:
                self._status = ST_RUNNING
            if self._status != ST_RUNNING:
                raise SessionStateError(
                    f"session {self.id!r} is {self.state}; cannot advance"
                )
            n = self._advance_locked(max_events, until_us, stop_on_checkpoint)
            if self._pause_requested and self._status == ST_RUNNING:
                self._status = ST_PAUSED
                self._pause_requested = False
            self._capture_snapshot()
            self._cond.notify_all()
            return n

    def run_slice(self, max_events: int) -> bool:
        """Manager entry point: one slice, no exceptions, returns whether
        the session still wants CPU."""
        with self._cond:
            if self._status != ST_RUNNING:
                return False
            self._advance_locked(max_events, None, False)
            if self._pause_requested and self._status == ST_RUNNING:
                self._status = ST_PAUSED
                self._pause_requested = False
            self._capture_snapshot()
            self._cond.notify_all()
            return self._status == ST_RUNNING

    def run_to_completion(self) -> None:
        """Drive the session until it seals (tests / direct embedding)."""
        while not self.finished:
            self.advance()
            if self._status == ST_PAUSED:  # a concurrent pause landed
                self.resume()

    def _advance_locked(
        self,
        max_events: Optional[int],
        until_us: Optional[float],
        stop_on_checkpoint: bool,
    ) -> int:
        try:
            return self._step_phases(max_events, until_us, stop_on_checkpoint)
        except ReproError as exc:
            self._fail(exc)
        except Exception as exc:  # pragma: no cover - defensive seal
            self._fail(exc)
        return 0

    def _step_phases(
        self,
        max_events: Optional[int],
        until_us: Optional[float],
        stop_on_checkpoint: bool,
    ) -> int:
        """Step the scenario's lifecycle in budgeted slices.

        Each iteration either resumes the lifecycle (its barrier has been
        processed, or in the drain phase the queue is empty) or dispatches
        a bounded batch of heap entries up to that barrier.  Restored
        injections are re-applied exactly when the step cursor reaches
        their recorded position, never inside a batch — the batch cap
        shrinks to the gap.
        """
        env = self.env
        budget = max_events
        horizon = None
        if until_us is not None:
            horizon = max(float(until_us), env.now)
        processed = 0
        n_checkpoints = len(self.compiled.checkpoints)

        while self._status == ST_RUNNING and self._phase != "done":
            if self._pause_requested:
                break
            if budget is not None and budget <= 0:
                break

            while self._replay and self._replay[0].at_step <= self.steps:
                record = self._replay.popleft()
                if record.at_step < self.steps:
                    raise ServiceError(
                        f"replay overshot injection cursor: record at step "
                        f"{record.at_step}, session at {self.steps}"
                    )
                self._apply_record(record)

            cap = budget
            if self._replay:
                gap = self._replay[0].at_step - self.steps
                cap = gap if cap is None else min(cap, gap)
            if stop_on_checkpoint:
                cap = 1 if cap is None else min(cap, 1)

            barrier = self._barrier
            reached = not len(env) if barrier is None else barrier.processed
            if reached:
                step = next(self._lifecycle, None)
                if step is None:
                    self._finish()
                else:
                    self._phase, self._barrier = step
                continue
            n = env.advance(max_events=cap, until_time=horizon, stop=barrier)

            self.steps += n
            processed += n
            if budget is not None:
                budget -= n
            if stop_on_checkpoint and len(self.compiled.checkpoints) > n_checkpoints:
                break
            if n == 0:
                if barrier is not None and not len(env):
                    raise ServiceError(
                        f"session {self.id!r}: event queue drained before the "
                        f"{self._phase} barrier triggered; the scenario cannot "
                        f"progress"
                    )
                break  # horizon reached (queue head beyond until_us)
        return processed

    def _finish(self) -> None:
        result = self.scenario._build_result()
        run = ProgramRun(
            program=self.program,
            scenario=self.scenario,
            result=result,
            checkpoints=list(self.compiled.checkpoints),
        )
        if self.check_invariants:
            check_all(self.scenario, result, context=self.program.name)
        digest = run.digest()
        self._result_run = run
        self.digest = digest
        self.digest_sha256 = hashlib.sha256(digest.encode()).hexdigest()
        self._phase = "done"
        self._status = ST_FINISHED

    # -- injection ------------------------------------------------------------
    def inject(self, action: object, at_us: float) -> InjectionRecord:
        """Apply a program action to the live timeline at workload-relative
        virtual time ``at_us``.

        Before the workload launches, the action joins the compiled
        program's scripted list — bit-identical to having compiled the
        program with that action appended.  After launch, scripted actions
        are scheduled directly on the engine at a strictly-future time;
        faults can no longer be injected (their schedule was consumed at
        launch).
        """
        with self._cond:
            if self.finished:
                raise SessionStateError(
                    f"session {self.id!r} is {self.state}; cannot inject actions"
                )
            act = action if isinstance(action, Action) else action_from_dict(action)
            at = finite("injection 'at_us'", at_us, ServiceError)
            pre_launch = self.scenario.workload_start is None
            self._validate_injection(act, at, pre_launch)
            record = InjectionRecord(
                action=act.to_dict(),
                at_us=at,
                at_step=self.steps,
                pre_launch=pre_launch,
            )
            self._apply_injection(act, at, pre_launch)
            self.injections.append(record)
            self._cond.notify_all()
            return record

    def _apply_record(self, record: InjectionRecord) -> None:
        """Re-apply one restored injection at its recorded cursor."""
        action = action_from_dict(record.action)
        self._validate_injection(action, record.at_us, record.pre_launch)
        self._apply_injection(action, record.at_us, record.pre_launch)
        self.injections.append(record)

    def _validate_injection(
        self, action: Action, at_us: float, pre_launch: bool
    ) -> None:
        if not at_us >= 0.0 or at_us != at_us or at_us == float("inf"):
            raise ServiceError(f"injection time must be finite and >= 0 (got {at_us!r})")
        scenario = self.scenario
        if isinstance(action, FaultInject):
            if not pre_launch:
                raise ServiceError(
                    "faults can only be injected before the workload launches; "
                    "the chaos schedule is consumed at launch"
                )
            if scenario.injector is None:
                raise ServiceError(
                    f"program {self.program.name!r} carries no chaos plane; "
                    f"fault injection needs a program compiled with at least "
                    f"one fault_inject action and a retry_policy"
                )
            self.program._check_fault_target(
                f"injected fault at t={at_us!r}", action, set(self.program.tenants())
            )
            return
        if not isinstance(action, self.compiled.SCRIPTED_OPS):
            raise ServiceError(
                f"{action.op!r} actions cannot be injected into a live session; "
                f"structural actions (joins, bursts, advance) exist only at "
                f"compile time"
            )
        if isinstance(action, (TenantLeave, SetWindow, SloChange)):
            tenant = action.tenant
            if tenant not in scenario.generators_by_name or BURST_SEP in tenant:
                known = sorted(
                    n for n in scenario.generators_by_name if BURST_SEP not in n
                )
                raise ServiceError(
                    f"injection names unknown tenant {tenant!r}; known: {known}"
                )
        if isinstance(action, SloChange) and scenario.qos_controller is None:
            raise ServiceError(
                f"program {self.program.name!r} has no QoS control plane; "
                f"slo_change needs a program with SLOs or a non-static policy"
            )
        if isinstance(action, SetWindow) and scenario.config.protocol != "nvme-opf":
            raise ServiceError(
                f"set_window needs the nvme-opf protocol "
                f"(program runs {scenario.config.protocol!r})"
            )
        if not pre_launch:
            if scenario.workload_start is None:
                raise ServiceError(
                    "post-launch injection record applies before the workload "
                    "launched — the checkpoint is inconsistent"
                )
            when = scenario.workload_start + at_us
            if when <= self.env.now:
                raise ServiceError(
                    f"injection time t={at_us!r} (absolute {when!r}) is not in "
                    f"the future; the session is at {self.env.now!r}"
                )

    def _apply_injection(self, action: Action, at_us: float, pre_launch: bool) -> None:
        if isinstance(action, FaultInject):
            # Injector.start() reads its schedule lazily at workload launch,
            # so appending pre-launch lands in the ordered walk.
            self.scenario.injector.schedule.add(
                action.kind,
                action.component,
                at_us,
                action.duration_us,
                **dict(action.params),
            )
        elif pre_launch:
            self.compiled.schedule_action(action, at_us)
        else:
            self.env.call_at(
                self.scenario.workload_start + at_us,
                _invoke_scripted,
                self.compiled.action_callback(action),
            )

    # -- telemetry ------------------------------------------------------------
    def _capture_snapshot(self) -> None:
        scenario = self.scenario
        tenants: Dict[str, Dict[str, object]] = {}
        for name, gen in sorted(scenario.generators_by_name.items()):
            tenants[name] = {
                "issued": gen.issued,
                "completed": gen.completed,
                "failed": gen.failed,
                "inflight": gen.issued - gen.completed,
            }
        snapshot: Dict[str, object] = {
            "seq": self._snapshot_seq,
            "state": self.state,
            "phase": self._phase,
            "at_us": self.env.now,
            "steps": self.steps,
            "workload_us": (
                self.env.now - scenario.workload_start
                if scenario.workload_start is not None
                else None
            ),
            "tenants": tenants,
            "qos": (
                scenario.qos_controller.snapshot_state()
                if scenario.qos_controller is not None
                else None
            ),
            "checkpoints": [cp.label for cp in self.compiled.checkpoints],
            "error": self.error,
        }
        if len(self._snapshots) == self._snapshots.maxlen:
            self._snapshot_base += 1
        self._snapshots.append(snapshot)
        self._snapshot_seq += 1

    def telemetry(
        self, cursor: int = 0, wait_s: float = 0.0
    ) -> Tuple[int, List[Dict[str, object]]]:
        """Snapshots at absolute seq >= ``cursor`` (long-poll up to
        ``wait_s`` seconds for new ones); returns (next_cursor, snapshots)."""
        deadline = None
        with self._cond:
            while wait_s > 0 and cursor >= self._snapshot_seq and not self.finished:
                if deadline is None:
                    deadline = time_monotonic() + wait_s
                remaining = deadline - time_monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            start = max(int(cursor), self._snapshot_base)
            items = list(self._snapshots)[start - self._snapshot_base :]
            return self._snapshot_seq, items

    def status(self) -> Dict[str, object]:
        with self._lock:
            issued = completed = failed = 0
            for gen in self.scenario.generators_by_name.values():
                issued += gen.issued
                completed += gen.completed
                failed += gen.failed
            return {
                "id": self.id,
                "state": self.state,
                "phase": self._phase,
                "program": self.program.name,
                "steps": self.steps,
                "virtual_us": self.env.now,
                "issued": issued,
                "completed": completed,
                "failed": failed,
                "snapshots": self._snapshot_seq,
                "checkpoints": [cp.label for cp in self.compiled.checkpoints],
                "injections": len(self.injections),
                "error": self.error,
            }

    def wait_for(self, states: Tuple[str, ...], timeout_s: float) -> str:
        """Block until the session reaches one of ``states`` (or timeout);
        returns the state observed last."""
        deadline = time_monotonic() + timeout_s
        with self._cond:
            while self.state not in states:
                remaining = deadline - time_monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return self.state

    # -- result ---------------------------------------------------------------
    def result_payload(self) -> Dict[str, object]:
        with self._lock:
            if self._status == ST_FAILED:
                return {
                    "id": self.id,
                    "state": ST_FAILED,
                    "program": self.program.name,
                    "error": self.error,
                }
            if self._status != ST_FINISHED:
                raise SessionStateError(
                    f"session {self.id!r} is {self.state}; the result seals "
                    f"when it finishes"
                )
            run = self._result_run
            result = run.result
            return {
                "id": self.id,
                "state": ST_FINISHED,
                "program": self.program.name,
                "digest": self.digest,
                "digest_sha256": self.digest_sha256,
                "n_checkpoints": len(run.checkpoints),
                "elapsed_us": result.elapsed_us,
                "tc_throughput_mbps": result.tc_throughput_mbps,
                "ls_tail_us": result.ls_tail_us,
                "steps": self.steps,
                "virtual_us": self.env.now,
            }

    # -- checkpoint / resume ---------------------------------------------------
    def make_checkpoint(self, label: str = "") -> Dict[str, object]:
        """Serialize the session to a JSON-safe dict.

        Only quiescent sessions checkpoint: a mid-slice snapshot would race
        the engine.  The manager pauses, checkpoints, and (optionally)
        resumes.
        """
        with self._cond:
            if self._status not in (ST_CREATED, ST_PAUSED):
                raise SessionStateError(
                    f"session {self.id!r} is {self.state}; pause it before "
                    f"checkpointing"
                )
            return {
                "format": CHECKPOINT_FORMAT,
                "label": str(label),
                "program": self.program.to_dict(),
                "steps": self.steps,
                "virtual_us": self.env.now,
                "engine_seq": self.env._seq,
                "injections": [rec.to_dict() for rec in self.injections],
                "check_invariants": self.check_invariants,
            }

    @classmethod
    def from_checkpoint(
        cls, data: object, session_id: str = "s0"
    ) -> "SimSession":
        """Deterministically rebuild a session from :meth:`make_checkpoint`.

        Replays the program from scratch to the recorded step cursor,
        re-applying injections at their recorded cursors, then verifies the
        engine landed on the recorded (clock, sequence) pair — any
        divergence (edited program, wrong seed, tampered cursor) is refused
        rather than silently producing a different timeline.
        """
        if not isinstance(data, dict):
            raise ServiceError(
                f"checkpoint must be a dict, got {type(data).__name__}"
            )
        fmt = data.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise ServiceError(
                f"unsupported checkpoint format {fmt!r}; expected "
                f"{CHECKPOINT_FORMAT!r}"
            )
        known = {
            "format",
            "label",
            "program",
            "steps",
            "virtual_us",
            "engine_seq",
            "injections",
            "check_invariants",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServiceError(
                f"unknown checkpoint keys: {unknown}; known: {sorted(known)}"
            )
        # Type-check every field before any replay work starts.
        steps = checked(
            "checkpoint 'steps'", data.get("steps", 0), int, "an integer", ServiceError
        )
        expect_seq = checked(
            "checkpoint 'engine_seq'", data.get("engine_seq", 0), int, "an integer", ServiceError
        )
        expect_now = finite("checkpoint 'virtual_us'", data.get("virtual_us", 0.0), ServiceError)
        injections = checked(
            "checkpoint 'injections'", data.get("injections", []), list, "a list", ServiceError
        )
        check_invariants = checked(
            "checkpoint 'check_invariants'", data.get("check_invariants", True), bool, "a bool",
            ServiceError,
        )
        if steps < 0:
            raise ServiceError(f"checkpoint step cursor must be >= 0 (got {steps})")
        program = ScenarioProgram.from_dict(data.get("program"))
        session = cls(
            program,
            session_id=session_id,
            check_invariants=check_invariants,
        )
        records = [InjectionRecord.from_dict(raw) for raw in injections]
        for earlier, later in zip(records, records[1:]):
            if later.at_step < earlier.at_step:
                raise ServiceError(
                    "checkpoint injection log is not cursor-ordered"
                )
        session._replay = deque(records)
        with session._cond:
            session._status = ST_RUNNING
            n = (
                session._step_phases(
                    max_events=steps, until_us=None, stop_on_checkpoint=False
                )
                if steps
                else 0
            )
            # Records at the final cursor (injected after the last slice the
            # checkpoint saw, or pre-launch on a zero-step checkpoint) land
            # after the budget is spent; apply them now, in order.
            while session._replay and session._replay[0].at_step == session.steps:
                session._apply_record(session._replay.popleft())
            if (
                n != steps
                or session.steps != steps
                or session._replay
                or session.env.now != expect_now
                or session.env._seq != expect_seq
            ):
                raise ServiceError(
                    f"checkpoint replay diverged: replayed {session.steps} of "
                    f"{steps} steps, clock {session.env.now!r} vs recorded "
                    f"{expect_now!r}, seq {session.env._seq} vs recorded "
                    f"{expect_seq}, {len(session._replay)} injection(s) "
                    f"unapplied — refusing to resume a different timeline"
                )
            session._status = ST_PAUSED
            session._capture_snapshot()
            session._cond.notify_all()
        return session


def time_monotonic() -> float:
    """Wall-clock monotonic seconds (isolated for test monkeypatching)."""
    return time.monotonic()
