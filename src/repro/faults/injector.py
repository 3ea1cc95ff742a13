"""The fault injector: arms a :class:`FaultSchedule` against live components.

The :class:`Injector` is one simulation process.  It sleeps until each
fault's time, applies it through the per-layer adapter
(:data:`repro.faults.adapters.FAULT_HANDLERS`), and — for faults with a
duration — schedules the adapter's revert callback.  Every inject/revert is
appended to a canonical text trace and counted in a
:class:`~repro.metrics.events.EventCounter`, which is what the
determinism tests compare byte-for-byte across same-seed runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import FaultError
from ..metrics.events import EventCounter
from .schedule import FaultEvent, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..simcore.engine import Environment


class ComponentRegistry:
    """Name -> component lookup, grouped by layer kind.

    Kinds used by the built-in adapters: ``link`` (:class:`repro.net.link.Link`),
    ``nic`` (:class:`repro.net.nic.Nic`), ``switch``
    (:class:`repro.net.switch.Switch`), ``ssd``
    (:class:`repro.ssd.controller.NvmeController`), ``target``
    (:class:`repro.nvmeof.target.NvmeOfTarget`) and ``initiator``
    (:class:`repro.nvmeof.initiator.NvmeOfInitiator`).
    """

    def __init__(self) -> None:
        self._components: Dict[Tuple[str, str], Any] = {}

    def add(self, kind: str, name: str, component: Any) -> None:
        key = (kind, name)
        if key in self._components:
            raise FaultError(f"component {kind}:{name} already registered")
        self._components[key] = component

    def get(self, kind: str, name: str) -> Any:
        try:
            return self._components[(kind, name)]
        except KeyError:
            known = sorted(n for k, n in self._components if k == kind)
            raise FaultError(
                f"no {kind} component named {name!r}; registered: {known}"
            ) from None

    def names(self, kind: str) -> List[str]:
        return sorted(n for k, n in self._components if k == kind)

    def __len__(self) -> int:
        return len(self._components)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ComponentRegistry {len(self._components)} components>"


class Injector:
    """Replays a fault schedule against registered components."""

    def __init__(
        self,
        env: "Environment",
        schedule: FaultSchedule,
        registry: ComponentRegistry,
        rng: Optional["np.random.Generator"] = None,
        events: Optional[EventCounter] = None,
    ) -> None:
        self.env = env
        self.schedule = schedule
        self.registry = registry
        #: Seeded generator for stochastic adapters (loss-burst coin flips).
        self.rng = rng
        self.events = events if events is not None else EventCounter()
        self.trace: List[str] = []
        self.faults_injected = 0
        self.faults_reverted = 0
        #: Simulation time the replay was armed at.  Schedules are written
        #: relative to this epoch: an injector started before time advances
        #: (the classic ``chaos=`` path) replays absolute times unchanged,
        #: while one started at workload onset (scenario programs) shifts
        #: the whole schedule to workload-relative time.
        self.epoch_us = 0.0
        self._started = False

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Spawn the injector process (idempotence is an error: one schedule,
        one replay)."""
        if self._started:
            raise FaultError("injector already started")
        self._started = True
        self.epoch_us = self.env.now
        self.env.process(self._run(), name="fault-injector")

    def _run(self):
        for fault in self.schedule.ordered():
            delay = self.epoch_us + fault.at_us - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._apply(fault)

    # -- application --------------------------------------------------------------
    def _apply(self, fault: FaultEvent) -> None:
        from .adapters import FAULT_HANDLERS  # late: avoids import cycles

        handler = FAULT_HANDLERS.get(fault.kind)
        if handler is None:
            raise FaultError(f"no adapter for fault kind {fault.kind!r}")
        revert = handler(self, fault)
        self.faults_injected += 1
        self._record("inject", fault)
        if revert is not None and fault.duration_us > 0:
            self.env.call_later(fault.duration_us, self._on_revert, (fault, revert))

    def _on_revert(self, token) -> None:
        fault, revert = token
        revert()
        self.faults_reverted += 1
        self._record("revert", fault)

    def _record(self, phase: str, fault: FaultEvent) -> None:
        self.events.incr(f"fault/{fault.kind}/{phase}")
        self.trace.append(f"{self.env.now:.6f} {phase} {fault.kind} {fault.target}")

    # -- introspection ------------------------------------------------------------
    def trace_bytes(self) -> bytes:
        """Canonical byte rendering of the applied-fault trace."""
        return "\n".join(self.trace).encode()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Injector {len(self.schedule)} scheduled, "
            f"{self.faults_injected} injected, {self.faults_reverted} reverted>"
        )
