"""Generator-based simulation processes.

A *process* wraps a Python generator that yields :class:`~repro.simcore.events.Event`
instances.  Yielding suspends the process until the event is processed; the
event's value becomes the value of the ``yield`` expression.  A failed event
re-raises its exception inside the generator at the yield point, enabling
ordinary ``try/except`` error handling in protocol code.

Processes are themselves events: they trigger when the generator returns
(value = the generator's return value) or raises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import SimulationError
from .events import Event, Initialize, NORMAL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment


class Process(Event):
    """A running simulation process (also usable as an event to wait on)."""

    __slots__ = ("name", "_send", "_throw", "_resume_cb")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        # Hot-path caches: one bound-method/attribute lookup per process
        # instead of one per resume (hundreds of thousands per run).  The
        # bound methods are also what keeps the generator alive.
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    # -- engine plumbing -----------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The waited-on event failed: re-raise inside the process.
                    event._defused = True
                    next_event = self._throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env.schedule(self, delay=0.0, priority=NORMAL)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self, delay=0.0, priority=NORMAL)
                return

            try:
                callbacks = next_event.callbacks
            except AttributeError:
                err = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._value = err
                env.schedule(self, delay=0.0, priority=NORMAL)
                return

            if callbacks is not None:
                # Pending event: register and suspend.
                callbacks.append(self._resume_cb)
                return

            # The yielded event was already processed: loop immediately with
            # its (final) outcome instead of going through the queue again.
            event = next_event

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'done' if self.triggered else 'alive'}>"
