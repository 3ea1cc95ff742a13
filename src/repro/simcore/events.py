"""Event primitives for the discrete-event core.

An :class:`Event` is a one-shot occurrence with an optional value.  Processes
(see :mod:`repro.simcore.process`) suspend by yielding events and are resumed
when the event is *processed* by the environment.

Lifecycle::

    untriggered --> triggered (succeed/fail; now sits in the event queue)
                --> processed (callbacks ran; value is final)

The design mirrors the well-known SimPy semantics (so the engine is easy to
reason about and test against intuition) but is implemented from scratch and
kept deliberately lean: the NVMe-oPF simulations schedule hundreds of
thousands of events per run, so ``__slots__`` and minimal indirection matter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment

#: Scheduling priorities: URGENT events preempt NORMAL ones at equal times.
URGENT = 0
NORMAL = 1

_PENDING = object()


class Event:
    """A one-shot event that may succeed with a value or fail with an error.

    Parameters
    ----------
    env:
        Owning environment.  Events can only be used with their environment.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks run when the event is processed.  ``None`` afterwards.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- introspection -------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it is not re-raised at top level."""
        self._defused = True

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside any process waiting on this event.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay=0.0, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the same outcome as another (triggered) event."""
        if not event.triggered:
            raise SimulationError(f"{event!r} has not been triggered")
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- composition ---------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Immediately-scheduled event used to start a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process) -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, delay=0.0, priority=URGENT)


class ConditionValue:
    """Result of a condition: an ordered mapping of triggered events."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(str(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a boolean combination of events (``&`` / ``|``).

    The condition's value is a :class:`ConditionValue` listing the events
    that had triggered by the time the condition matched.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, env: "Environment", evaluate, events) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")

        # Register for outcomes; immediately account for already-processed
        # events so conditions compose with completed work.
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if self._events and not self.triggered and self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())
        elif not self._events and not self.triggered:
            self.succeed(ConditionValue())

    def _collect_values(self) -> ConditionValue:
        value = ConditionValue()
        for event in self._events:
            # ``processed`` (not ``triggered``): a pending Timeout already
            # carries its value, but it has not *happened* yet.
            if event.processed and event._ok:
                value.events.append(event)
        return value

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events, count) -> bool:
        """Evaluator: every event triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events, count) -> bool:
        """Evaluator: at least one event triggered (or there are none)."""
        return count > 0 or len(events) == 0


class AllOf(Condition):
    """Condition that triggers once all of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that triggers once any of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events) -> None:
        super().__init__(env, Condition.any_events, events)
