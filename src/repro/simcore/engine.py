"""The discrete-event simulation environment (clock + event queue).

:class:`Environment` owns the simulation clock (microseconds, ``float``) and
a binary-heap event queue.  Determinism: ties at equal ``(time, priority)``
are broken by a monotonically increasing sequence number, so two runs with
the same seed replay identically.

Two scheduling APIs share the one heap (see docs/ARCHITECTURE.md, "Two
scheduling APIs"):

* **Processes** — generators yielding :class:`Event` objects.  Expressive
  (conditions, error propagation); one object per occurrence.
  Use for the cold control plane: connect/handshake, recovery, experiment
  orchestration.
* **Plain callbacks** — :meth:`Environment.call_later` /
  :meth:`Environment.call_at` enqueue a bare ``fn(arg)`` with no Event, no
  callback list, no generator frame.  Use on per-packet/per-command hot
  paths.

Both entry kinds are 5-tuples ``(time, priority, seq, fn, arg)`` and are
dispatched identically (``fn(arg)``; events ride with ``fn`` set to the
event processor), so callbacks and events interleave with exactly the same
``(time, priority, seq)`` tie-breaking — the fast path cannot perturb replay
order.

Batched scheduling (see docs/ARCHITECTURE.md, "Batched dispatch"):
:meth:`Environment.call_later_batch` schedules ``fn(arg)`` for a whole list
of args at one timestamp as a *single* heap entry that reserves a
contiguous run of sequence numbers — one heap push and one heap pop per
batch instead of per item, while replaying bit-identically to the
equivalent loop of ``call_later`` calls.

One dispatch loop: :meth:`Environment.advance` is the only code that pops
the heap.  :meth:`Environment.run` wraps it (a stop event, or an URGENT
marker for a time bound), so the blocking run and the service layer's
budgeted slices dispatch through exactly the same loop.

Typical usage::

    env = Environment()

    def hello(env):
        yield env.timeout(5.0)
        return env.now

    proc = env.process(hello(env))
    env.run()
    assert proc.value == 5.0
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import SimulationError
from .events import AllOf, AnyOf, Event, NORMAL, Timeout, URGENT
from .process import Process

Infinity = float("inf")

_heappush = heapq.heappush
_heappop = heapq.heappop


def _process_event(event: Event) -> None:
    """Uniform-dispatch shim: process one triggered :class:`Event`.

    Runs the event's callbacks and re-raises unhandled failures.
    """
    callbacks = event.callbacks
    if callbacks is None:  # pragma: no cover - defensive
        raise SimulationError(f"{event!r} processed twice")
    event.callbacks = None
    if len(callbacks) == 1:
        # Single consumer — the overwhelmingly common case on hot paths.
        callbacks[0](event)
        if event._ok:
            return
    else:
        for callback in callbacks:
            callback(event)
        if event._ok:
            return
    if not event._defused:
        # An unhandled failure (e.g. a process crashed and nobody was
        # waiting on it) aborts the simulation loudly rather than being
        # silently dropped.
        raise event._value


class Environment:
    """Execution environment for a single simulation run."""

    __slots__ = ("now", "_queue", "_seq")

    def __init__(self, initial_time: float = 0.0) -> None:
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Callable[[Any], None], Any]] = []
        # A plain int, not itertools.count: a batch reserves a contiguous
        # run of sequence numbers with one addition instead of len(batch)
        # next() calls.
        self._seq = 0

    # -- clock & introspection -----------------------------------------------
    # ``now`` is a plain data attribute, not a property: the clock is read on
    # every hot-path callback across every layer, and a slot read is the
    # cheapest access Python offers.  Treat it as read-only outside the run
    # loop.

    def __len__(self) -> int:
        return len(self._queue)

    # -- scheduling -----------------------------------------------------------
    def _bad_delay(self, delay: float) -> SimulationError:
        if isinstance(delay, (int, float)) and not math.isfinite(delay):
            return SimulationError(
                f"delay must be finite (got {delay!r}); NaN/inf would corrupt "
                f"heap ordering"
            )
        return SimulationError(f"cannot schedule into the past (delay={delay!r})")

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Enqueue ``event`` for processing at ``now + delay``."""
        if not 0.0 <= delay < Infinity:  # rejects negatives, NaN and inf alike
            raise self._bad_delay(delay)
        seq = self._seq
        self._seq = seq + 1
        _heappush(
            self._queue,
            (self.now + delay, priority, seq, _process_event, event),
        )

    def call_later(
        self,
        delay: float,
        fn: Callable[[Any], None],
        arg: Any = None,
        priority: int = NORMAL,
    ) -> None:
        """Schedule ``fn(arg)`` at ``now + delay`` — the zero-allocation path.

        No :class:`Event` is created: the callback rides directly on the heap
        with the same ``(time, priority, seq)`` tie-breaking as events, so
        replacing an Event-per-completion call site with ``call_later`` at
        the same program point preserves replay order bit-for-bit.  The
        callback cannot be cancelled; use a token/deadline re-check in ``fn``
        for restartable timers (see ``net.tcp._RestartableTimer``).
        """
        if not 0.0 <= delay < Infinity:
            raise self._bad_delay(delay)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self.now + delay, priority, seq, fn, arg))

    def call_at(
        self,
        t: float,
        fn: Callable[[Any], None],
        arg: Any = None,
        priority: int = NORMAL,
    ) -> None:
        """Schedule ``fn(arg)`` at absolute time ``t`` (must be >= now, finite)."""
        if not self.now <= t < Infinity:  # rejects the past, NaN and inf alike
            if isinstance(t, (int, float)) and not math.isfinite(t):
                raise SimulationError(f"call_at time must be finite (got {t!r})")
            raise SimulationError(f"call_at time {t!r} lies in the past (now={self.now})")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (t, priority, seq, fn, arg))

    def call_later_batch(
        self,
        delay: float,
        fn: Callable[[Any], None],
        args: Sequence[Any],
        priority: int = NORMAL,
    ) -> None:
        """Schedule ``fn(arg)`` for every ``arg`` in ``args`` at ``now + delay``.

        Semantically identical to ``for arg in args: call_later(delay, fn,
        arg)`` — the batch reserves the same contiguous run of sequence
        numbers, so replay order is bit-for-bit the same — but it costs one
        heap entry and one heap operation for the whole batch instead of
        one per item.  Use it where a hot layer completes or emits many
        items at one timestamp (device channel batches, coalesced windows,
        telemetry flushes).

        The engine takes ownership of ``args``: callers must not mutate the
        sequence after scheduling.  An empty batch is a no-op (the delay is
        still validated).
        """
        if not 0.0 <= delay < Infinity:
            raise self._bad_delay(delay)
        n = len(args)
        if n == 0:
            return
        seq = self._seq
        self._seq = seq + n
        _heappush(
            self._queue,
            (self.now + delay, priority, seq, self._dispatch_batch, (fn, args, priority, seq)),
        )

    def _dispatch_batch(
        self, token: Tuple[Callable[[Any], None], Sequence[Any], int, int]
    ) -> None:
        """Run one batch entry: ``fn(arg)`` per item, preserving heap order.

        Items dispatch back-to-back with no per-item heap traffic.  The one
        thing that could legally sort *between* two items of the batch is an
        entry scheduled — by one of the batch's own callbacks — at the same
        timestamp with a more urgent priority (same-priority entries always
        carry later sequence numbers, and past timestamps cannot be
        scheduled).  Callbacks only ever push onto the queue, so the guard
        watches ``len(queue)``: while the length is unchanged nothing new
        can preempt, and the common case pays one C-level ``len()`` per
        item.  On preemption the batch's tail is pushed back as a new batch
        entry keyed by the next undispatched item's sequence number, which
        restores exact heap semantics.
        """
        fn, args, priority, seq = token
        queue = self._queue
        now = self.now
        qlen = len(queue)
        i = 0
        try:
            for arg in args:
                if len(queue) != qlen:
                    head = queue[0]
                    if head[0] == now and head[1] < priority:
                        _heappush(
                            queue,
                            (
                                now,
                                priority,
                                seq + i,
                                self._dispatch_batch,
                                (fn, args[i:], priority, seq + i),
                            ),
                        )
                        return
                    qlen = len(queue)
                i += 1
                fn(arg)
        except BaseException:
            # Keep the heap resumable: the undispatched tail goes back as
            # its own batch entry (same contiguous sequence numbers).
            if i < len(args):
                _heappush(
                    queue,
                    (now, priority, seq + i, self._dispatch_batch, (fn, args[i:], priority, seq + i)),
                )
            raise

    def advance(
        self,
        max_events: Optional[int] = None,
        until_time: Optional[float] = None,
        stop: Optional[Event] = None,
    ) -> int:
        """The engine's one dispatch loop: process up to ``max_events`` heap
        entries, none scheduled after ``until_time``, halting immediately
        after ``stop`` is processed.  Returns the number of entries run.

        Each entry dispatches the same way (one pop, clock set,
        ``fn(arg)``), so a run split into budgeted slices — the service
        control plane's sessions — replays bit-identically to one
        uninterrupted :meth:`run`: the slice boundaries are invisible to
        the simulation.  An exhausted budget simply returns; the queue
        stays resumable.  No callback is
        registered on ``stop`` (the loop polls :attr:`Event.processed`), so
        a budgeted driver adds zero heap entries and zero sequence numbers.
        """
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0 (got {max_events!r})")
        if until_time is not None and not self.now <= until_time < Infinity:
            raise SimulationError(
                f"until_time {until_time!r} must be finite and >= now ({self.now!r})"
            )
        queue = self._queue
        n = 0
        while queue:
            if max_events is not None and n >= max_events:
                break
            if until_time is not None and queue[0][0] > until_time:
                break
            self.now, _, _, fn, arg = _heappop(queue)
            fn(arg)
            n += 1
            if stop is not None and stop.callbacks is None:
                break
        return n

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation: a thin wrapper over :meth:`advance`.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue drains.
            * a number — run until the clock reaches that time; entries at
              exactly that time with NORMAL priority stay queued.
            * an :class:`Event` — run until that event is processed and
              return its value (raising if it failed).
        """
        if until is None:
            self.advance()
            return None
        if isinstance(until, Event):
            if until.callbacks is not None:
                self.advance(stop=until)
                if until.callbacks is not None:
                    raise SimulationError(
                        "run(until=event) finished but the event never triggered"
                    )
            if until._ok:
                return until._value
            raise until._value
        at = float(until)
        if not self.now <= at < Infinity:
            raise SimulationError(
                f"until={at!r} must be finite and >= now ({self.now!r})"
            )
        marker = Event(self)
        marker._ok = True
        marker._value = None
        # URGENT: fire before any NORMAL entry at the same timestamp.
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (at, URGENT, seq, _process_event, marker))
        self.advance(stop=marker)
        return None

    # -- factories -------------------------------------------------------------
    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after ``delay`` microseconds.

        Builds the :class:`Timeout` inline (no ``__init__`` chain): the
        process API's hot path allocates one per ``yield``.
        """
        if not 0.0 <= delay < Infinity:
            raise self._bad_delay(delay)
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t._defused = False
        t.delay = delay
        seq = self._seq
        self._seq = seq + 1
        _heappush(
            self._queue,
            (self.now + delay, NORMAL, seq, _process_event, t),
        )
        return t

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event over all ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event over any of ``events``."""
        return AnyOf(self, events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment now={self.now} queued={len(self._queue)}>"
