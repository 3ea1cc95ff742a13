"""Single-core FIFO execution model.

SPDK runs each reactor as one busy-polling thread pinned to a core; all
protocol work on that reactor serialises.  :class:`CpuCore` models exactly
that: tasks execute in submission order, each occupying the core for its cost.

The implementation is O(1) per task and allocates no event: rather than
simulating a server process, the core tracks the time it becomes available
(``_avail_at``) and schedules each task's completion callback directly.
This "busy-until" formulation is exact for a non-preemptive FIFO server and
keeps the event count low enough for the large scale-out experiments.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment


class CpuCore:
    """A non-preemptive FIFO single-core executor with utilisation accounting."""

    __slots__ = ("env", "name", "_avail_at", "_busy_time", "_started_at")

    def __init__(self, env: "Environment", name: str = "core") -> None:
        self.env = env
        self.name = name
        self._avail_at = env.now
        self._busy_time = 0.0
        self._started_at = env.now

    # -- execution -------------------------------------------------------------
    def run_later(self, cost, fn, arg=None) -> float:
        """Schedule ``cost`` us of work and ``fn(arg)`` at its completion.

        Work submitted while the core is busy queues behind earlier work
        (FIFO).  ``cost`` may be zero, in which case the callback still
        respects queueing order (it runs when the core has drained prior
        work).  Returns the completion time.
        """
        if cost < 0:
            raise SimulationError(f"negative CPU cost: {cost}")
        env = self.env
        now = env.now
        start = self._avail_at
        if start < now:
            start = now
        finish = start + cost
        self._avail_at = finish
        self._busy_time += cost
        # Inlined env.call_later: cost was validated non-negative above, so
        # the delay is always legal.  The timestamp is computed exactly as
        # call_later would (now + delay) to preserve float identity.
        seq = env._seq
        env._seq = seq + 1
        _heappush(env._queue, (now + (finish - now), 1, seq, fn, arg))
        return finish

    def charge(self, cost: float) -> float:
        """Account for work without an event; returns its completion time.

        Useful for fire-and-forget bookkeeping costs where nothing waits on
        the work but the core's availability must still advance.
        """
        if cost < 0:
            raise SimulationError(f"negative CPU cost: {cost}")
        start = self._avail_at if self._avail_at > self.env.now else self.env.now
        finish = start + cost
        self._avail_at = finish
        self._busy_time += cost
        return finish

    # -- accounting --------------------------------------------------------------
    @property
    def backlog(self) -> float:
        """Queued work (microseconds) not yet executed."""
        return max(0.0, self._avail_at - self.env.now)

    @property
    def busy_time(self) -> float:
        """Total microseconds of work accepted so far."""
        return self._busy_time

    def utilization(self) -> float:
        """Fraction of wall time spent busy since creation.

        Counts accepted work against elapsed time, clamped to 1.0 (work may
        still be queued beyond ``now``).
        """
        elapsed = self.env.now - self._started_at
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_time / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CpuCore {self.name!r} backlog={self.backlog:.2f}us>"
