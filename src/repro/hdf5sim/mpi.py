"""Simulated MPI ranks and barriers.

h5bench runs one HDF5 writer/reader per MPI rank; the paper hosts one
fabric initiator per rank.  :class:`Communicator` provides the only
collective the kernels need — a barrier — implemented over simulation
events (all ranks arrive, everyone releases).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..errors import ConfigError
from ..simcore.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment
    from ..simcore.process import Process


class Communicator:
    """A fixed-size group of simulated ranks with barrier support."""

    def __init__(self, env: "Environment", size: int) -> None:
        if size < 1:
            raise ConfigError("communicator needs at least one rank")
        self.env = env
        self.size = size
        self._arrived = 0
        self._release: Optional[Event] = None
        self.barriers_completed = 0

    def barrier(self) -> Event:
        """Event that fires once every rank has called barrier().

        Usage inside a rank process: ``yield comm.barrier()``.
        """
        if self._release is None:
            self._release = Event(self.env)
        release = self._release
        self._arrived += 1
        if self._arrived == self.size:
            self._arrived = 0
            self._release = None
            self.barriers_completed += 1
            release.succeed(self.barriers_completed)
        return release


class SimRank:
    """One simulated MPI rank running a generator body."""

    def __init__(
        self,
        env: "Environment",
        rank: int,
        comm: Communicator,
        body: Callable[["SimRank"], Generator],
        name: Optional[str] = None,
    ) -> None:
        self.env = env
        self.rank = rank
        self.comm = comm
        self.name = name or f"rank{rank}"
        self.process: "Process" = env.process(body(self), name=self.name)

    @property
    def done(self) -> "Process":
        """The process doubles as the rank's completion event."""
        return self.process
