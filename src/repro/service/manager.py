"""The session pool: worker threads multiplexing many live simulations.

A :class:`SessionManager` owns every hosted :class:`~repro.service.session
.SimSession` and a small pool of worker threads.  Runnable session ids sit
in a queue; each worker pops one, runs a single budgeted slice
(:meth:`SimSession.run_slice`), and re-enqueues the id if the session still
wants CPU.  Slicing — not one-thread-per-session — is what lets ``workers=2``
host dozens of concurrent simulations with fair progress: a session is
never parked on a blocked thread, it is simply not scheduled.

Thread-safety contract: each session's internal condition lock serializes
every touch of its engine, so a slice, a telemetry read, an injection, and
a checkpoint can come from different threads without coordination here.
The manager's own lock only guards the registry and the enqueued-id set
(the set prevents a session from being queued twice and slicing on two
workers back-to-back, which would be correct but wasteful).
"""

from __future__ import annotations

import itertools
import queue
import threading
from typing import Dict, List, Optional

from ..config import MAX_WORKERS
from ..errors import ConfigError
from ..scenarios.program import ScenarioProgram
from .session import SessionNotFound, SimSession

#: Heap entries per scheduling slice.  Large enough to amortize the
#: dispatch loop, small enough that pause/telemetry latency on a busy
#: server stays well under a millisecond of wall clock.
DEFAULT_SLICE_EVENTS = 4096


class SessionManager:
    """Registry + scheduler for hosted simulation sessions."""

    def __init__(
        self,
        workers: int = 2,
        slice_events: int = DEFAULT_SLICE_EVENTS,
    ) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ConfigError(
                f"key 'workers' must be a positive integer (got {workers!r})"
            )
        if workers > MAX_WORKERS:
            raise ConfigError(
                f"key 'workers' must be <= {MAX_WORKERS} (got {workers!r})"
            )
        if (
            not isinstance(slice_events, int)
            or isinstance(slice_events, bool)
            or slice_events < 1
        ):
            raise ConfigError(
                f"key 'slice_events' must be a positive integer (got {slice_events!r})"
            )
        self.workers = workers
        self.slice_events = slice_events
        self._lock = threading.Lock()
        self._sessions: Dict[str, SimSession] = {}
        self._enqueued: set = set()
        self._ids = itertools.count()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._closed = False
        self._threads: List[threading.Thread] = [
            threading.Thread(
                target=self._worker,
                name=f"repro-service-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- registry --------------------------------------------------------------
    def _new_id(self) -> str:
        return f"s{next(self._ids)}"

    def get(self, session_id: str) -> SimSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionNotFound(f"no session {session_id!r}")
        return session

    def list_sessions(self) -> List[Dict[str, object]]:
        with self._lock:
            sessions = sorted(self._sessions.values(), key=lambda s: s.id)
        return [session.status() for session in sessions]

    # -- lifecycle -------------------------------------------------------------
    def submit(
        self,
        program: object,
        start: bool = True,
        check_invariants: bool = True,
    ) -> SimSession:
        """Host a new session for ``program`` (a :class:`ScenarioProgram`
        or its dict form); started (queued for slicing) unless ``start``
        is False."""
        if not isinstance(program, ScenarioProgram):
            program = ScenarioProgram.from_dict(program)
        session_id = self._new_id()
        session = SimSession(
            program, session_id=session_id, check_invariants=check_invariants
        )
        with self._lock:
            self._sessions[session_id] = session
        if start:
            session.resume()
            self._enqueue(session_id)
        return session

    def restore(self, checkpoint: object, start: bool = False) -> SimSession:
        """Host a session rebuilt from a checkpoint dict (paused unless
        ``start``)."""
        session_id = self._new_id()
        session = SimSession.from_checkpoint(checkpoint, session_id=session_id)
        with self._lock:
            self._sessions[session_id] = session
        if start:
            session.resume()
            self._enqueue(session_id)
        return session

    def pause(self, session_id: str) -> SimSession:
        session = self.get(session_id)
        session.pause()
        return session

    def resume(self, session_id: str) -> SimSession:
        session = self.get(session_id)
        session.resume()
        self._enqueue(session_id)
        return session

    def checkpoint(self, session_id: str, label: str = "") -> Dict[str, object]:
        """Serialize a session (it must be paused — see
        :meth:`SimSession.make_checkpoint`)."""
        return self.get(session_id).make_checkpoint(label)

    # -- scheduling ------------------------------------------------------------
    def _enqueue(self, session_id: str) -> None:
        with self._lock:
            if self._closed or session_id in self._enqueued:
                return
            self._enqueued.add(session_id)
        self._queue.put(session_id)

    def _worker(self) -> None:
        while True:
            session_id = self._queue.get()
            if session_id is None:
                return
            with self._lock:
                self._enqueued.discard(session_id)
                session = self._sessions.get(session_id)
            if session is None:
                continue
            try:
                runnable = session.run_slice(self.slice_events)
            except Exception:  # pragma: no cover - run_slice seals failures
                runnable = False
            if runnable:
                self._enqueue(session_id)

    def shutdown(self) -> None:
        """Stop the workers (sessions keep their state; idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)
