"""Lightweight structured tracing for simulations.

A :class:`Tracer` collects ``(time, source, kind, payload)`` records.  It is
disabled by default (zero overhead beyond one ``if``), and tests/examples can
enable it to assert on event orderings — e.g. that a latency-sensitive
request bypassed queued throughput-critical requests at the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: float
    source: str
    kind: str
    payload: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.time:10.3f}us] {self.source}:{self.kind} {self.payload!r}"


class Tracer:
    """Collects trace records when enabled; no-op otherwise."""

    def __init__(self, enabled: bool = False, limit: Optional[int] = None) -> None:
        self.enabled = enabled
        self.limit = limit
        self.records: List[TraceRecord] = []
        self._sinks: List[Callable[[TraceRecord], None]] = []

    def emit(self, time: float, source: str, kind: str, payload: Any = None) -> None:
        """Record an event if tracing is enabled (and under the limit).

        Hot-path callers should either pre-check :attr:`enabled` before
        building a payload, or pass a zero-argument callable as ``payload``
        — it is only invoked (and its result recorded) when the record is
        actually kept, so a disabled tracer never pays for payload
        construction.
        """
        if not self.enabled:
            return
        if self.limit is not None and len(self.records) >= self.limit:
            return
        if callable(payload):
            payload = payload()
        record = TraceRecord(time, source, kind, payload)
        self.records.append(record)
        for sink in self._sinks:
            sink(record)

    def add_sink(self, sink: Callable[[TraceRecord], None]) -> None:
        """Attach a callable invoked for every emitted record."""
        self._sinks.append(sink)

    def clear(self) -> None:
        self.records.clear()

    def filter(self, source: Optional[str] = None, kind: Optional[str] = None) -> Iterator[
        TraceRecord
    ]:
        """Iterate records matching the given source and/or kind."""
        for record in self.records:
            if source is not None and record.source != source:
                continue
            if kind is not None and record.kind != kind:
                continue
            yield record

    def count(self, source: Optional[str] = None, kind: Optional[str] = None) -> int:
        """Number of matching records."""
        return sum(1 for _ in self.filter(source, kind))


#: Shared no-op tracer for components constructed without one.
NULL_TRACER = Tracer(enabled=False)
