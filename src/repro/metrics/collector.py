"""Per-run measurement collection.

A :class:`Collector` receives every completed request from every initiator
and aggregates throughput/latency per initiator and per priority class.
Records are retained and filtered lazily against the measurement window
(``start_measuring``/``stop_measuring``), so a window chosen badly (e.g. a
warmup longer than the whole run) can be repaired after the fact with
:meth:`ensure_window` instead of silently producing nonsense rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.flags import Priority
from ..errors import ProtocolError
from ..units import iops_from, mbps_from
from .events import EventCounter
from .percentile import LatencyDistribution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nvmeof.qpair import IoRequest
    from ..simcore.engine import Environment


class _Record:
    """One completed request, reduced to what aggregation needs."""

    __slots__ = ("completed_at", "latency", "nbytes", "op", "status")

    def __init__(self, completed_at: float, latency: float, nbytes: int, op: str, status: int) -> None:
        self.completed_at = completed_at
        self.latency = latency
        self.nbytes = nbytes
        self.op = op
        self.status = status


@dataclass
class InitiatorSummary:
    """Aggregates for one initiator over the measurement window."""

    name: str
    priority: Optional[Priority] = None
    requests: int = 0
    bytes_moved: int = 0
    reads: int = 0
    writes: int = 0
    failed: int = 0
    latency: LatencyDistribution = field(default_factory=LatencyDistribution)

    def throughput_mbps(self, elapsed_us: float) -> float:
        return mbps_from(self.bytes_moved, elapsed_us)

    def iops(self, elapsed_us: float) -> float:
        return iops_from(self.requests, elapsed_us)


class Collector:
    """Run-wide measurement sink with a lazily applied window."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._records: Dict[str, List[_Record]] = {}
        self._priorities: Dict[str, Priority] = {}
        self._measure_from: float = 0.0
        self._measure_until: Optional[float] = None
        self.total_recorded = 0
        #: Fault/recovery event counters (shared with the injector and the
        #: initiator recovery path); not windowed — chaos accounting wants
        #: the whole run, warmup included.
        self.events = EventCounter()

    # -- measurement window ------------------------------------------------------
    def start_measuring(self) -> None:
        """Exclude everything completed before now (warmup boundary)."""
        self._measure_from = self.env.now

    def stop_measuring(self) -> None:
        self._measure_until = self.env.now

    def set_window(self, start: float, end: Optional[float]) -> None:
        """Set the measurement window explicitly (post-hoc repair allowed)."""
        self._measure_from = start
        self._measure_until = end

    def ensure_window(self, fallback_start: float = 0.0) -> bool:
        """If the current window contains no records, widen it.

        Returns True when the window had to be repaired — e.g. a warmup
        boundary that landed after the workload already finished.
        """
        if any(
            self._in_window(r) for records in self._records.values() for r in records
        ):
            return False
        self._measure_from = fallback_start
        return True

    def elapsed_us(self) -> float:
        """Length of the measurement window so far."""
        end = self._measure_until if self._measure_until is not None else self.env.now
        return max(0.0, end - self._measure_from)

    def _in_window(self, record: _Record) -> bool:
        if record.completed_at < self._measure_from:
            return False
        if self._measure_until is not None and record.completed_at > self._measure_until:
            return False
        return True

    # -- recording ------------------------------------------------------------------
    def record(self, initiator_name: str, request: "IoRequest") -> None:
        """Record one completed request (called by the initiator runtime)."""
        self.total_recorded += 1
        records = self._records.get(initiator_name)
        if records is None:
            # First record from this initiator: register its list and pin
            # its priority (record() is the only writer of either dict).
            records = self._records[initiator_name] = []
            self._priorities.setdefault(initiator_name, request.priority)
        completed_at = request.completed_at
        if completed_at is None:
            raise ProtocolError(f"request cid={request.cid} not yet complete")
        records.append(
            _Record(
                completed_at,
                completed_at - request.submitted_at,  # IoRequest.latency
                request.nbytes,
                request.op,
                request.status or 0,
            )
        )

    # -- queries -----------------------------------------------------------------------
    def summary(self, initiator_name: str) -> InitiatorSummary:
        summary = InitiatorSummary(
            name=initiator_name, priority=self._priorities.get(initiator_name)
        )
        start, end = self._measure_from, self._measure_until
        for record in self._records.get(initiator_name, []):
            # _in_window, inlined: this loop visits every record of a run.
            at = record.completed_at
            if at < start or (end is not None and at > end):
                continue
            summary.requests += 1
            summary.bytes_moved += record.nbytes
            if record.op == "read":
                summary.reads += 1
            elif record.op == "write":
                summary.writes += 1
            if record.status != 0:
                summary.failed += 1
            summary.latency.add(record.latency)
        return summary

    def summaries(self) -> Dict[str, InitiatorSummary]:
        # Canonical (name-sorted) iteration: every cross-initiator float
        # reduction downstream follows this order, and the pinned fuzz-corpus
        # digests were recorded with it, so changing it would move their
        # last-digit floats and re-pin the corpus.
        out = {}
        for name in sorted(self._records):
            summary = self.summary(name)
            if summary.requests:
                out[name] = summary
        return out

    def aggregate_throughput_mbps(self, priority: Optional[Priority] = None) -> float:
        """Sum of throughput across initiators (optionally one class)."""
        elapsed = self.elapsed_us()
        total = 0.0
        for s in self.summaries().values():
            if priority is None or s.priority is priority:
                total += s.throughput_mbps(elapsed)
        return total

    def aggregate_iops(self, priority: Optional[Priority] = None) -> float:
        elapsed = self.elapsed_us()
        total = 0.0
        for s in self.summaries().values():
            if priority is None or s.priority is priority:
                total += s.iops(elapsed)
        return total

    def combined_latency(self, priority: Optional[Priority] = None) -> LatencyDistribution:
        """Pooled latency distribution across matching initiators."""
        pooled = LatencyDistribution()
        for name in sorted(self._records):  # canonical order; see summaries()
            if priority is not None and self._priorities.get(name) is not priority:
                continue
            pooled.extend(
                r.latency for r in self._records[name] if self._in_window(r)
            )
        return pooled
