"""Per-run measurement collection.

A :class:`Collector` receives every completed request from every initiator
and aggregates throughput/latency per initiator and per priority class.
Records are retained and filtered lazily against the measurement window
(``start_measuring``/``stop_measuring``), so a window chosen badly (e.g. a
warmup longer than the whole run) can be repaired after the fact with
:meth:`ensure_window` instead of silently producing nonsense rates.

Each initiator's records are kept in two flat arrays that hold no Python
objects, so the garbage collector never tracks or scans them: an
``array('d')`` of ``(completed_at, latency)`` pairs and an ``array('q')``
of ``(nbytes, op, status)`` triples, record *i* at ``[2i:2i+2]`` and
``[3i:3i+3]``.  That is 40 bytes per completed request.  Every query
reads the records in the order they were recorded, so each sum,
percentile and digest sees the same floats in the same order as a list of
record objects would give it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..core.flags import Priority
from ..errors import ProtocolError
from ..units import iops_from, mbps_from
from .events import EventCounter
from .percentile import LatencyDistribution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nvmeof.qpair import IoRequest
    from ..simcore.engine import Environment

#: Codes of the op column (any other op is stored as 0).
_READ = 1
_WRITE = 2


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
        #: initiator name -> (float column, int column); see the module doc.
        self._records: Dict[str, Tuple[array, array]] = {}
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
        start, end = self._measure_from, self._measure_until
        for times, _ints in self._records.values():
            for at in times[::2]:
                if not (at < start or (end is not None and at > end)):
                    return False
        self._measure_from = fallback_start
        return True

    def elapsed_us(self) -> float:
        """Length of the measurement window so far."""
        end = self._measure_until if self._measure_until is not None else self.env.now
        return max(0.0, end - self._measure_from)

    # -- recording ------------------------------------------------------------------
    def record(self, initiator_name: str, request: "IoRequest") -> None:
        """Record one completed request (called by the initiator runtime)."""
        self.total_recorded += 1
        columns = self._records.get(initiator_name)
        if columns is None:
            # First record from this initiator: register its columns and
            # pin its priority (record() is the only writer of either dict).
            columns = self._records[initiator_name] = (array("d"), array("q"))
            self._priorities.setdefault(initiator_name, request.priority)
        completed_at = request.completed_at
        if completed_at is None:
            raise ProtocolError(f"request cid={request.cid} not yet complete")
        op = request.op
        columns[0].extend((completed_at, completed_at - request.submitted_at))  # IoRequest.latency
        columns[1].extend(
            (
                request.nbytes,
                _READ if op == "read" else _WRITE if op == "write" else 0,
                request.status or 0,
            )
        )

    # -- queries -----------------------------------------------------------------------
    def summary(self, initiator_name: str) -> InitiatorSummary:
        summary = InitiatorSummary(
            name=initiator_name, priority=self._priorities.get(initiator_name)
        )
        columns = self._records.get(initiator_name)
        if columns is None:
            return summary
        times, ints = columns
        start, end = self._measure_from, self._measure_until
        for at, latency, nbytes, op, status in zip(
            times[::2], times[1::2], ints[::3], ints[1::3], ints[2::3]
        ):
            # The window test, inlined: this loop visits every record of a run.
            if at < start or (end is not None and at > end):
                continue
            summary.requests += 1
            summary.bytes_moved += nbytes
            if op == _READ:
                summary.reads += 1
            elif op == _WRITE:
                summary.writes += 1
            if status != 0:
                summary.failed += 1
            summary.latency.add(latency)
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
        start, end = self._measure_from, self._measure_until
        for name in sorted(self._records):  # canonical order; see summaries()
            if priority is not None and self._priorities.get(name) is not priority:
                continue
            times = self._records[name][0]
            pooled.extend(
                latency
                for at, latency in zip(times[::2], times[1::2])
                if not (at < start or (end is not None and at > end))
            )
        return pooled
