"""Trace-driven workload replay.

Production storage studies replay captured block traces.  This module
replays a list of :class:`TraceRecordEntry` **open-loop** (requests are
issued at their recorded timestamps, regardless of completions — the
standard method for measuring how a system copes with a fixed offered
load, as opposed to the closed-loop perf generator).
:func:`synthesize_trace` generates the Poisson-arrival traces it replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..core.flags import Priority
from ..errors import WorkloadError
from ..ssd.latency import OP_READ, OP_WRITE, VALID_OPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nvmeof.initiator import NvmeOfInitiator
    from ..nvmeof.qpair import IoRequest
    from ..simcore.engine import Environment


@dataclass(frozen=True)
class TraceRecordEntry:
    """One request of a trace."""

    time_us: float
    op: str
    slba: int
    nlb: int
    priority: Priority = Priority.THROUGHPUT

    def __post_init__(self) -> None:
        if self.time_us < 0:
            raise WorkloadError("negative trace timestamp")
        if self.op not in VALID_OPS:
            raise WorkloadError(f"unknown op {self.op!r} in trace")
        if self.nlb < 1 or self.slba < 0:
            raise WorkloadError("invalid LBA range in trace")


def synthesize_trace(
    rng: np.random.Generator,
    duration_us: float,
    iops: float,
    read_fraction: float = 0.7,
    latency_fraction: float = 0.1,
    namespace_blocks: int = 1 << 20,
    nlb: int = 1,
) -> List[TraceRecordEntry]:
    """Generate a Poisson-arrival trace with a mixed op/priority profile."""
    if duration_us <= 0 or iops <= 0:
        raise WorkloadError("duration and iops must be positive")
    if not (0 <= read_fraction <= 1 and 0 <= latency_fraction <= 1):
        raise WorkloadError("fractions must lie in [0, 1]")
    entries: List[TraceRecordEntry] = []
    t = 0.0
    mean_gap = 1e6 / iops
    while True:
        t += float(rng.exponential(mean_gap))
        if t >= duration_us:
            break
        entries.append(
            TraceRecordEntry(
                time_us=t,
                op=OP_READ if rng.random() < read_fraction else OP_WRITE,
                slba=int(rng.integers(0, namespace_blocks - nlb + 1)),
                nlb=nlb,
                priority=(
                    Priority.LATENCY if rng.random() < latency_fraction
                    else Priority.THROUGHPUT
                ),
            )
        )
    if not entries:
        raise WorkloadError("trace parameters produced no requests")
    return entries


class TraceReplayer:
    """Replays a trace open-loop against one initiator."""

    def __init__(
        self,
        env: "Environment",
        initiator: "NvmeOfInitiator",
        trace: List[TraceRecordEntry],
        nsid: int = 1,
    ) -> None:
        if not trace:
            raise WorkloadError("empty trace")
        self.env = env
        self.initiator = initiator
        self.trace = trace
        self.nsid = nsid
        self.issued = 0
        self.dropped = 0  # offered load exceeding the queue depth
        self.requests: List["IoRequest"] = []
        self.process = env.process(self._run(), name="trace-replay")

    @property
    def done(self):
        return self.process

    def _run(self):
        env = self.env
        start = env.now
        for entry in self.trace:
            delay = start + entry.time_us - env.now
            if delay > 0:
                yield env.timeout(delay)
            if not self.initiator.qpair.has_capacity:
                # Open-loop semantics: an overloaded queue rejects (the
                # real initiator would return EAGAIN to the application).
                self.dropped += 1
                continue
            request = self.initiator.submit(
                entry.op, slba=entry.slba, nlb=entry.nlb,
                nsid=self.nsid, priority=entry.priority,
            )
            self.requests.append(request)
            self.issued += 1
        # Flush any coalescing tail and wait for in-flight requests.
        from ..core.initiator import OpfInitiator

        if isinstance(self.initiator, OpfInitiator):
            self.initiator.drain()
        for request in self.requests:
            if not request.done:
                yield request.completion_event(env)
        return self.issued

    # -- results ---------------------------------------------------------------
    def latencies(self, priority: Optional[Priority] = None) -> List[float]:
        return [
            r.latency for r in self.requests
            if r.done and (priority is None or r.priority is priority)
        ]
