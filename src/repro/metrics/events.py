"""Named event counters for fault and recovery accounting.

Chaos experiments need more than throughput/latency: availability claims
rest on *event* counts — how many faults fired, how many commands timed
out, retried, reconnected, or were reported failed.  :class:`EventCounter`
is a deliberately tiny sorted-snapshot counter so two same-seed runs can be
compared byte-for-byte (``encode()``), which is how the test-suite proves
fault schedules replay deterministically.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple


class EventCounter:
    """Monotonic named counters with a canonical byte encoding."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, n: int = 1) -> int:
        """Add ``n`` to counter ``name``; returns the new value."""
        value = self._counts.get(name, 0) + n
        self._counts[name] = value
        return value

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Counters as a name-sorted dict (stable across runs)."""
        return dict(sorted(self._counts.items()))

    def encode(self) -> bytes:
        """Canonical byte rendering: one ``name=value`` line per counter."""
        return "\n".join(f"{k}={v}" for k, v in sorted(self._counts.items())).encode()

    def clear(self) -> None:
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EventCounter {len(self._counts)} names>"
