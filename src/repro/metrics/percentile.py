"""Percentile estimation: exact (numpy) and streaming (P-square).

Tail latency at p99.99 drives the paper's latency studies.  The exact path
keeps every sample (fine for per-run volumes here); the P² streaming
estimator is provided for long-running simulations where retaining every
sample would dominate memory — its accuracy is property-tested against the
exact computation.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from ..errors import ConfigError


def exact_percentile(samples: Sequence[float], q: float) -> float:
    """Exact percentile (linear interpolation); q in [0, 100]."""
    if not 0 <= q <= 100:
        raise ConfigError(f"percentile out of range: {q}")
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ConfigError("no samples")
    return float(np.percentile(arr, q))


class P2Quantile:
    """P-square single-quantile streaming estimator (Jain & Chlamtac 1985).

    Maintains five markers; O(1) per observation, no sample retention.
    """

    def __init__(self, q: float) -> None:
        if not 0 < q < 1:
            raise ConfigError("q must be in (0, 1)")
        self.q = q
        self._initial: List[float] = []
        self._n: List[int] = []
        self._np: List[float] = []
        self._dn: List[float] = []
        self._heights: List[float] = []
        self.count = 0

    def add(self, x: float) -> None:
        self.count += 1
        if len(self._initial) < 5:
            self._initial.append(float(x))
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._n = [0, 1, 2, 3, 4]
                q = self.q
                self._np = [0.0, 2 * q, 4 * q, 2 + 2 * q, 4.0]
                self._dn = [0.0, q / 2, q, (1 + q) / 2, 1.0]
            return

        h, n = self._heights, self._n
        # Locate cell and update extreme markers.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            for i in range(1, 5):
                if x < h[i]:
                    k = i - 1
                    break

        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            self._np[i] += self._dn[i]

        # Adjust interior markers with parabolic (fallback linear) moves.
        for i in range(1, 4):
            d = self._np[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (d <= -1 and n[i - 1] - n[i] < -1):
                sign = 1 if d >= 1 else -1
                candidate = self._parabolic(i, sign)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, sign)
                n[i] += sign

    def _parabolic(self, i: int, d: int) -> float:
        h, n = self._heights, self._n
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: int) -> float:
        h, n = self._heights, self._n
        return h[i] + d * (h[i + d] - h[i]) / (n[i + d] - n[i])

    @property
    def value(self) -> float:
        """Current quantile estimate."""
        if self.count == 0:
            raise ConfigError("no samples")
        if len(self._initial) < 5 or not self._heights:
            ordered = sorted(self._initial)
            idx = min(len(ordered) - 1, int(round(self.q * (len(ordered) - 1))))
            return ordered[idx]
        return self._heights[2]


class LatencyDistribution:
    """Collects latency samples; exact percentiles plus summary stats."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def add(self, sample: float) -> None:
        self._samples.append(sample)

    def extend(self, samples: Iterable[float]) -> None:
        self._samples.extend(samples)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def mean(self) -> float:
        if not self._samples:
            raise ConfigError("no samples")
        return float(np.mean(self._samples))

    def percentile(self, q: float) -> float:
        return exact_percentile(self._samples, q)

    def tail(self) -> float:
        """The paper's headline tail metric: p99.99."""
        return self.percentile(99.99)

    def max(self) -> float:
        if not self._samples:
            raise ConfigError("no samples")
        return float(np.max(self._samples))
