"""Deterministic random-number streams.

Every stochastic component of the simulator (SSD service times, workload
inter-arrivals, ...) draws from its own named stream derived from one master
seed.  This keeps runs reproducible *and* insulated: adding a new random
draw in one subsystem does not perturb the sequences seen by another, so
A/B comparisons (SPDK vs NVMe-oPF) use identical device/workload randomness.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List

import numpy as np


class RandomStreams:
    """Factory of named, independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed by hashing the stream name; stable across
            # processes and Python versions (unlike built-in hash()).
            child = zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF
            gen = np.random.default_rng(np.random.SeedSequence([self.seed, child]))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "ScopedStreams":
        """A view whose streams are all prefixed by ``name``.

        ``streams.spawn("ssd0").stream("read")`` is the same generator as
        ``streams.stream("ssd0/read")``.
        """
        return ScopedStreams(self, name)


class ScopedStreams(RandomStreams):
    """A prefixing view over a parent :class:`RandomStreams`."""

    def __init__(self, parent: RandomStreams, prefix: str) -> None:
        self.seed = parent.seed
        self._parent = parent
        self._prefix = prefix
        self._streams = parent._streams  # shared cache, keys are full names

    def stream(self, name: str) -> np.random.Generator:
        return self._parent.stream(f"{self._prefix}/{name}")

    def spawn(self, name: str) -> "ScopedStreams":
        return ScopedStreams(self._parent, f"{self._prefix}/{name}")


class NormalBuffer:
    """Array-prefetching draw buffer, stream-compatible with scalar draws.

    Wraps a :class:`numpy.random.Generator` and serves scalar lognormal
    draws out of a prefetched array of standard normals: one
    ``standard_normal(batch)`` array call replaces ``batch`` scalar RNG
    calls, which is where the per-command draw cost on the SSD controller
    hot path goes.

    **Bit-identity contract** (pinned by ``tests/test_ssd_array_rng.py``):
    the *i*-th value returned by :meth:`lognormal` equals the *i*-th value
    ``rng.lognormal(mean, sigma)`` would have returned from a fresh
    generator with the same seed.  This holds because

    * ``Generator.standard_normal(n)`` produces exactly the same ``n``
      doubles as ``n`` scalar ``standard_normal()`` calls (the ziggurat
      fill is sequential), and
    * numpy computes a scalar lognormal as ``exp(loc + scale * z)`` in
      C doubles with libm ``exp`` — the same operation, on the same IEEE
      doubles, as :func:`math.exp` here.  (``np.exp`` on an *array* is
      NOT bit-identical — its SIMD path rounds differently — which is why
      the buffer stores raw normals and exponentiates per draw.)

    The wrapped generator's *state* advances a whole batch at a time, so
    the stream must be exclusive to this consumer (the controller owns
    ``ssd/<name>``; the FTL draws from a separate ``ssd/<name>/ftl``
    stream).  Mixing buffered and direct draws on one stream would
    interleave wrongly.
    """

    __slots__ = ("_rng", "_batch", "_buf", "_pos", "_n")

    def __init__(self, rng: np.random.Generator, batch: int = 256) -> None:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self._rng = rng
        self._batch = int(batch)
        self._buf: List[float] = []
        self._pos = 0
        self._n = 0

    def standard_normal(self) -> float:
        """Next standard normal from the buffer (refilling by one array draw)."""
        pos = self._pos
        if pos >= self._n:
            # tolist() converts the whole array to Python floats in C once,
            # so the per-draw path below is pure-Python arithmetic.
            self._buf = self._rng.standard_normal(self._batch).tolist()
            self._n = self._batch
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        """Scalar-compatible ``Generator.lognormal(mean, sigma)`` over the
        buffer: one buffered draw per call."""
        return math.exp(mean + sigma * self.standard_normal())
