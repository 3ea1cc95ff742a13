"""Attribute a cProfile run to the simulator's layers.

A layer is a package of ``src/repro``; ``net`` is split by module because
it is the largest one.  Three numbers come out per layer:

* self time — cProfile ``tottime`` of the layer's functions.  Builtins and
  other non-``repro`` code (stdlib, numpy, dataclass-generated methods) run
  on behalf of whoever called them, so their time goes to the direct
  caller's layer; when that caller is non-``repro`` code too, to its
  callers', split by call count.
* calls — function calls made in the layer, charged the same way.
* heap entries — call edges from the engine's dispatch loops to the
  callback each entry runs, by the callback's layer.  Entries that carry an
  ``Event`` dispatch to the engine's own ``_process_event`` and so belong to
  ``simcore``.  All of them together are every entry the engine ran.

Time spent in the benchmark's own files is the harness: it is left out of
the shares, so the layer shares sum to 1.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Dict, Optional, Tuple

import repro

LAYERS = (
    "simcore",
    "net.link",
    "net.switch",
    "net.nic",
    "net.tcp",
    "net.other",
    "nvmeof",
    "core",
    "ssd",
    "cpu",
    "metrics",
    "workloads",
    "qos",
    "faults",
    "scenarios",
    "service",
    "cluster",
    "other",
)
_NET_SPLIT = ("link", "switch", "nic", "tcp")
HARNESS = "harness"

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_ENGINE = os.path.join(_REPRO_DIR, "simcore", "engine.py")
#: Engine functions whose calls into a callback are heap-entry dispatches.
_DISPATCHERS = ("run", "advance", "step", "_dispatch_batch")

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer owning code in ``filename``; None for non-``repro`` code."""
    if filename.startswith(_BENCH_DIR):
        return HARNESS
    if not filename.startswith(_REPRO_DIR):
        return None
    parts = filename[len(_REPRO_DIR):].split(os.sep)
    if len(parts) == 1:  # repro/config.py, errors.py, units.py, ...
        return "other"
    package = parts[0]
    if package == "net":
        module = parts[1][: -len(".py")]
        return f"net.{module}" if module in _NET_SPLIT else "net.other"
    return package if package in LAYERS else "other"


def _is_entry_edge(caller: Func, callee: Func) -> bool:
    """Whether ``caller -> callee`` is the engine dispatching a heap entry."""
    if caller[0] != _ENGINE or caller[2] not in _DISPATCHERS:
        return False
    if callee[0] == "~":  # loop machinery: heappop, len, list.append
        return False
    if callee[0] == _ENGINE and callee[2] == "_dispatch_batch":
        return False  # a batch entry; its items are counted one by one
    # run(until=<time>) builds its stop Event in the loop's own frame.
    return callee[2] != "__init__"


class _Owners:
    """Layer weights of each function, for charging non-``repro`` code."""

    def __init__(self, stats: Dict[Func, tuple]) -> None:
        self.stats = stats
        self.memo: Dict[Func, Dict[str, float]] = {}
        self.active: set = set()

    def of(self, func: Func) -> Dict[str, float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in self.memo:
            return self.memo[func]
        self.active.add(func)
        mix: Dict[str, float] = defaultdict(float)
        total = 0
        # Callers still being resolved form a recursion through non-repro
        # frames (copy.deepcopy and friends): skip them and let the other
        # callers decide.
        entry = self.stats.get(func)
        for caller, edge in (entry[4] if entry else {}).items():
            if caller in self.active:
                continue
            total += edge[1]
            for layer, weight in self.of(caller).items():
                mix[layer] += weight * edge[1]
        self.active.discard(func)
        owners = {k: v / total for k, v in mix.items()} if total else {HARNESS: 1.0}
        self.memo[func] = owners
        return owners


def attribute(stats: Dict[Func, tuple]) -> Dict[str, Dict[str, float]]:
    """Self seconds, calls and heap entries per layer (plus the harness).

    ``stats`` is ``pstats.Stats(profile).stats``: function -> ``(cc, nc,
    tt, ct, callers)`` with ``callers`` mapping each caller to that edge's
    ``(cc, nc, tt, ct)``.
    """
    owners = _Owners(stats)
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    entries: Dict[str, int] = defaultdict(int)
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            seconds[layer] += tt
            calls[layer] += nc
            for caller, edge in callers.items():
                if _is_entry_edge(caller, func):
                    entries[layer] += edge[1]
            continue
        for caller, edge in callers.items():
            for owner, weight in owners.of(caller).items():
                seconds[owner] += weight * edge[2]
                calls[owner] += weight * edge[1]
        if not callers:  # a root frame: the profiler's own bookkeeping
            seconds[HARNESS] += tt
            calls[HARNESS] += nc
    return {"seconds": seconds, "calls": calls, "entries": entries}


def layer_metrics(profile, ops: int) -> Dict[str, float]:
    """The per-layer metrics of one traced run that completed ``ops`` ops.

    ``simcore.entries_per_op`` is the engine's total heap entries per op;
    the other layers' ``entries_per_op`` plus ``simcore.event_entries_per_op``
    add up to it.
    """
    totals = attribute(pstats.Stats(profile).stats)
    seconds, calls, entries = totals["seconds"], totals["calls"], totals["entries"]
    layer_seconds = sum(seconds[layer] for layer in LAYERS)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = seconds[layer] / layer_seconds
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
        if layer != "simcore":
            metrics[f"{layer}.entries_per_op"] = entries[layer] / ops
    metrics["simcore.event_entries_per_op"] = entries["simcore"] / ops
    metrics["simcore.entries_per_op"] = sum(entries.values()) / ops
    return metrics
