"""A deterministic cost budget: what one small fig7 cell costs the simulator.

Wall time on a shared host cannot resolve a 5-10% change, but these counts
repeat exactly, so a change that moves them has to re-pin them here and say
why (with the old and new values) in CHANGES.md.

* Heap entries -- the engine's sequence counter after the run -- and
  goodput ops depend only on the model, so they are checked everywhere.
  So are the heap entries per layer: every entry the engine dispatches is
  charged to the layer (``repro`` package, ``net`` split by module) of the
  callback it runs.  A batch entry counts once per item, and entries still
  queued when the run ends are counted apart, so the layers plus the queue
  add up to the sequence counter.
* Python calls per op are counted with ``sys.setprofile``: a Python
  function call counts in the callee's module, a call into C (a builtin,
  ``heapq``, ``bisect``) in its caller's.  The packet path
  (``repro.net.*``) and the PDU transport (``repro.nvmeof.transport``) are
  pinned, and so is the command path: ``repro.nvmeof`` (the transport
  included), ``repro.ssd``, ``repro.cpu`` and the oPF core,
  ``repro.core``.  CPython minor versions differ in which library
  functions are Python frames, so the call pins are checked only on the
  version they were recorded on.

``layerbench/run.py --trace 1`` gives the same split per layer for the
benchmark's workloads (under cProfile, which also counts C calls).
"""

import functools
import sys
from collections import Counter

import pytest

from repro.simcore.engine import Environment
from tests.conftest import build_fig7_cell

#: Python minor version the call counts below were recorded on.
CALLS_RECORDED_ON = (3, 11)

#: protocol -> (heap entries, goodput ops, repro.net calls, transport calls)
#: for ``build_fig7_cell(protocol=...)`` (1 LS + 2 TC tenants, read, 10 Gbps,
#: 200 ops per TC tenant, seed 1).
BUDGET = {
    "nvme-opf": (4395, 406, 17013, 858),
    "spdk": (5804, 403, 25036, 1227),
}

#: protocol -> heap entries dispatched per layer, and entries still queued
#: when the run ends.
ENTRIES_BY_LAYER = {
    "nvme-opf": (
        {"core": 884, "net.link": 2556, "net.tcp": 120, "nvmeof": 420, "simcore": 11, "ssd": 404},
        0,
    ),
    "spdk": (
        {"net.link": 3658, "net.tcp": 114, "nvmeof": 1618, "simcore": 11, "ssd": 403},
        0,
    ),
}

#: protocol -> Python calls in (repro.nvmeof, repro.ssd, repro.cpu, repro.core).
COMMAND_PATH = ("repro.nvmeof", "repro.ssd", "repro.cpu", "repro.core")
COMMAND_PATH_CALLS = {
    "nvme-opf": (8439, 5090, 3046, 7530),
    "spdk": (12578, 6150, 3647, 9),
}

_PACKET_PATH = "repro.net"
_TRANSPORT = "repro.nvmeof.transport"
_DISPATCHERS = (Environment.advance.__code__, Environment._dispatch_batch.__code__)
_BATCH = Environment._dispatch_batch.__code__


def _layer(module):
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "net" and len(parts) > 2:
        return "net." + parts[2]
    return parts[1]


def _in(module, package):
    return module == package or module.startswith(package + ".")


@functools.lru_cache(maxsize=None)
def _measure(protocol):
    """Run the cell once under ``sys.setprofile``; returns its counts."""
    scenario = build_fig7_cell(protocol=protocol)
    calls = Counter()
    entries = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            calls[module] += 1
            back = frame.f_back
            if back is not None and back.f_code in _DISPATCHERS and frame.f_code is not _BATCH:
                entries[_layer(module)] += 1
        elif event == "c_call":
            calls[frame.f_globals.get("__name__", "")] += 1

    sys.setprofile(profile)
    try:
        result = scenario.run()
    finally:
        sys.setprofile(None)
    env = scenario.env
    queued = sum(
        len(entry[4][1]) if entry[3] == env._dispatch_batch else 1 for entry in env._queue
    )
    return env._seq, result.goodput_ops, calls, dict(entries), queued


def _skip_unless_recorded_version():
    if sys.version_info[:2] != CALLS_RECORDED_ON:
        pytest.skip(
            f"call counts were recorded on Python {CALLS_RECORDED_ON[0]}.{CALLS_RECORDED_ON[1]}; "
            f"this is {sys.version_info[0]}.{sys.version_info[1]}, whose library "
            "functions may differ in which are Python frames"
        )


@pytest.mark.parametrize("protocol", sorted(BUDGET))
def test_fig7_cell_cost_budget(protocol):
    entries, ops, calls, _layers, _queued = _measure(protocol)
    want_entries, want_ops, want_net, want_transport = BUDGET[protocol]
    assert (entries, ops) == (want_entries, want_ops)
    _skip_unless_recorded_version()
    net_calls = sum(n for module, n in calls.items() if module.startswith(_PACKET_PATH + "."))
    transport_calls = calls[_TRANSPORT]
    got = (round(net_calls / ops, 3), round(transport_calls / ops, 3))
    pinned = (round(want_net / want_ops, 3), round(want_transport / want_ops, 3))
    assert (net_calls, transport_calls) == (want_net, want_transport), (
        f"calls per op (repro.net, transport) moved from {pinned} to {got}"
    )


@pytest.mark.parametrize("protocol", sorted(ENTRIES_BY_LAYER))
def test_fig7_cell_entries_per_layer(protocol):
    entries, _ops, _calls, layers, queued = _measure(protocol)
    assert sum(layers.values()) + queued == entries
    assert (layers, queued) == ENTRIES_BY_LAYER[protocol]


@pytest.mark.parametrize("protocol", sorted(COMMAND_PATH_CALLS))
def test_fig7_cell_command_path_calls(protocol):
    _entries, ops, calls, _layers, _queued = _measure(protocol)
    _skip_unless_recorded_version()
    got = tuple(
        sum(n for module, n in calls.items() if _in(module, package)) for package in COMMAND_PATH
    )
    want = COMMAND_PATH_CALLS[protocol]
    assert got == want, (
        f"calls per op {COMMAND_PATH} moved from "
        f"{tuple(round(n / ops, 3) for n in want)} to {tuple(round(n / ops, 3) for n in got)}"
    )
