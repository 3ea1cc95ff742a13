"""A deterministic cost budget: what one small fig7 cell costs the simulator.

Wall time on a shared host cannot resolve a 5-10% change, but these counts
repeat exactly, so a change that moves them has to re-pin them here and say
why (with the old and new values) in CHANGES.md.

* Heap entries -- the engine's sequence counter after the run -- and
  goodput ops depend only on the model, so they are checked everywhere.
* Python calls per op in the packet path (``repro.net.*``) and in the PDU
  transport (``repro.nvmeof.transport``) are counted with ``sys.setprofile``:
  a Python function call counts in the callee's module, a call into C (a
  builtin, ``heapq``, ``bisect``) in its caller's.  CPython minor versions
  differ in which library functions are Python frames, so these pins are
  checked only on the version they were recorded on.

``layerbench/run.py --trace 1`` gives the same split per layer for the
benchmark's workloads (under cProfile, which also counts C calls).
"""

import sys
from collections import Counter

import pytest

from tests.conftest import build_fig7_cell

#: Python minor version the call counts below were recorded on.
CALLS_RECORDED_ON = (3, 11)

#: protocol -> (heap entries, goodput ops, repro.net calls, transport calls)
#: for ``build_fig7_cell(protocol=...)`` (1 LS + 2 TC tenants, read, 10 Gbps,
#: 200 ops per TC tenant, seed 1).
BUDGET = {
    "nvme-opf": (4395, 406, 18584, 858),
    "spdk": (5804, 403, 26997, 1227),
}

_PACKET_PATH = "repro.net"
_TRANSPORT = "repro.nvmeof.transport"


def _run_counting_calls(protocol):
    scenario = build_fig7_cell(protocol=protocol)
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call" or event == "c_call":
            calls[frame.f_globals.get("__name__", "")] += 1

    sys.setprofile(profile)
    try:
        result = scenario.run()
    finally:
        sys.setprofile(None)
    net = sum(n for module, n in calls.items() if module.startswith(_PACKET_PATH + "."))
    return scenario.env._seq, result.goodput_ops, net, calls[_TRANSPORT]


@pytest.mark.parametrize("protocol", sorted(BUDGET))
def test_fig7_cell_cost_budget(protocol):
    entries, ops, net_calls, transport_calls = _run_counting_calls(protocol)
    want_entries, want_ops, want_net, want_transport = BUDGET[protocol]
    assert (entries, ops) == (want_entries, want_ops)
    if sys.version_info[:2] != CALLS_RECORDED_ON:
        pytest.skip(
            f"call counts were recorded on Python {CALLS_RECORDED_ON[0]}.{CALLS_RECORDED_ON[1]}; "
            f"this is {sys.version_info[0]}.{sys.version_info[1]}, whose library "
            "functions may differ in which are Python frames"
        )
    got = (round(net_calls / ops, 3), round(transport_calls / ops, 3))
    pinned = (round(want_net / want_ops, 3), round(want_transport / want_ops, 3))
    assert (net_calls, transport_calls) == (want_net, want_transport), (
        f"calls per op (repro.net, transport) moved from {pinned} to {got}"
    )
