"""The disabled QoS control plane costs nothing, checked exactly.

``qos_policy="static"`` with no SLOs must build no control plane: no
telemetry taps, no controller ticks, no token buckets.  A wall-time gate
cannot see that promise through host noise, so this is its only check:
the "off" variant runs beside the plain config and must give the same heap
entries, the same metrics digest and the same number of calls during
``run()``, counts that repeat exactly on any machine; and no control-plane
module may run at all.

The garbage collector is off during each measured ``run()``: a collection
there would run weakref callbacks that earlier code left behind, and count
their calls.
"""

import gc
import sys
import weakref

from repro.cluster.scenario import Scenario, ScenarioConfig
from repro.qos import TenantSlo
from repro.workloads.mixes import tenants_for_ratio

#: The "off" variant: the QoS fields at their explicit defaults.
QOS_OFF = dict(qos_policy="static", qos_interval_us=200.0)

#: The only QoS module a run without a control plane reaches: every run
#: builds its (here empty) ``SloSet`` from the config.
ALWAYS_BUILT = {"repro.qos.slo"}


class _Cycle:
    """A self-referencing object only the cyclic collector frees."""

    def __init__(self):
        self.me = self


def _collected(_ref):
    pass


def _leave_garbage(n):
    """Drop ``n`` cycles whose weakref callbacks run when they are collected."""
    return [weakref.ref(_Cycle(), _collected) for _ in range(n)]


def _run(garbage=0, **qos_kwargs):
    """Run a fig7-style cell under ``sys.setprofile``.

    ``garbage`` cycles with weakref callbacks are left just before the
    measured run.  Returns (heap entries, metrics digest, (Python calls,
    C calls), the ``repro.qos`` modules whose functions ran).
    """
    cfg = ScenarioConfig(
        protocol="nvme-opf",
        network_gbps=10.0,
        op_mix="read",
        total_ops=200,
        window_size=16,
        seed=1,
        **qos_kwargs,
    )
    scenario = Scenario.two_sided(cfg, tenants_for_ratio("1:2", op_mix="read"))
    calls = {"call": 0, "c_call": 0}
    qos_modules = set()

    def profile(frame, event, _arg):
        if event in calls:
            calls[event] += 1
            if event == "call":
                module = frame.f_globals.get("__name__", "")
                if module.startswith("repro.qos"):
                    qos_modules.add(module)

    refs = _leave_garbage(garbage)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = scenario.run()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    del refs  # kept alive until here, or their callbacks would never run
    counts = (calls["call"], calls["c_call"])
    return scenario.env._seq, result.metrics_digest(), counts, qos_modules


def test_static_qos_without_slos_costs_nothing():
    # The first run in a process pays one-time costs (imports, caches) that
    # a later run does not; warm up so both measured runs start alike.
    _run()
    base = _run()
    off = _run(**QOS_OFF)
    assert off[0] == base[0]  # heap entries
    assert off[1] == base[1]  # metrics digest
    assert off[2] == base[2]  # Python and C calls during run()
    assert off[3] <= ALWAYS_BUILT
    # The probe sees a control plane when one is built.
    monitored = _run(slos=(TenantSlo("ls0", p99_ceiling_us=50_000.0),))
    assert "repro.qos.telemetry" in monitored[3]
    assert monitored[2] != base[2]


def test_garbage_left_before_the_run_does_not_move_the_count():
    _run()
    base = _run()
    assert _run(garbage=2_000)[2] == base[2]
