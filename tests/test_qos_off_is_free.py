"""The disabled QoS control plane costs nothing, checked exactly.

``qos_policy="static"`` with no SLOs must build no control plane: no
telemetry taps, no controller ticks, no token buckets.  The wall-time gate
in ``benchmarks/run_benchmarks.py`` (``bench_qos_overhead``) measures that
promise against a 2% ceiling, which host noise can swamp.  Here the same
"off" variant runs beside the plain config and must give the same heap
entries, the same metrics digest and the same number of calls during
``run()``, counts that repeat exactly on any machine; and no control-plane
module may run at all.
"""

import sys

from repro.cluster.scenario import Scenario, ScenarioConfig
from repro.qos import TenantSlo
from repro.workloads.mixes import tenants_for_ratio

#: The "off" variant of ``bench_qos_overhead``: the QoS fields at their
#: explicit defaults.
QOS_OFF = dict(qos_policy="static", qos_interval_us=200.0)

#: The only QoS module a run without a control plane reaches: every run
#: builds its (here empty) ``SloSet`` from the config.
ALWAYS_BUILT = {"repro.qos.slo"}


def _run(**qos_kwargs):
    """Run the bench's fig7-style cell under ``sys.setprofile``.

    Returns (heap entries, metrics digest, (Python calls, C calls), the
    ``repro.qos`` modules whose functions ran).
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

    sys.setprofile(profile)
    try:
        result = scenario.run()
    finally:
        sys.setprofile(None)
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
