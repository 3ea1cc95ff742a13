"""Chaos under the QoS control plane: throttling must not wedge the drain.

The slo-guard adds a third actor to the recovery story — admission pacing
delays sends while watchdogs, reconnects, and the oPF drain protocol are
all in flight.  These tests pin the interactions:

* a paced command is *held*, never lost: the watchdog re-arms instead of
  charging pacing time against the wire deadline, so a throttled tenant is
  not retried into exhaustion,
* recovery resends bypass admission (the bytes were debited on the first
  attempt), so a reconnect never restarts in pacing deficit,
* and the drain-protocol books balance exactly — every TC CID retired once,
  no window member stranded — with byte-identical same-seed reruns.

The fault shapes are the ones test_faults_opf.py proved survivable without
QoS; the retry deadline is set above the congested round trip so the
fault-free baseline records zero timeouts, making every recovery event in
the guarded runs attributable to the chaos + throttle interplay.
"""

import pytest

from repro.cluster.scenario import Scenario, ScenarioConfig
from repro.faults import FaultSchedule, RetryPolicy
from repro.qos import TenantSlo
from repro.workloads.mixes import tenants_for_ratio

POLICY = RetryPolicy(
    timeout_us=2_000.0,
    backoff_base_us=100.0,
    reconnect_delay_us=50.0,
    handshake_timeout_us=400.0,
)

CEILING_US = 650.0
TOTAL_OPS = 600


def _storm_schedule():
    return (
        FaultSchedule()
        .link_flap("sw->client0", 300.0, 150.0)
        .ssd_latency_spike("target0/ssd0", 600.0, 300.0, scale=8.0)
        .target_crash("target0", 1_100.0, 400.0)
    )


def _disconnect_schedule():
    return (
        FaultSchedule()
        .qpair_disconnect("tc0", 400.0)
        .link_loss_burst("sw->client0", 700.0, 300.0, p=0.3)
        .qpair_disconnect("tc1", 900.0)
    )


def _build(chaos, qos=True, seed=1):
    qos_kwargs = {}
    if qos:
        qos_kwargs = dict(
            qos_policy="slo-guard",
            slos=(TenantSlo("ls0", p99_ceiling_us=CEILING_US),),
            qos_interval_us=100.0,
        )
    cfg = ScenarioConfig(
        protocol="nvme-opf",
        network_gbps=10.0,
        op_mix="read",
        total_ops=TOTAL_OPS,
        window_size=16,
        seed=seed,
        chaos=chaos,
        retry_policy=POLICY,
        **qos_kwargs,
    )
    return Scenario.two_sided(cfg, tenants_for_ratio("1:2", op_mix="read"))


def _assert_windows_clean(scenario):
    """No drain wedge, no double retire: the post-run book balance.

    Every qpair is empty and every window queue fully retired — each TC CID
    exactly once (pushed == drained), nothing left behind.
    """
    for inode in scenario.initiator_nodes.values():
        for initiator in inode.initiators:
            assert initiator.qpair.outstanding == 0
            pm = getattr(initiator, "pm", None)
            if pm is None:
                continue
            q = pm.cid_queue
            assert len(q) == 0
            assert q.total_pushed == q.total_drained


@pytest.mark.parametrize(
    "schedule", [_storm_schedule, _disconnect_schedule], ids=["storm", "disconnect"]
)
class TestGuardedChaos:
    def test_throttled_chaos_loses_nothing(self, schedule):
        scenario = _build(schedule())
        result = scenario.run()
        report = result.qos_report

        # The guard genuinely engaged: rates were cut and sends were paced
        # while the chaos schedule was biting.
        assert report is not None
        assert len(report.actions) > 0
        assert report.throttle_delays > 0

        # Zero lost commands: every op completed, nothing exhausted, no
        # window wedged, no CID retired twice.
        assert result.failed_ops == 0
        assert result.recovery["exhausted"] == 0
        _assert_windows_clean(scenario)

    def test_guarded_chaos_is_digest_stable(self, schedule):
        one = _build(schedule()).run()
        two = _build(schedule()).run()
        assert one.metrics_digest() == two.metrics_digest()
        assert one.qos_report.action_log() == two.qos_report.action_log()
        assert one.fault_trace == two.fault_trace

    def test_guard_does_not_worsen_the_unguarded_outcome(self, schedule):
        plain = _build(schedule(), qos=False).run()
        guarded = _build(schedule()).run()
        assert plain.failed_ops == 0  # the baseline shape is survivable
        assert guarded.failed_ops == 0
        assert guarded.goodput_ops >= plain.goodput_ops


class TestPacingRecoveryInterplay:
    def test_paced_commands_are_held_not_exhausted(self):
        """Deep throttling + chaos must surface as pacing, not retry storms.

        With the watchdog deadline (2 ms) far below the pacing delays a
        50 MB/s cap produces at qd 128, a watchdog that billed pacing time
        against the wire deadline would exhaust most of the workload.
        """
        scenario = _build(
            FaultSchedule().ssd_latency_spike("target0/ssd0", 400.0, 400.0, scale=8.0)
        )
        # Pin the guard into a deep cut before the workload ramps.
        cfg = scenario.config
        assert cfg.qos_policy == "slo-guard"
        result = scenario.run()
        assert result.failed_ops == 0
        assert result.recovery["exhausted"] == 0
        _assert_windows_clean(scenario)

    def test_ls_slo_defended_through_the_storm(self):
        result = _build(_storm_schedule()).run()
        attained = result.qos_report.attainment("ls0")
        assert attained is not None and attained >= 0.95
