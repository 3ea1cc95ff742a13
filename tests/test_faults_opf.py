"""Chaos under NVMe-oPF: the fault matrix of test_faults.py, window-coalesced.

Before the drain protocol was hardened, ``protocol="nvme-opf"`` could not
survive a fault schedule at all: a retried window member double-registered
its CID (``ProtocolError: CID already queued``), a lost coalesced response
wedged the window forever, and a replayed one double-retired it.  These
tests pin the lifted restriction: the full chaos storm, the qpair
disconnect + loss-burst schedule, and each single fault kind all complete
with zero lost commands, clean windows, byte-identical same-seed reruns,
and tenant fairness within tolerance of the calm run.
"""

import pytest

from repro.faults import FaultSchedule, RetryPolicy
from repro.parallel import FAULT_MATRIX, FAULT_MATRIX_POLICY
from tests.conftest import build_fig7_cell

POLICY = RetryPolicy(**FAULT_MATRIX_POLICY)


def _storm_schedule():
    """The test_faults.py chaos storm, unchanged."""
    return (
        FaultSchedule()
        .link_flap("sw->client0", 300.0, 150.0)
        .ssd_latency_spike("target0/ssd0", 600.0, 300.0, scale=8.0)
        .target_crash("target0", 1_100.0, 400.0)
    )


def _disconnect_schedule():
    """The ISSUE acceptance shape: qpair disconnects + a loss burst."""
    return (
        FaultSchedule()
        .qpair_disconnect("tc0", 400.0)
        .link_loss_burst("sw->client0", 700.0, 300.0, p=0.3)
        .qpair_disconnect("tc1", 900.0)
    )


def _build(chaos, policy, seed=1):
    return build_fig7_cell(seed=seed, chaos=chaos, retry_policy=policy)


def _run(chaos, policy, seed=1):
    return _build(chaos, policy, seed=seed).run()


def _assert_windows_clean(scenario):
    """Post-run drain-protocol invariant: nothing stranded anywhere.

    Every initiator's qpair is empty (all commands completed or reported)
    and every window queue is fully retired — each TC CID exactly once:
    pushed == drained, with no member left behind.
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


class TestOpfChaosStorm:
    def test_storm_completes_with_zero_lost_commands(self):
        calm = _run(None, None)
        scenario = _build(_storm_schedule(), POLICY)
        storm = scenario.run()

        # Chaos actually bit, and the drain protocol was exercised.
        assert storm.fault_events["fault/target.crash/inject"] == 1
        assert storm.recovery["timeouts"] > 0
        assert storm.recovery["retries"] > 0
        assert storm.opf["duplicate_drains"] > 0

        # Zero lost commands: no failures, nothing stranded in a window.
        assert storm.failed_ops == 0
        assert storm.goodput_ops >= calm.goodput_ops
        _assert_windows_clean(scenario)

        # Fairness between the TC tenants survives the storm.
        assert calm.fairness_index is not None
        assert storm.fairness_index == pytest.approx(calm.fairness_index, abs=0.05)

    def test_storm_is_digest_stable_across_reruns(self):
        one = _run(_storm_schedule(), POLICY)
        two = _run(_storm_schedule(), POLICY)
        assert one.metrics_digest() == two.metrics_digest()
        assert one.fault_trace == two.fault_trace

    def test_no_chaos_books_are_empty(self):
        calm = _run(None, None)
        assert calm.opf == {key: 0 for key in calm.opf}
        noop = _run(FaultSchedule(), None)
        assert noop.metrics_digest() == calm.metrics_digest()


class TestOpfDisconnectResync:
    def test_reconnect_resyncs_the_window_state(self):
        scenario = _build(_disconnect_schedule(), POLICY)
        result = scenario.run()
        assert result.recovery["disconnects"] == 2
        assert result.recovery["reconnects"] == 2
        # Each reconnect handshake carried a bumped epoch the target saw.
        assert result.opf["resyncs"] == 2
        assert result.failed_ops == 0
        _assert_windows_clean(scenario)

    def test_disconnect_run_is_digest_stable(self):
        one = _run(_disconnect_schedule(), POLICY)
        two = _run(_disconnect_schedule(), POLICY)
        assert one.metrics_digest() == two.metrics_digest()


class TestOpfFaultMatrix:
    @pytest.mark.parametrize("kind", sorted(FAULT_MATRIX))
    def test_single_fault_completes_cleanly(self, kind):
        schedule = FAULT_MATRIX[kind](FaultSchedule())
        scenario = _build(schedule, POLICY)
        result = scenario.run()
        assert result.fault_events[f"fault/{schedule.events[0].kind}/inject"] == 1
        assert result.failed_ops == 0
        _assert_windows_clean(scenario)

    @pytest.mark.parametrize("kind", sorted(FAULT_MATRIX))
    def test_single_fault_digest_is_seed_stable(self, kind):
        one = _run(FAULT_MATRIX[kind](FaultSchedule()), POLICY)
        two = _run(FAULT_MATRIX[kind](FaultSchedule()), POLICY)
        assert one.metrics_digest() == two.metrics_digest()
