"""SimSession + SessionManager unit coverage: budgeted slices, the state
machine, injection validation, checkpoint integrity, telemetry cursors.

The digest-equality proofs live in ``test_service_checkpoint.py``; the
live-HTTP path in ``test_service_api.py``.  This module drives sessions
directly, where every transition and refusal is synchronous.
"""

import json
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from repro.errors import ConfigError, ScenarioProgramError, ServiceError
from repro.scenarios import ScenarioProgram, replay
from repro.scenarios.actions import Advance, FaultInject, SetWindow, SloChange, TenantJoin
from repro.scenarios.library import fig7_cell_program, fig7_cell_spdk_program, qos_guard_program
from repro.service import SessionManager, SessionNotFound, SessionStateError, SimSession
from repro.service.session import InjectionRecord


def slo_program() -> ScenarioProgram:
    """The fig7 cell with a QoS plane (so slo_change injections are legal)."""
    data = fig7_cell_program().to_dict()
    data["name"] = "fig7-opf-1to2-slo"
    data["config"]["slos"] = [{"tenant": "ls0", "p99_ceiling_us": 5_000.0}]
    return ScenarioProgram.from_dict(data)


# -- slice driving ------------------------------------------------------------
def test_budgeted_advance_respects_max_events():
    session = SimSession(fig7_cell_program())
    n = session.advance(max_events=100)
    assert n == 100
    assert session.steps == 100
    assert session.state in ("running", "draining")


def test_unbounded_advance_runs_to_finish():
    session = SimSession(fig7_cell_program())
    session.advance()
    assert session.state == "finished"
    assert session.error is None
    assert session.digest and session.digest_sha256


def test_until_us_horizon_stops_the_clock():
    session = SimSession(fig7_cell_program())
    session.advance(until_us=50.0)
    assert session.env.now <= 50.0
    assert not session.finished
    before = session.steps
    session.advance(until_us=50.0)  # horizon already reached: no progress
    assert session.steps == before


def test_sliced_run_digest_matches_direct_replay():
    direct = replay(fig7_cell_program()).digest()
    session = SimSession(fig7_cell_program())
    while not session.finished:
        session.advance(max_events=97)
    assert session.state == "finished"
    assert session.digest == direct


@pytest.mark.parametrize(
    "program, steps, now",
    [
        (fig7_cell_program, 4395, 2537.947200000007),
        (lambda: qos_guard_program(total_ops=600), 16004, 13114.177599999717),
    ],
    ids=["fig7-cell", "qos-guard-600"],
)
def test_replay_cursor_is_pinned(program, steps, now):
    """A checkpoint restores by replaying its step cursor, so the number of
    heap entries a run dispatches (and the clock it ends on) must not move,
    or checkpoints already written stop restoring."""
    session = SimSession(program())
    while not session.finished:
        session.advance(max_events=97)
    assert session.state == "finished", session.error
    assert session.steps == session.env._seq == steps
    assert session.env.now == now


def test_phases_progress_in_order():
    session = SimSession(fig7_cell_program())
    seen = [session.status()["phase"]]
    while not session.finished:
        session.advance(max_events=50)
        phase = session.status()["phase"]
        if phase != seen[-1]:
            seen.append(phase)
    # Monotone through the lifecycle; a short drain may fit inside one slice.
    order = ["connect", "workload", "drain", "done"]
    assert seen == [p for p in order if p in seen]
    assert seen[0] == "connect" and seen[-1] == "done" and "workload" in seen


# -- state machine ------------------------------------------------------------
def test_pause_requires_running():
    session = SimSession(fig7_cell_program())
    with pytest.raises(SessionStateError, match="only a running session"):
        session.pause()


def test_pause_resume_roundtrip_preserves_timeline():
    direct = replay(fig7_cell_program()).digest()
    session = SimSession(fig7_cell_program())
    session.advance(max_events=500)
    session.pause()
    assert session.state == "paused"
    session.pause()  # idempotent
    with pytest.raises(SessionStateError, match="cannot advance"):
        session.advance(max_events=1)
    session.resume()
    session.resume()  # idempotent
    session.advance()
    assert session.digest == direct


def test_finished_session_refuses_everything():
    session = SimSession(fig7_cell_program())
    session.advance()
    with pytest.raises(SessionStateError):
        session.resume()
    with pytest.raises(SessionStateError):
        session.pause()
    with pytest.raises(SessionStateError):
        session.inject(SloChange(tenant="ls0", p99_ceiling_us=1.0), at_us=1.0)
    with pytest.raises(SessionStateError, match="pause it before"):
        session.make_checkpoint()


def test_result_payload_gates_on_finish():
    session = SimSession(fig7_cell_program())
    with pytest.raises(SessionStateError, match="seals"):
        session.result_payload()
    session.advance()
    payload = session.result_payload()
    assert payload["state"] == "finished"
    assert payload["digest"] == session.digest
    assert payload["tc_throughput_mbps"] > 0
    json.dumps(payload)  # JSON-safe end to end


# -- injection validation -----------------------------------------------------
def test_inject_rejects_structural_actions():
    session = SimSession(slo_program())
    with pytest.raises(ServiceError, match="cannot be injected"):
        session.inject(TenantJoin(tenant="late", priority="throughput"), at_us=5.0)


def test_inject_rejects_unknown_tenant():
    session = SimSession(slo_program())
    with pytest.raises(ServiceError, match="unknown tenant 'nope'"):
        session.inject(SloChange(tenant="nope", p99_ceiling_us=1.0), at_us=5.0)


def test_inject_rejects_slo_change_without_qos_plane():
    session = SimSession(fig7_cell_program())  # no SLOs -> no control plane
    with pytest.raises(ServiceError, match="no QoS control plane"):
        session.inject(SloChange(tenant="ls0", p99_ceiling_us=1.0), at_us=5.0)


def test_inject_rejects_set_window_on_spdk():
    session = SimSession(fig7_cell_spdk_program())
    with pytest.raises(ServiceError, match="nvme-opf"):
        session.inject(SetWindow(tenant="tc0", window=8), at_us=5.0)


def test_inject_rejects_fault_without_chaos_plane():
    session = SimSession(slo_program())
    with pytest.raises(ServiceError, match="no chaos plane"):
        session.inject(
            {"op": "fault_inject", "kind": "ssd.latency_spike",
             "component": "target0/ssd0", "duration_us": 100.0,
             "params": [["scale", 4.0]]},
            at_us=5.0,
        )


def test_inject_rejects_past_and_malformed_times():
    session = SimSession(slo_program())
    while session.scenario.workload_start is None:
        session.advance(max_events=50)
    session.advance(max_events=500)
    with pytest.raises(ServiceError, match="not in the future"):
        session.inject(SloChange(tenant="ls0", p99_ceiling_us=1.0), at_us=0.0)
    with pytest.raises(ServiceError, match="finite"):
        session.inject(
            SloChange(tenant="ls0", p99_ceiling_us=1.0), at_us=float("inf")
        )
    with pytest.raises(ServiceError, match="finite"):
        session.inject(SloChange(tenant="ls0", p99_ceiling_us=1.0), at_us=-1.0)


# -- checkpoint integrity -----------------------------------------------------
def test_checkpoint_requires_pause():
    session = SimSession(fig7_cell_program())
    session.advance(max_events=100)
    with pytest.raises(SessionStateError, match="pause it before"):
        session.make_checkpoint()


def test_checkpoint_roundtrips_through_json():
    session = SimSession(fig7_cell_program())
    session.advance(max_events=800)
    session.pause()
    checkpoint = json.loads(json.dumps(session.make_checkpoint(label="x")))
    restored = SimSession.from_checkpoint(checkpoint, session_id="r")
    assert restored.state == "paused"
    assert restored.steps == session.steps
    assert restored.env.now == session.env.now
    assert restored.env._seq == session.env._seq


def test_checkpoint_rejects_malformed_payloads():
    with pytest.raises(ServiceError, match="must be a dict"):
        SimSession.from_checkpoint([1, 2])
    with pytest.raises(ServiceError, match="unsupported checkpoint format"):
        SimSession.from_checkpoint({"format": "nope"})
    session = SimSession(fig7_cell_program())
    checkpoint = session.make_checkpoint()
    bad = dict(checkpoint, extra=1)
    with pytest.raises(ServiceError, match="unknown checkpoint keys: \\['extra'\\]"):
        SimSession.from_checkpoint(bad)
    with pytest.raises(ServiceError, match=">= 0"):
        SimSession.from_checkpoint(dict(checkpoint, steps=-3))


@pytest.mark.parametrize(
    "key, value, refusal",
    [
        ("steps", "abc", "must be an integer, got str"),
        ("steps", 12.7, "must be an integer, got float"),
        ("steps", True, "must be an integer, got bool"),
        ("engine_seq", "q", "must be an integer, got str"),
        ("engine_seq", None, "must be an integer, got NoneType"),
        ("virtual_us", "x", "must be a number, got str"),
        ("virtual_us", False, "must be a number, got bool"),
        ("virtual_us", float("nan"), "must be finite"),
        ("virtual_us", float("-inf"), "must be finite"),
        pytest.param("virtual_us", 10**400, "must be finite", id="virtual_us-10**400"),
        ("injections", 5, "must be a list, got int"),
        ("injections", {"at_step": 0}, "must be a list, got dict"),
        ("check_invariants", "no", "must be a bool, got str"),
        ("check_invariants", 0, "must be a bool, got int"),
    ],
)
def test_checkpoint_refuses_garbled_fields_with_a_typed_error(key, value, refusal):
    checkpoint = SimSession(fig7_cell_program()).make_checkpoint()
    with pytest.raises(ServiceError, match=f"checkpoint '{key}' {refusal}"):
        SimSession.from_checkpoint(dict(checkpoint, **{key: value}))


def test_checkpoint_accepts_an_integral_virtual_time():
    # JSON writers may drop the ".0" of a whole number of microseconds.
    checkpoint = SimSession(fig7_cell_program()).make_checkpoint()
    assert checkpoint["virtual_us"] == 0.0
    restored = SimSession.from_checkpoint(dict(checkpoint, virtual_us=0))
    assert restored.steps == 0


def test_checkpoint_refuses_divergent_replay():
    session = SimSession(fig7_cell_program())
    session.advance(max_events=600)
    session.pause()
    checkpoint = session.make_checkpoint()
    tampered = dict(checkpoint, engine_seq=checkpoint["engine_seq"] + 7)
    with pytest.raises(ServiceError, match="diverged"):
        SimSession.from_checkpoint(tampered)
    tampered = dict(checkpoint, virtual_us=checkpoint["virtual_us"] + 1.0)
    with pytest.raises(ServiceError, match="diverged"):
        SimSession.from_checkpoint(tampered)


@pytest.mark.parametrize(
    "at_us, refusal",
    [
        ("abc", "must be a number, got str"),
        (None, "must be a number, got NoneType"),
        pytest.param(10**400, "must be finite", id="10**400"),
        (True, "must be a number, got bool"),
    ],
)
def test_inject_refuses_a_garbled_time_by_name(at_us, refusal):
    session = SimSession(slo_program())
    with pytest.raises(ServiceError, match=f"injection 'at_us' {refusal}"):
        session.inject(SloChange(tenant="ls0", p99_ceiling_us=1.0), at_us=at_us)
    assert session.injections == []


@pytest.mark.parametrize(
    "action, refusal",
    [
        ({"op": "tenant_leave"}, "missing keys for 'tenant_leave' action"),
        ({"op": []}, "action 'op' must be a string, got list"),
        ({"op": {}}, "action 'op' must be a string, got dict"),
    ],
    ids=["missing-key", "op-list", "op-object"],
)
def test_inject_refuses_a_garbled_action_by_name(action, refusal):
    session = SimSession(slo_program())
    with pytest.raises(ScenarioProgramError, match=refusal):
        session.inject(action, 10.0)
    assert session.injections == []


@pytest.mark.parametrize(
    "key, value, refusal",
    [
        ("at_us", "abc", "'at_us' must be a number, got str"),
        ("at_step", "x", "'at_step' must be an integer, got str"),
        ("action", 5, "'action' must be an object, got int"),
        ("action", [1, 2], "'action' must be an object, got list"),
        ("pre_launch", "no", "'pre_launch' must be a bool, got str"),
    ],
)
def test_injection_record_refuses_a_garbled_field_by_name(key, value, refusal):
    data = {"action": {"op": "slo_change", "tenant": "ls0"}, "at_us": 5.0, "at_step": 10,
            "pre_launch": True}
    with pytest.raises(ServiceError, match=f"injection record {refusal}"):
        InjectionRecord.from_dict(dict(data, **{key: value}))


def test_injection_record_roundtrip_and_errors():
    record = InjectionRecord(
        action={"op": "slo_change", "tenant": "ls0"},
        at_us=5.0,
        at_step=10,
        pre_launch=True,
    )
    assert InjectionRecord.from_dict(record.to_dict()) == record
    with pytest.raises(ServiceError, match="expected a dict"):
        InjectionRecord.from_dict("nope")
    with pytest.raises(ServiceError, match="missing keys"):
        InjectionRecord.from_dict({"action": {}})


# -- telemetry ----------------------------------------------------------------
def test_telemetry_cursor_is_incremental():
    session = SimSession(slo_program())
    session.advance(max_events=400)
    cursor, snapshots = session.telemetry(cursor=0)
    assert snapshots and cursor == len(snapshots)
    again, newer = session.telemetry(cursor=cursor)
    assert newer == [] and again == cursor
    session.advance(max_events=400)
    cursor2, fresh = session.telemetry(cursor=cursor)
    assert len(fresh) == cursor2 - cursor > 0
    snap = fresh[-1]
    assert set(snap["tenants"]) == {"ls0", "tc0", "tc1"}
    assert snap["qos"]["ls0"]["slo"] == {
        "p99_ceiling_us": 5_000.0,
        "throughput_floor_mbps": None,
    }
    json.dumps(snap)  # snapshots must ship over JSON unmodified


def test_telemetry_reads_do_not_perturb_the_timeline():
    direct = replay(slo_program()).digest()
    session = SimSession(slo_program())
    while not session.finished:
        session.advance(max_events=250)
        session.telemetry(cursor=0)  # peek-only reads between every slice
        session.status()
    assert session.digest == direct


# -- the manager --------------------------------------------------------------
def test_manager_validates_its_config_keys():
    with pytest.raises(ConfigError, match="key 'workers'"):
        SessionManager(workers=0)
    with pytest.raises(ConfigError, match="key 'workers'"):
        SessionManager(workers=True)
    with pytest.raises(ConfigError, match="key 'workers'"):
        SessionManager(workers=10_000)
    with pytest.raises(ConfigError, match="key 'slice_events'"):
        SessionManager(workers=1, slice_events=0)


def test_manager_hosts_and_finishes_sessions():
    direct = replay(fig7_cell_program()).digest()
    manager = SessionManager(workers=2, slice_events=512)
    try:
        session = manager.submit(fig7_cell_program().to_dict())
        assert session.wait_for(("finished", "failed"), timeout_s=60.0) == "finished"
        assert session.digest == direct
        assert manager.get(session.id) is session
        listed = manager.list_sessions()
        assert [s["id"] for s in listed] == [session.id]
        with pytest.raises(SessionNotFound):
            manager.get("s999")
    finally:
        manager.shutdown()
        manager.shutdown()  # idempotent
        manager._enqueue(session.id)  # a closed manager drops enqueues


def test_manager_pause_checkpoint_restore_flow(slice_gate):
    direct = replay(fig7_cell_program()).digest()
    manager = SessionManager(workers=2, slice_events=256)
    try:
        session = manager.submit(fig7_cell_program())
        # Let the workload make some progress, one slice at a time, then
        # freeze it while it is running.
        while session.status()["snapshots"] < 3 or session.status()["phase"] != "workload":
            slice_gate.step()
        session.telemetry(cursor=2, wait_s=30.0)
        assert session.state == "running"
        manager.pause(session.id)
        assert session.state == "paused"
        slice_gate.open()
        checkpoint = manager.checkpoint(session.id, label="mid")
        restored = manager.restore(json.loads(json.dumps(checkpoint)), start=True)
        manager.resume(session.id)
        assert session.wait_for(("finished",), timeout_s=60.0) == "finished"
        assert restored.wait_for(("finished",), timeout_s=60.0) == "finished"
        assert session.digest == direct
        assert restored.digest == direct
    finally:
        manager.shutdown()


# -- fault injection (chaos-plane programs) -----------------------------------
def chaos_program() -> ScenarioProgram:
    """The fig7 cell with a chaos plane (fault_inject + retry_policy), so
    live fault injection is legal."""
    data = fig7_cell_program().to_dict()
    data["name"] = "fig7-opf-1to2-chaos"
    data["config"]["retry_policy"] = {
        "timeout_us": 3_000.0,
        "max_retries": 3,
        "jitter_frac": 0.0,
    }
    data["actions"] = list(data["actions"]) + [
        {"op": "fault_inject", "kind": "ssd.latency_spike",
         "component": "target0/ssd0", "duration_us": 100.0,
         "params": [["scale", 4.0]]},
    ]
    return ScenarioProgram.from_dict(data)


def test_prelaunch_fault_injection_and_zero_step_checkpoint():
    session = SimSession(chaos_program())
    record = session.inject(
        FaultInject(kind="ssd.latency_spike", component="target0/ssd0",
                    duration_us=50.0, params=(("scale", 2.0),)),
        at_us=150.0,
    )
    assert record.pre_launch and record.at_step == 0

    # A zero-step checkpoint must carry the pre-launch fault and re-apply
    # it during restore (the cursor-0 drain path).
    checkpoint = json.loads(json.dumps(session.make_checkpoint(label="pre")))
    assert checkpoint["steps"] == 0 and checkpoint["injections"]
    restored = SimSession.from_checkpoint(checkpoint, session_id="fault-r")
    restored.resume()
    restored.run_to_completion()
    session.advance()
    assert session.state == "finished", session.error
    assert restored.state == "finished", restored.error
    assert restored.digest == session.digest


def test_fault_injection_validation():
    session = SimSession(chaos_program())
    with pytest.raises(ScenarioProgramError, match="target7"):
        session.inject(
            FaultInject(kind="ssd.latency_spike", component="target7/ssd0",
                        duration_us=50.0, params=(("scale", 2.0),)),
            at_us=5.0,
        )
    while session.scenario.workload_start is None:
        session.advance(max_events=50)
    with pytest.raises(ServiceError, match="before the workload launches"):
        session.inject(
            FaultInject(kind="ssd.latency_spike", component="target0/ssd0",
                        duration_us=50.0, params=(("scale", 2.0),)),
            at_us=9_000.0,
        )


def test_prelaunch_scripted_injection_matches_amended_program():
    at_us = 3_333.3
    amended = slo_program().to_dict()
    amended["actions"] = list(amended["actions"]) + [
        Advance(dt_us=at_us).to_dict(),
        SloChange(tenant="ls0", p99_ceiling_us=900.0).to_dict(),
    ]
    truth = replay(ScenarioProgram.from_dict(amended)).digest()

    session = SimSession(slo_program())
    record = session.inject(
        SloChange(tenant="ls0", p99_ceiling_us=900.0), at_us=at_us
    )
    assert record.pre_launch
    session.advance()
    assert session.state == "finished", session.error
    assert session.digest == truth


# -- lifecycle edges ----------------------------------------------------------
def test_start_and_cooperative_pause_request():
    session = SimSession(fig7_cell_program())
    session.start()
    assert session.state == "running"
    # A pause request raised mid-flight lands at the next slice boundary.
    session._pause_requested = True
    session.advance(max_events=50)
    assert session.state == "paused"
    # run_to_completion shrugs off a concurrent pause and finishes anyway.
    session.resume()
    session._pause_requested = True
    session.run_to_completion()
    assert session.state == "finished"


def test_replay_overshoot_seals_the_session_as_failed():
    session = SimSession(slo_program())
    session.advance(max_events=200)
    session._replay = deque([
        InjectionRecord(
            action=SloChange(tenant="ls0", p99_ceiling_us=1.0).to_dict(),
            at_us=1.0, at_step=50, pre_launch=True,
        )
    ])
    session.advance(max_events=10)
    assert session.state == "failed"
    assert "overshot" in session.error
    payload = session.result_payload()
    assert payload["state"] == "failed"
    assert payload["error"] == session.error
    with pytest.raises(SessionStateError):
        session.resume()


def test_checkpoint_with_disordered_injection_log_is_refused():
    session = SimSession(slo_program())
    checkpoint = session.make_checkpoint()

    def record(step):
        return InjectionRecord(
            action=SloChange(tenant="ls0", p99_ceiling_us=1.0).to_dict(),
            at_us=1.0, at_step=step, pre_launch=True,
        ).to_dict()

    bad = dict(checkpoint, injections=[record(5), record(3)])
    with pytest.raises(ServiceError, match="not cursor-ordered"):
        SimSession.from_checkpoint(bad)


def test_checkpoint_with_impossible_postlaunch_record_is_refused():
    session = SimSession(slo_program())
    checkpoint = session.make_checkpoint()
    bad = dict(checkpoint, injections=[
        InjectionRecord(
            action=SloChange(tenant="ls0", p99_ceiling_us=1.0).to_dict(),
            at_us=5.0, at_step=0, pre_launch=False,
        ).to_dict()
    ])
    with pytest.raises(ServiceError, match="checkpoint is inconsistent"):
        SimSession.from_checkpoint(bad)


# -- telemetry edges ----------------------------------------------------------
def test_snapshot_ring_discards_oldest():
    session = SimSession(fig7_cell_program())
    session._snapshots = deque(maxlen=2)
    for _ in range(3):
        session.advance(max_events=50)
    cursor, snapshots = session.telemetry(cursor=0)
    assert cursor == session._snapshot_seq
    assert len(snapshots) == 2
    assert [s["seq"] for s in snapshots] == [cursor - 2, cursor - 1]


def test_snapshot_before_launch_has_no_workload_clock():
    session = SimSession(fig7_cell_program())
    session.advance(max_events=1)
    _, snapshots = session.telemetry(cursor=0)
    assert snapshots[-1]["workload_us"] is None


def test_wait_and_long_poll_timeouts_expire():
    session = SimSession(fig7_cell_program())
    session.advance(max_events=50)
    assert session.wait_for(("finished",), timeout_s=0.05) in (
        "running", "draining"
    )
    cursor, snapshots = session.telemetry(
        cursor=session._snapshot_seq + 10, wait_s=0.05
    )
    assert snapshots == []
    assert cursor == session._snapshot_seq


# -- import footprint -----------------------------------------------------------
def test_import_leaves_the_process_pool_unloaded():
    """The service caps its slicing threads without the campaign runner:
    ``import repro.service`` must load neither ``repro.parallel`` nor
    ``multiprocessing`` (every service start-up would pay for both)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, repro.service; "
        "print([m for m in ('repro.parallel', 'multiprocessing') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
