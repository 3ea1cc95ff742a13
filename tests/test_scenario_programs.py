"""Scenario programs: vocabulary, validation, serialization, compile, replay.

The tentpole suite for ``repro.scenarios``: actions reject malformed data
by name, programs validate resource-aware (no leaving tenants that never
joined, no faults on components the topology lacks), JSON round-trips are
signature-identical, and replays through the compiler are deterministic —
including the registered library programs, which must reproduce the same
digests as the hand-built scenarios they mirror.
"""

import hashlib
import json

import pytest

from repro.cluster.scenario import ScenarioConfig
from repro.errors import ConfigError, InvariantViolation, ScenarioProgramError
from repro.scenarios import (
    ACTION_TYPES,
    Advance,
    AssertInvariant,
    Checkpoint,
    FaultInject,
    ProgramRegistry,
    ScenarioProgram,
    SetWindow,
    SloChange,
    TenantJoin,
    TenantLeave,
    UsageBurst,
    action_from_dict,
    check_all,
    check_invariant,
    compile_program,
    replay,
)
from repro.scenarios import PROGRAM_FORMAT
from repro.scenarios.invariants import INV_BOOKS, INV_CID, INV_CONSERVATION, INV_SLO
from repro.scenarios.program import storage_names
from repro.scenarios.library import (
    FIG7_CELL,
    QOS_GUARD,
    fig7_cell_program,
    qos_guard_program,
    register_library_programs,
)
from tests.test_golden_regression import GOLDEN_OPF_DIGEST_SHA256


def _program(actions, name="t", config=None, **kw):
    base = {"protocol": "nvme-opf", "total_ops": 50, "seed": 3}
    base.update(config or {})
    return ScenarioProgram(name=name, config=base, actions=tuple(actions), **kw)


JOIN2 = (
    TenantJoin(tenant="a", priority="latency", total_ops=30),
    TenantJoin(tenant="b", priority="throughput"),
)


# ---------------------------------------------------------------------------
# Action vocabulary
# ---------------------------------------------------------------------------
class TestActions:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Advance(dt_us=0.0),
            lambda: Advance(dt_us=-5.0),
            lambda: TenantJoin(tenant=""),
            lambda: TenantJoin(tenant="a", priority="urgent"),
            lambda: TenantJoin(tenant="a", queue_depth=-1),
            lambda: TenantJoin(tenant="a", op_mix="readz"),
            lambda: TenantJoin(tenant="a", total_ops=0),
            lambda: TenantLeave(tenant=""),
            lambda: UsageBurst(tenant="a", ops=0),
            lambda: UsageBurst(tenant="a", ops=5, queue_depth=0),
            lambda: UsageBurst(tenant="a", ops=5, op_mix="mix"),
            lambda: FaultInject(kind="meteor.strike", component="sw"),
            lambda: FaultInject(kind="link.down", component=""),
            lambda: FaultInject(kind="link.down", component="x", duration_us=-1.0),
            lambda: SloChange(tenant=""),
            lambda: SloChange(tenant="a", p99_ceiling_us=0.0),
            lambda: SloChange(tenant="a", throughput_floor_mbps=-2.0),
            lambda: SetWindow(tenant="", window=4),
            lambda: SetWindow(tenant="a", window=0),
            lambda: Checkpoint(label=""),
            lambda: AssertInvariant(invariant="perpetual-motion"),
        ],
    )
    def test_malformed_actions_rejected_eagerly(self, bad):
        with pytest.raises(ScenarioProgramError):
            bad()

    def test_conservation_is_not_a_midrun_invariant(self):
        with pytest.raises(ScenarioProgramError):
            AssertInvariant(invariant=INV_CONSERVATION)

    @pytest.mark.parametrize(
        "action",
        [
            Advance(dt_us=12.5),
            TenantJoin(tenant="a", priority="latency", queue_depth=2, op_mix="rw50", total_ops=9),
            TenantLeave(tenant="a"),
            UsageBurst(tenant="a", ops=7, queue_depth=16, op_mix="write"),
            FaultInject(kind="link.degrade", component="sw->client0", duration_us=40.0, params=(("scale", 3.0),)),
            SloChange(tenant="a", p99_ceiling_us=500.0),
            SloChange(tenant="a"),  # clear
            SetWindow(tenant="a", window=8),
            Checkpoint(label="mid"),
            AssertInvariant(invariant=INV_BOOKS),
        ],
    )
    def test_dict_round_trip(self, action):
        data = json.loads(json.dumps(action.to_dict()))  # via real JSON
        assert action_from_dict(data) == action

    def test_unknown_op_rejected(self):
        with pytest.raises(ScenarioProgramError, match="unknown action op"):
            action_from_dict({"op": "warp_drive"})

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ScenarioProgramError, match="typo_key"):
            action_from_dict({"op": "advance", "dt_us": 5.0, "typo_key": 1})

    def test_every_op_is_registered(self):
        assert sorted(ACTION_TYPES) == [
            "advance",
            "assert_invariant",
            "checkpoint",
            "fault_inject",
            "set_window",
            "slo_change",
            "tenant_join",
            "tenant_leave",
            "usage_burst",
        ]


# ---------------------------------------------------------------------------
# Program validation (resource-aware)
# ---------------------------------------------------------------------------
class TestProgramValidation:
    def test_minimal_program_validates(self):
        _program(JOIN2)

    def test_empty_name_rejected(self):
        with pytest.raises(ScenarioProgramError, match="name"):
            _program(JOIN2, name="")

    def test_no_tenants_rejected(self):
        with pytest.raises(ScenarioProgramError, match="joins no tenants"):
            _program([Advance(dt_us=5.0)])

    def test_duplicate_join_rejected(self):
        with pytest.raises(ScenarioProgramError, match="already joined"):
            _program([*JOIN2, TenantJoin(tenant="a")])

    def test_burst_separator_reserved(self):
        with pytest.raises(ScenarioProgramError, match="reserved"):
            _program([TenantJoin(tenant="a#burst0", total_ops=5)])

    def test_leave_requires_prior_join(self):
        with pytest.raises(ScenarioProgramError, match="never joined"):
            _program([*JOIN2, TenantLeave(tenant="ghost")])

    def test_double_leave_rejected(self):
        with pytest.raises(ScenarioProgramError, match="already left"):
            _program([*JOIN2, TenantLeave(tenant="a"), TenantLeave(tenant="a")])

    def test_burst_requires_joined_tenant(self):
        with pytest.raises(ScenarioProgramError, match="unjoined"):
            _program([*JOIN2, UsageBurst(tenant="ghost", ops=5)])

    def test_window_actions_require_opf(self):
        with pytest.raises(ScenarioProgramError, match="nvme-opf"):
            _program(
                [*JOIN2, SetWindow(tenant="b", window=4)],
                config={"protocol": "spdk"},
            )

    def test_slo_change_requires_control_plane(self):
        with pytest.raises(ScenarioProgramError, match="control plane"):
            _program([*JOIN2, SloChange(tenant="a", p99_ceiling_us=400.0)])

    def test_slo_change_allowed_with_qos(self):
        _program(
            [*JOIN2, SloChange(tenant="a", p99_ceiling_us=400.0)],
            config={"qos_policy": "slo-guard"},
        )

    @pytest.mark.parametrize(
        "kind,component",
        [
            ("link.down", "nowhere->sw"),
            ("nic.down", "client7"),
            ("switch.pressure", "sw2"),
            ("ssd.latency_spike", "target0/ssd9"),
            ("target.crash", "target5"),
            ("qpair.disconnect", "ghost"),
        ],
    )
    def test_fault_components_checked_against_topology(self, kind, component):
        with pytest.raises(ScenarioProgramError, match="no live"):
            _program(
                [*JOIN2, FaultInject(kind=kind, component=component)],
                config={"retry_policy": {"timeout_us": 1000.0}},
            )

    def test_faults_require_retry_policy(self):
        with pytest.raises(ScenarioProgramError, match="retry_policy"):
            _program([*JOIN2, FaultInject(kind="target.crash", component="target0", duration_us=100.0)])

    def test_unbounded_ls_only_program_rejected(self):
        with pytest.raises(ScenarioProgramError, match="never terminate"):
            _program([TenantJoin(tenant="a", priority="latency")])

    def test_ls_only_with_quota_accepted(self):
        _program([TenantJoin(tenant="a", priority="latency", total_ops=20)])

    def test_slo_for_unjoined_tenant_rejected(self):
        with pytest.raises(ScenarioProgramError, match="unjoined"):
            _program(
                JOIN2,
                config={
                    "qos_policy": "slo-guard",
                    "slos": [{"tenant": "ghost", "p99_ceiling_us": 100.0}],
                },
            )

    def test_non_program_config_keys_rejected(self):
        with pytest.raises(ScenarioProgramError, match="target_cls"):
            _program(JOIN2, config={"target_cls": None})

    def test_topology_bounds_validated(self):
        with pytest.raises(ScenarioProgramError):
            _program(JOIN2, n_target_nodes=0)
        with pytest.raises(ScenarioProgramError):
            _program(JOIN2, n_ssds=0)

    def test_storage_names_are_the_compiled_topology_names(self):
        scenario = compile_program(_program(JOIN2, n_target_nodes=2, n_ssds=3)).scenario
        targets, ssds = storage_names(2, 3)
        assert [node.name for node in scenario.target_nodes] == targets
        assert [ssd.name for node in scenario.target_nodes for ssd in node.ssds] == ssds

    def test_duration_and_tenants_introspection(self):
        prog = _program([*JOIN2, Advance(dt_us=100.0), Advance(dt_us=50.0)])
        assert prog.duration_us == 150.0
        assert prog.tenants() == ["a", "b"]


# ---------------------------------------------------------------------------
# Serialization + registry
# ---------------------------------------------------------------------------
class TestSerialization:
    def test_json_round_trip_is_signature_identical(self):
        prog = _program(
            [
                *JOIN2,
                Advance(dt_us=100.0),
                FaultInject(
                    kind="ssd.latency_spike",
                    component="target0/ssd0",
                    duration_us=200.0,
                    params=(("scale", 4.0),),
                ),
                Checkpoint(label="x"),
            ],
            config={"retry_policy": {"timeout_us": 1000.0, "jitter_frac": 0.0}},
        )
        clone = ScenarioProgram.from_json(prog.to_json())
        assert clone.signature() == prog.signature()
        assert clone.actions == prog.actions

    def test_unknown_program_key_rejected(self):
        data = _program(JOIN2).to_dict()
        data["extra"] = 1
        with pytest.raises(ScenarioProgramError, match="extra"):
            ScenarioProgram.from_dict(data)

    def test_unsupported_format_rejected(self):
        data = _program(JOIN2).to_dict()
        data["format"] = "nvme-opf/scenario-program@99"
        with pytest.raises(ScenarioProgramError, match="format"):
            ScenarioProgram.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ScenarioProgramError, match="not valid JSON"):
            ScenarioProgram.from_json("{nope")

    def test_registry(self):
        registry = ProgramRegistry()
        prog = _program(JOIN2, name="one")
        registry.register(prog)
        assert "one" in registry and len(registry) == 1
        assert registry.get("one") is prog
        assert [p.name for p in registry] == ["one"]
        with pytest.raises(ScenarioProgramError, match="already registered"):
            registry.register(_program(JOIN2, name="one"))
        with pytest.raises(ScenarioProgramError, match="no program named"):
            registry.get("two")

    @pytest.mark.parametrize(
        "key, value, refusal",
        [
            ("n_target_nodes", "a", "'n_target_nodes' must be an integer, got str"),
            ("n_ssds", None, "'n_ssds' must be an integer, got NoneType"),
            ("config", [1], "'config' must be an object, got list"),
            ("n_target_nodes", True, "'n_target_nodes' must be an integer, got bool"),
            ("n_target_nodes", 2.5, "'n_target_nodes' must be an integer, got float"),
            ("name", 5, "'name' must be a string, got int"),
            ("description", ["x"], "'description' must be a string, got list"),
            ("n_target_nodes", 65, "'n_target_nodes' must be at most 64"),
            pytest.param("n_ssds", 10**400, "'n_ssds' must be at most 64", id="n_ssds-10**400"),
        ],
    )
    def test_garbled_program_field_is_refused_by_name(self, key, value, refusal):
        data = _program(JOIN2).to_dict()
        data[key] = value
        with pytest.raises(ScenarioProgramError, match=f"program {refusal}"):
            ScenarioProgram.from_dict(data)

    @pytest.mark.parametrize(
        "action, refusal",
        [
            ({"op": "tenant_leave"}, "missing keys for 'tenant_leave' action: \\['tenant'\\]"),
            ({"op": []}, "action 'op' must be a string, got list"),
            ({"op": {}}, "action 'op' must be a string, got dict"),
            ({"op": "advance", "dt_us": True}, "'advance' key 'dt_us' must be a number, got bool"),
            ({"op": "advance", "dt_us": 10**400}, "'advance' key 'dt_us' must be finite"),
            ({"op": "advance", "dt_us": float("inf")}, "'advance' key 'dt_us' must be finite"),
            (
                {"op": "tenant_join", "tenant": "c", "queue_depth": 2.5},
                "'tenant_join' key 'queue_depth' must be an integer",
            ),
            (
                {"op": "fault_inject", "kind": "link.down", "component": "sw->client0",
                 "params": [["scale", "x"]]},
                "'fault_inject' key 'params' value must be a number, got str",
            ),
            (
                {"op": "fault_inject", "kind": "link.down", "component": "sw->client0",
                 "params": None},
                "'fault_inject' key 'params' must be a list of \\[name, number\\] pairs",
            ),
        ],
        ids=[
            "missing-tenant",
            "op-list",
            "op-object",
            "dt_us-true",
            "dt_us-10**400",
            "dt_us-inf",
            "queue_depth-float",
            "params-value-str",
            "params-null",
        ],
    )
    def test_garbled_action_field_is_refused_by_name(self, action, refusal):
        data = _program(JOIN2).to_dict()
        data["actions"].append(action)
        with pytest.raises(ScenarioProgramError, match=f"action #2 .*{refusal}"):
            ScenarioProgram.from_dict(data)


# ---------------------------------------------------------------------------
# ScenarioConfig plumbing (regression: unknown keys must fail by name)
# ---------------------------------------------------------------------------
class TestScenarioConfigFromDict:
    def test_unknown_config_key_named_in_error(self):
        with pytest.raises(ConfigError, match="totle_ops"):
            ScenarioConfig.from_dict({"totle_ops": 100})

    def test_unknown_qos_param_named_in_error(self):
        # Regression: a typo'd/unsupported qos_params key used to be
        # silently ignored whenever no control plane was built.
        with pytest.raises(ConfigError, match="increese_step"):
            ScenarioConfig(qos_policy="aimd-window", qos_params={"increese_step": 2})

    def test_qos_params_checked_even_without_control_plane(self):
        with pytest.raises(ConfigError, match="static"):
            ScenarioConfig(qos_params={"increase_step": 2})

    def test_params_of_the_wrong_policy_rejected(self):
        with pytest.raises(ConfigError, match="min_share"):
            ScenarioConfig(qos_policy="aimd-window", qos_params={"min_share": 0.1})

    def test_valid_params_accepted(self):
        cfg = ScenarioConfig(qos_policy="slo-guard", qos_params={"min_share": 0.1})
        assert cfg.qos_params == {"min_share": 0.1}

    def test_sub_objects_built_from_plain_dicts(self):
        cfg = ScenarioConfig.from_dict(
            {
                "slos": [{"tenant": "a", "p99_ceiling_us": 500.0}],
                "qos_policy": "slo-guard",
                "retry_policy": {"timeout_us": 900.0},
            }
        )
        assert cfg.slos[0].tenant == "a"
        assert cfg.retry_policy.timeout_us == 900.0

    @pytest.mark.parametrize("window", ["abc", 0, True, -5, 2.5, "auto"])
    def test_window_size_must_be_a_positive_int(self, window):
        program = _program(JOIN2, config={"window_size": 8})
        program.config["window_size"] = window
        with pytest.raises(ConfigError, match=rf"window_size .*\(got {window!r}\)"):
            program.validate()


# ---------------------------------------------------------------------------
# Compiler + replay
# ---------------------------------------------------------------------------
BASE_ACTIONS = (
    TenantJoin(tenant="ls0", priority="latency", total_ops=40),
    TenantJoin(tenant="tc0", priority="throughput"),
    Advance(dt_us=250.0),
    Checkpoint(label="early"),
    AssertInvariant(invariant=INV_BOOKS),
    AssertInvariant(invariant=INV_CID),
    AssertInvariant(invariant=INV_SLO),
    Advance(dt_us=400.0),
    Checkpoint(label="late"),
)


class TestCompilerReplay:
    def test_replay_is_deterministic_across_round_trip(self):
        prog = _program(BASE_ACTIONS)
        first = replay(prog)
        second = replay(ScenarioProgram.from_json(prog.to_json()))
        assert first.digest() == second.digest()

    def test_checkpoints_ride_on_the_digest(self):
        run = replay(_program(BASE_ACTIONS))
        assert [cp.label for cp in run.checkpoints] == ["early", "late"]
        rendered = run.digest().splitlines()
        assert rendered[-2].startswith("checkpoint/early@")
        assert rendered[-1].startswith("checkpoint/late@")
        # Books snapshots are per-tenant and monotone between checkpoints.
        early, late = run.checkpoints
        assert [name for name, *_ in early.books] == ["ls0", "tc0"]
        for (_, i0, c0, f0), (_, i1, c1, f1) in zip(early.books, late.books):
            assert (i1, c1, f1) >= (i0, c0, f0)

    def test_tenant_leave_stops_the_workload_early(self):
        quota = 500
        leave = _program(
            [
                TenantJoin(tenant="ls0", priority="latency", total_ops=quota),
                TenantJoin(tenant="tc0", priority="throughput"),
                Advance(dt_us=300.0),
                TenantLeave(tenant="ls0"),
            ]
        )
        run = replay(leave)
        assert run.scenario.generators_by_name["ls0"].completed < quota

    def test_set_window_changes_the_run(self):
        cfg = {"window_size": 16, "network_gbps": 10.0, "total_ops": 150}
        resize = [
            TenantJoin(tenant="ls0", priority="latency", total_ops=40),
            TenantJoin(tenant="tc0", priority="throughput"),
            Advance(dt_us=100.0),
            SetWindow(tenant="tc0", window=1),
        ]
        base = _program(resize[:-1], config=cfg)
        resized = _program(resize, config=cfg)
        assert replay(base).result.metrics_digest() != replay(resized).result.metrics_digest()

    def test_usage_burst_adds_synthetic_tenant_work(self):
        burst = _program(
            [
                *JOIN2,
                Advance(dt_us=200.0),
                UsageBurst(tenant="b", ops=25, queue_depth=16),
            ]
        )
        run = replay(burst)
        gen = run.scenario.generators_by_name["b#burst0"]
        assert gen.completed == 25

    def test_fault_inject_reaches_the_injector(self):
        prog = _program(
            [
                *JOIN2,
                Advance(dt_us=150.0),
                FaultInject(
                    kind="ssd.latency_spike",
                    component="target0/ssd0",
                    duration_us=300.0,
                    params=(("scale", 6.0),),
                ),
            ],
            config={"retry_policy": {"timeout_us": 4000.0, "jitter_frac": 0.0}},
        )
        run = replay(prog)
        assert "inject ssd.latency_spike" in run.result.fault_trace

    def test_slo_change_swaps_the_live_slo(self):
        prog = _program(
            [
                *JOIN2,
                Advance(dt_us=200.0),
                SloChange(tenant="a", p99_ceiling_us=123.0),
            ],
            config={"qos_policy": "slo-guard"},
        )
        run = replay(prog)
        handle = run.scenario.qos_controller.handle("a")
        assert handle.slo is not None and handle.slo.p99_ceiling_us == 123.0

    def test_compiled_program_runs_once(self):
        compiled = compile_program(_program(JOIN2))
        compiled.run()
        with pytest.raises(ScenarioProgramError, match="only run once"):
            compiled.run()

    def test_invariant_check_catches_cooked_books(self):
        run = replay(_program(JOIN2))
        gen = run.scenario.generators_by_name["b"]
        gen.completed += 1  # cook the books
        with pytest.raises(InvariantViolation, match="completed 51 > issued 50"):
            check_all(run.scenario, run.result)

    def test_unknown_invariant_name(self):
        run = replay(_program(JOIN2))
        with pytest.raises(InvariantViolation, match="unknown invariant"):
            check_invariant("entropy", run.scenario, run.result)


# ---------------------------------------------------------------------------
# Library programs: figure experiments as data
# ---------------------------------------------------------------------------
class TestLibraryPrograms:
    def test_fig7_cell_reproduces_the_golden_digest(self):
        run = replay(fig7_cell_program())
        digest = run.result.metrics_digest()
        assert hashlib.sha256(digest.encode()).hexdigest() == GOLDEN_OPF_DIGEST_SHA256

    def test_qos_guard_program_matches_direct_build(self):
        # Scaled down for test runtime; the program builder and the direct
        # scenario must agree byte-for-byte at any size.
        ops = 1_500
        program_digest = replay(qos_guard_program(total_ops=ops)).result.metrics_digest()
        from repro.core.flags import Priority
        from repro.qos.slo import TenantSlo
        from repro.workloads.mixes import LS_QUEUE_DEPTH, TC_QUEUE_DEPTH, TenantSpec
        from repro.cluster.scenario import Scenario

        cfg = ScenarioConfig(
            protocol="nvme-opf",
            network_gbps=10.0,
            op_mix="read",
            total_ops=ops,
            window_size=16,
            seed=1,
            qos_policy="slo-guard",
            slos=(TenantSlo("ls0", p99_ceiling_us=650.0),),
            qos_interval_us=100.0,
        )
        tenants = [
            TenantSpec("ls0", Priority.LATENCY, LS_QUEUE_DEPTH, "read"),
            TenantSpec("tc0", Priority.THROUGHPUT, TC_QUEUE_DEPTH, "read"),
            TenantSpec(
                "tc1", Priority.THROUGHPUT, TC_QUEUE_DEPTH, "read",
                start_delay_us=10_000.0,
            ),
        ]
        direct_digest = Scenario.two_sided(cfg, tenants).run().metrics_digest()
        assert program_digest == direct_digest

    def test_registration_is_idempotent(self):
        registry = ProgramRegistry()
        register_library_programs(registry)
        register_library_programs(registry)
        assert FIG7_CELL in registry and QOS_GUARD in registry
        assert len(registry) == 3


class TestLocatedActionErrors:
    """Malformed action lists must name the offending index and op."""

    def base(self) -> dict:
        return {
            "format": PROGRAM_FORMAT,
            "name": "locate",
            "config": {"total_ops": 50},
            "actions": [
                {"op": "tenant_join", "tenant": "a", "priority": "throughput"},
                {"op": "advance", "dt_us": 5.0},
            ],
        }

    def test_unknown_op_is_located(self):
        data = self.base()
        data["actions"].append({"op": "warp_drive"})
        with pytest.raises(
            ScenarioProgramError, match=r"action #2 \('warp_drive'\): unknown action op"
        ):
            ScenarioProgram.from_dict(data)

    def test_missing_field_is_located(self):
        data = self.base()
        data["actions"].insert(1, {"op": "slo_change"})
        with pytest.raises(ScenarioProgramError, match=r"action #1 \('slo_change'\)"):
            ScenarioProgram.from_dict(data)

    def test_non_dict_action_is_located(self):
        data = self.base()
        data["actions"].append("not-an-action")
        with pytest.raises(ScenarioProgramError, match=r"action #2 \('\?'\)"):
            ScenarioProgram.from_dict(data)

    def test_non_list_actions_rejected(self):
        data = self.base()
        data["actions"] = {"op": "advance"}
        with pytest.raises(ScenarioProgramError, match="expected a list, got dict"):
            ScenarioProgram.from_dict(data)
