"""Tests for scale-out topologies, scaling patterns and the experiments harnesses."""

import hashlib

import pytest

from repro.cluster import (
    Scenario,
    ScenarioConfig,
    ScenarioSpec,
    TenantPlacement,
    build_scaleout,
    scale_curve,
    tenants_for_node,
)
from repro.core.flags import Priority
from repro.errors import ConfigError
from repro.workloads.mixes import TenantSpec, tenants_for_ratio


# ------------------------------------------------------------- scaling ----
def test_tenants_for_node_composition():
    tenants = tenants_for_node(0, 5, "read", include_ls=True)
    assert len(tenants) == 5
    assert sum(t.is_latency_sensitive for t in tenants) == 1
    assert tenants[0].is_latency_sensitive  # one LS, then TC


def test_tenants_for_node_single_initiator_is_tc():
    tenants = tenants_for_node(2, 1, "write", include_ls=True)
    assert len(tenants) == 1
    assert not tenants[0].is_latency_sensitive


def test_tenants_for_node_without_ls():
    tenants = tenants_for_node(0, 4, "read", include_ls=False)
    assert len(tenants) == 4
    assert not any(t.is_latency_sensitive for t in tenants)


def test_tenants_for_node_validation():
    with pytest.raises(ConfigError):
        tenants_for_node(0, 0, "read")


def test_build_scaleout_wiring():
    cfg = ScenarioConfig(protocol="spdk", total_ops=40, warmup_us=0)
    sc = build_scaleout(cfg, n_node_pairs=2, initiators_per_node=2)
    res = sc.run()
    assert len(sc.target_nodes) == 2
    assert len(sc.initiator_nodes) == 2
    assert res.commands_received >= 80  # 2 TC x 40 (plus LS traffic)
    with pytest.raises(ConfigError):
        build_scaleout(cfg, 0, 1)


_TC = TenantSpec("tc0", Priority.THROUGHPUT, 32)
_TARGET = ("target", "target0", 1)
_CLIENT = ("initiator", "client0", 0)


@pytest.mark.parametrize(
    "nodes, placements, offender",
    [
        ((_TARGET, ("switch", "sw0", 0)), (), "'switch'"),
        ((_TARGET, _CLIENT, ("target", "client0", 1)), (), "'client0'"),
        (
            (_TARGET, _CLIENT),
            (
                TenantPlacement(_TC, "client0", "target0", 1),
                TenantPlacement(_TC, "client0", "target0", 1),
            ),
            "'tc0'",
        ),
        ((_TARGET, _CLIENT), (TenantPlacement(_TC, "client9", "target0", 1),), "'client9'"),
        (
            (_TARGET, _CLIENT),
            (TenantPlacement(_TC, "client0", "client0", 1),),
            "target node 'client0'",
        ),
    ],
    ids=[
        "unknown-node-kind",
        "duplicate-node",
        "duplicate-tenant",
        "unknown-initiator",
        "unknown-target",
    ],
)
def test_scenario_spec_refuses_bad_topologies(nodes, placements, offender):
    with pytest.raises(ConfigError, match=offender):
        ScenarioSpec(ScenarioConfig(), nodes, placements)


def test_two_sided_refuses_a_tenant_op_mix_the_result_would_not_report():
    # tenants_for_ratio defaults to reads: this scenario would run only
    # reads under a config that names "write".
    cfg = ScenarioConfig(op_mix="write", total_ops=20, warmup_us=0)
    with pytest.raises(ConfigError, match=r"tenant 'ls0' runs op_mix 'read'.*'write'"):
        Scenario.two_sided(cfg, tenants_for_ratio("1:2"))
    sc = Scenario.two_sided(cfg, tenants_for_ratio("1:2", op_mix="write"))
    sc.run()
    for name in ("ls0", "tc0", "tc1"):
        summary = sc.collector.summary(name)
        assert summary.reads == 0 and summary.writes > 0


#: sha256 of ``metrics_digest()`` for a 2-pair x 3-initiator scale-out
#: (one LS + two TC tenants per node, rw50, 60 ops, seed 1).  It pins the
#: interleaved target/client/tenant construction order of the scale-out
#: topology; a drift means that order (or the simulation) changed.
SCALEOUT_DIGEST_SHA256 = {
    "spdk": "90377468a700cdcb192d7c256aa001404e242c16ddc4eb88e3710316a49ab53f",
    "nvme-opf": "11cf15a61fa1c9df06318dc218fd4e4d936d8f3f4068ccc0c408eebd086a2a89",
}


@pytest.mark.parametrize("protocol", sorted(SCALEOUT_DIGEST_SHA256))
def test_build_scaleout_digest_is_pinned(protocol):
    cfg = ScenarioConfig(protocol=protocol, network_gbps=100.0, op_mix="rw50",
                         total_ops=60, window_size=32, seed=1)
    digest = build_scaleout(cfg, 2, 3, include_ls=True).run().metrics_digest()
    assert hashlib.sha256(digest.encode()).hexdigest() == SCALEOUT_DIGEST_SHA256[protocol]


def test_pattern1_point_counts():
    points = scale_curve("spdk", "read", [(2, 1), (2, 2)], include_ls=True, total_ops=40)
    assert [p.total_initiators for p in points] == [2, 4]
    assert all(p.throughput_mbps > 0 for p in points)


def test_pattern2_point_counts():
    points = scale_curve("nvme-opf", "read", [(1, 2), (2, 2)], include_ls=False, total_ops=40)
    assert [p.total_initiators for p in points] == [2, 4]
    # Adding a node pair adds hardware: throughput roughly scales.
    assert points[1].throughput_mbps > points[0].throughput_mbps * 1.5


# ------------------------------------------------------------ experiments ----
def test_fig6c_smoke():
    from repro.experiments import run_fig6c

    points = run_fig6c(windows=(16,), total_ops=64)
    labels = {p.label for p in points}
    assert labels == {"spdk-qd1", "spdk-qd128", "opf-w16"}
    opf = next(p for p in points if p.label == "opf-w16" and p.op_mix == "read")
    spdk = next(p for p in points if p.label == "spdk-qd128" and p.op_mix == "read")
    assert opf.notifications < spdk.notifications


def test_fig7_smoke_and_helpers():
    from repro.experiments import mean_tail_reduction, pair_up, run_fig7

    points = run_fig7(ratios=("1:1",), speeds=(100.0,), mixes=("read",), total_ops=80)
    assert len(points) == 2
    pairs = pair_up(points)
    assert len(pairs) == 1
    assert mean_tail_reduction(points) != 0.0


def test_fig8_smoke():
    from repro.experiments import run_fig8

    curves = run_fig8(mixes=("read",), patterns=(2,), pairs_range=[1], total_ops=60)
    assert len(curves) == 2
    for curve in curves:
        assert curve.points[0].throughput_mbps > 0


def test_fig9_smoke():
    from repro.experiments import run_fig9

    points = run_fig9(
        modes=("write",), patterns=(2,), n_node_pairs=1, ranks_per_node_max=2,
        particles_per_rank=4096, timesteps=1, dataset_load_us=100.0,
    )
    assert len(points) == 2
    assert all(p.bandwidth_mbps > 0 for p in points)


def test_table1_contains_paper_values():
    from repro.experiments import table1_rows

    text = str(table1_rows())
    for needle in ("EPYC 7352", "EPYC 7543", "256GB", "3.2 TB", "1.6 TB"):
        assert needle in text


def test_runner_cli_quick_table1(capsys):
    from repro.experiments.runner import main

    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out


def test_paper_targets_registry():
    from repro.experiments import PAPER_TARGETS

    assert "fig7_read_100g_1_4" in PAPER_TARGETS
    target = PAPER_TARGETS["fig7_read_100g_1_4"]
    assert target.value == 49.5
    assert target.kind == "gain_pct"
    # Every figure of the evaluation is represented.
    figures = {t.figure[0] for t in PAPER_TARGETS.values()}
    assert {"6", "7", "8", "9"} <= figures


def test_validation_scorecard_all_pass():
    from repro.experiments.validate import format_validation, run_validation

    entries = run_validation(total_ops=250)
    assert len(entries) == 10
    assert all(e.ok for e in entries), [e.target_id for e in entries if not e.ok]
    text = format_validation(entries)
    assert "PASS" in text and "FAIL" not in text


def test_random_pattern_scenario():
    from repro.workloads import tenants_for_ratio

    cfg = ScenarioConfig(protocol="nvme-opf", pattern="rand", total_ops=120,
                         warmup_us=0, seed=9)
    sc = Scenario.two_sided(cfg, tenants_for_ratio("0:1"))
    res = sc.run()
    assert res.tc_throughput_mbps > 0
    gen = sc.generators[0]
    assert gen.pattern.kind == "rand"
