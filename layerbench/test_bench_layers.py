"""Self-tests of the benchmark harness, at reduced workload sizes.

    python3 -m pytest -q layerbench/test_bench_layers.py
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_layers  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import Scenario, ScenarioConfig, tenants_for_ratio  # noqa: E402
from repro.service.session import SimSession  # noqa: E402

#: Unit sizes small enough for a test, large enough to reach every phase.
SMALL = {
    "opf-read": 300,
    "spdk-rw50-scaleout": 40,
    "session-qos": 600,
    "program-campaign": 6,
}


def _profiled(fn):
    profile = cProfile.Profile()
    profile.enable()
    try:
        value = fn()
    finally:
        profile.disable()
    return profile, value


def _check_entry_accounting(profile, env, ops):
    entries = layers.attribute(pstats.Stats(profile).stats)["entries"]
    # Each heap entry takes one sequence number; the run drained the heap.
    assert len(env) == 0
    assert sum(entries.values()) == env._seq
    metrics = layers.layer_metrics(profile, ops)
    parts = metrics["simcore.event_entries_per_op"] + sum(
        metrics[f"{layer}.entries_per_op"] for layer in layers.LAYERS if layer != "simcore"
    )
    assert parts == pytest.approx(metrics["simcore.entries_per_op"])
    assert metrics["simcore.entries_per_op"] == pytest.approx(env._seq / ops)
    shares = sum(metrics[f"{layer}.self_share"] for layer in layers.LAYERS)
    assert shares == pytest.approx(1.0)


@pytest.mark.parametrize("protocol", ["nvme-opf", "spdk"])
def test_entry_attribution_equals_engine_count_on_fig7_cell(protocol):
    cfg = ScenarioConfig(
        protocol=protocol, network_gbps=10.0, op_mix="read", total_ops=200, window_size=16, seed=1
    )
    scenario = Scenario.two_sided(cfg, tenants_for_ratio("1:2"))
    profile, result = _profiled(scenario.run)
    _check_entry_accounting(profile, scenario.env, result.goodput_ops)


def test_entry_attribution_equals_engine_count_on_advance_path():
    w = workloads.WORKLOADS["session-qos"]
    session = SimSession(w.inputs(1, SMALL[w.name]))

    def drive():
        while not session.finished:
            session.advance(max_events=workloads.SLICE_ENTRIES)

    profile, _ = _profiled(drive)
    assert session.state == "finished"
    ops = session.status()["completed"]
    _check_entry_accounting(profile, session.env, ops)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_units_agree(name):
    w = workloads.WORKLOADS[name]
    inputs = w.inputs(3, SMALL[name])
    untraced = w.run_unit(inputs)
    _, traced = _profiled(lambda: w.run_unit(inputs))
    assert untraced.problems == [] and traced.problems == []
    assert untraced.ops > 0 and untraced.failed_ops == 0
    assert traced.digest == untraced.digest
    assert traced.ops == untraced.ops


def test_campaign_pool_is_clean():
    """Every program a seed can draw replays with invariants holding and
    no failed command, so no seed can make the campaign fail."""
    w = workloads.WORKLOADS["program-campaign"]
    unit = w.run_unit(w.inputs(0, workloads.CAMPAIGN_POOL))
    assert unit.problems == []
    assert unit.failed_ops == 0


def test_tampered_pin_counts_every_op_failed():
    w = workloads.WORKLOADS["opf-read"]
    units = run.run_units(w, w.inputs(1, SMALL["opf-read"]), 0.0, 2)
    problems, attempted, failed = run.verify(units, units[0][0].digest)
    assert (problems, failed) == ([], 0)
    problems, attempted, failed = run.verify(units, "0" * 64)
    assert len(problems) == 2
    assert failed == attempted > 0


def _bench_copy(tmp_path: Path) -> Path:
    """A checkout holding only BENCHMARK.json and the benchmark directory."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / HERE.name / "run.py"


def test_tampered_pin_makes_the_command_exit_nonzero(tmp_path):
    script = _bench_copy(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    (script.parent / "pins.json").write_text(json.dumps({"program-campaign": {"1": "0" * 64}}))
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "program-campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_command_refuses_a_checkout_without_the_simulator(tmp_path):
    script = _bench_copy(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "opf-read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        # Tight spreads, 20% faster on every run: a gain.
        ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], "higher", "better"),
        # Tight spreads, 20% slower: beyond the 10% bound.
        ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", "worse"),
        # Within the bound and inside the base's own spread.
        ([100, 102, 98, 101, 99], [101, 103, 99, 100, 98], "higher", "unchanged"),
        # Lower-is-better metrics flip the direction.
        ([10.0, 10.1, 9.9, 10.0, 10.0], [8.0, 8.1, 7.9, 8.0, 8.0], "lower", "better"),
        # Spread wider than the bound and the runs overlap: unresolved.
        ([100, 140, 70, 120, 90], [95, 150, 60, 110, 85], "higher", "unresolved"),
        # Spread wider than the bound, yet every new run beats every base run.
        ([100, 140, 70, 120, 90], [200, 260, 150, 230, 170], "higher", "better"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert bench_layers.verdict(base, new, better, 0.10) == expected


def test_compare_prints_one_row_per_workload_and_metric():
    spec = bench_layers.load_spec()

    def record(scale):
        e2e = {m["name"]: {"unit": m["unit"], **bench_layers.summarize([scale * v for v in
                                                                        (1.0, 1.01, 0.99)])}
               for m in spec["end_to_end"]}
        return {"workloads": {w["name"]: {"end_to_end": e2e} for w in spec["workloads"]}}

    rows = bench_layers.compare(record(1.0), record(1.0), spec)
    assert len(rows) == 1 + len(spec["workloads"]) * len(spec["end_to_end"])
    assert all(row.endswith("unchanged") for row in rows[1:])
