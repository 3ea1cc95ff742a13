"""Determinism audit: no hidden entropy sources, identical runs bit-match.

Every random draw in the simulator must come from a named
:class:`repro.simcore.rng.RandomStreams` stream — that is what makes
fault schedules replayable and A/B comparisons honest.  This module
enforces it two ways: a source scan for forbidden entropy APIs, and a
run-twice/compare-digests check over both protocol stacks.
"""

import re
from pathlib import Path

import pytest

from repro.cluster.scenario import Scenario, ScenarioConfig
from repro.workloads.mixes import tenants_for_ratio

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Entropy APIs that would silently break same-seed reproducibility.
FORBIDDEN = (
    (re.compile(r"^\s*(import random\b|from random import)"), "stdlib random module"),
    (re.compile(r"np\.random\.(?!Generator)"), "global numpy random state"),
    (re.compile(r"numpy\.random\.(?!Generator)"), "global numpy random state"),
    (re.compile(r"default_rng\(\s*\)"), "unseeded default_rng()"),
    (re.compile(r"\btime\.time\(|\bperf_counter\("), "wall-clock time"),
    (re.compile(r"os\.urandom|\buuid4\("), "OS entropy"),
)

#: The seeded stream factory is the one place numpy's RNG may be touched;
#: the experiment runner and the fuzz campaign read the wall clock only to
#: print progress timing, never to drive simulation state; the scenario
#: generator constructs explicitly-seeded ``random.Random(seed)`` instances
#: and never touches the module-level functions (generated programs are a
#: pure function of the seed — pinned by tests/test_scenario_fuzz_golden.py).
#: The parallel campaign runner reads the wall clock only for elapsed-time
#: provenance (``elapsed_s``/``attempts``/``worker_pid``), which the
#: differential suite pins as *excluded* from every campaign digest.
ALLOWED = {
    "simcore/rng.py",
    "experiments/runner.py",
    "experiments/fuzz.py",
    "scenarios/generate.py",
    "parallel/pool.py",
    "parallel/units.py",
}


def test_source_tree_has_no_unseeded_randomness():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = path.relative_to(SRC_ROOT).as_posix()
        if rel in ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for pattern, why in FORBIDDEN:
                if pattern.search(line):
                    offenders.append(f"{rel}:{lineno}: {why}: {line.strip()}")
    assert not offenders, "unseeded entropy found:\n" + "\n".join(offenders)


def _run(protocol, seed):
    cfg = ScenarioConfig(
        protocol=protocol,
        network_gbps=10.0,
        op_mix="read",
        total_ops=120,
        window_size=16,
        seed=seed,
    )
    scenario = Scenario.two_sided(cfg, tenants_for_ratio("1:2", op_mix="read"))
    return scenario.run()


@pytest.mark.parametrize("protocol", ["spdk", "nvme-opf"])
def test_identical_runs_produce_identical_metrics(protocol):
    one = _run(protocol, seed=9)
    two = _run(protocol, seed=9)
    assert one.metrics_digest() == two.metrics_digest()


def test_different_seeds_actually_differ():
    # Guards against a digest that ignores the metrics it claims to cover.
    one = _run("spdk", seed=9)
    other = _run("spdk", seed=10)
    assert one.metrics_digest() != other.metrics_digest()
