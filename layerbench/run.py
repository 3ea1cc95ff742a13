"""One benchmark run: one workload, one seed, a fixed measuring time.

    python3 layerbench/run.py --workload opf-read --seed 1 --seconds 15 --trace 0

The run repeats the workload's unit (see ``workloads.py``) until
``--seconds`` have passed, and at least three times.

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: the
  median unit throughput, the median step latency, the median of seven
  cold-start set-ups (each in its own interpreter, spread over the run),
  and the peak RSS.
* ``--trace 1`` reports the per-layer metrics: three untraced units give
  the reference time and digest, then units run under ``cProfile`` for the
  rest of the time and ``layers.py`` attributes them.

Every unit is checked: its invariants and TC quotas hold, its digest equals
the other repeats' and, for a seed in ``pins.json``, the pinned one, and a
traced unit's digest equals the untraced one.  The run prints every metric
by name and unit, a ``detail`` JSON line (digest, problems, span and
simulated outputs), and last a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  It exits 1 when an output was wrong and 2 when
the simulator's source tree is missing.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as clock
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_UNITS = 3
SETUP_PROBES = 7
#: Percentiles reported for step latency, highest first; a run reports the
#: highest one that still has at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0)


def run_units(workload, inputs, seconds: float, min_units: int, profile=None, between=None):
    """Repeat the unit until ``seconds`` pass; returns ``[(unit, seconds)]``.

    ``between(elapsed)``, if given, runs untimed before each unit.
    """
    done: List[Tuple[object, float]] = []
    start = clock()
    while len(done) < min_units or clock() - start < seconds:
        if between is not None:
            between(clock() - start)
        # The previous unit's scenario is cyclic garbage; collect it here so
        # no unit pays for another's, as a one-scenario process never does.
        gc.collect()
        if profile is not None:
            profile.enable()
        t0 = clock()
        unit = workload.run_unit(inputs)
        elapsed = clock() - t0
        if profile is not None:
            profile.disable()
        done.append((unit, elapsed))
    return done


def verify(units, expected: str):
    """Correctness of a run's units: ``(problems, attempted, failed)``.

    A unit whose digest is not ``expected`` or that broke a check counts
    every op it attempted as failed.
    """
    problems: List[str] = []
    attempted = failed = 0
    for i, (unit, _seconds) in enumerate(units):
        attempted += unit.ops + unit.failed_ops
        failed += unit.failed_ops
        wrong = list(unit.problems)
        if unit.digest != expected:
            wrong.append(f"digest {unit.digest[:16]} != expected {expected[:16]}")
        if wrong:
            failed += unit.ops
            problems.extend(f"unit {i}: {p}" for p in wrong)
    return problems, attempted, failed


def extras(units) -> Dict[str, Dict[str, object]]:
    """Host-time span medians, the step tail and the simulated outputs of
    untraced units, each with its unit."""
    import workloads

    out: Dict[str, Dict[str, object]] = {}
    steps = [s for unit, _ in units for s in unit.steps]
    for pct in TAIL_PERCENTILES:
        if len(steps) * (100.0 - pct) / 100.0 >= 10:
            cut = statistics.quantiles(steps, n=1000, method="inclusive")
            out[f"step_p{pct:g}_ms"] = {"value": 1e3 * cut[int(pct * 10) - 1], "unit": "ms"}
            break
    spans: Dict[str, List[float]] = {}
    for unit, _ in units:
        for name, samples in unit.spans.items():
            spans.setdefault(name, []).extend(samples)
    for name, samples in sorted(spans.items()):
        out[f"{name}_ms_p50"] = {"value": 1e3 * statistics.median(samples), "unit": "ms"}
    for name, value in sorted(units[0][0].sim.items()):
        out[name] = {"value": value, "unit": workloads.SIM_UNITS[name]}
    return out


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from a fresh interpreter's first line to the first scenario ready."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(proc.stdout.split()[-1])


def measure_end_to_end(workload, seed: int, seconds: float):
    setups: List[float] = []

    def probe_when_due(elapsed: float) -> None:
        # Spread the probes over the run: the host's speed drifts, and the
        # set-up samples should see the same conditions as the units.
        if len(setups) < SETUP_PROBES and elapsed >= len(setups) * seconds / SETUP_PROBES:
            setups.append(probe_setup(workload.name, seed))

    inputs = workload.inputs(seed, workload.size)
    units = run_units(workload, inputs, seconds, MIN_UNITS, between=probe_when_due)
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(workload.name, seed))
    steps = [s for unit, _ in units for s in unit.steps]
    metrics = {
        "sim_ops_per_s": statistics.median(u.ops / s for u, s in units),
        "step_p50_ms": 1e3 * statistics.median(steps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return units, None, metrics


def measure_layers(workload, seed: int, seconds: float):
    from layers import layer_metrics

    inputs = workload.inputs(seed, workload.size)
    start = clock()
    untraced = run_units(workload, inputs, 0.0, MIN_UNITS)
    profile = cProfile.Profile()
    traced = run_units(workload, inputs, seconds - (clock() - start), 1, profile)
    ops = sum(unit.ops for unit, _ in traced)
    metrics = layer_metrics(profile, ops)
    base_s = statistics.median(s for _, s in untraced)
    entries_per_unit = metrics["simcore.entries_per_op"] * ops / len(traced)
    metrics["simcore.events_per_s"] = entries_per_unit / base_s
    metrics["trace.overhead"] = statistics.median(s for _, s in traced) / base_s
    return untraced, traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro").is_dir():
        print(f"error: simulator source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "pins.json").read_text())
    pin = pins.get(workload.name, {}).get(str(args.seed))

    if args.trace:
        untraced, traced, values = measure_layers(workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        untraced, traced, values = measure_end_to_end(workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]

    digest = untraced[0][0].digest
    problems, attempted, failed = verify(untraced, pin or digest)
    if traced is not None:
        # Trace-neutral: profiling must not change a single simulated result.
        traced_problems, traced_attempted, traced_failed = verify(traced, digest)
        problems += [f"traced {p}" for p in traced_problems]
        attempted += traced_attempted
        failed += traced_failed

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "units": len(untraced) + len(traced or ()),
        "digest": digest,
        "pinned": pin is not None,
        "problems": problems,
        "extras": extras(untraced),
    }
    for name, entry in {**metrics, **detail["extras"]}.items():
        print(f"{name:<34} {entry['value']:>16.6g} {entry['unit']}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
