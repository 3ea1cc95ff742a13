#!/usr/bin/env python
"""Parallel sweep-runner benchmark: the scaling curve of ``repro.parallel``.

The same Figure-7 sweep runs serially (``workers=0``, the in-process
reference path) and through process pools of 1/2/4/8 workers.  The curve
is recorded in ``BENCH_parallel.json`` together with the measuring
machine's fingerprint, and every pooled digest is checked, always, to be
byte-identical to the serial one.

Usage::

    python benchmarks/bench_parallel.py                # full grid, rewrite 'current'
    python benchmarks/bench_parallel.py --fast         # CI smoke grid
    python benchmarks/bench_parallel.py --fast --check # regression + scaling gate

``--check`` enforces these gates:

* **determinism** (always): pooled campaign digests == the serial
  digests, bit for bit;
* **scaling** (hosts with >= 4 CPUs): >= ``--speedup-floor`` (default 2x)
  wall-clock speedup at 4 pool workers — skipped, loudly, on smaller hosts
  where the target is physically impossible;
* **pool overhead** (always): the 1-worker pool may not cost more than
  ``--overhead-ceiling`` over serial;
* **no serial regression** (same machine as the committed baseline only —
  wall-clock numbers do not transfer across machines): the serial sweep may
  not fall more than ``--tolerance`` below the baseline's units/second.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run_benchmarks import machine_context, same_machine

from repro.experiments.fig7 import fig7_units
from repro.parallel import run_units

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

#: Pool sizes measured for the sweep scaling curve.
WORKER_STEPS = (1, 2, 4, 8)

#: Speedup floor at 4 workers (gated only with >= 4 CPUs).
SPEEDUP_FLOOR = 2.0

#: The 1-worker pool may cost at most this fraction over in-process serial.
OVERHEAD_CEILING = 0.50

FAST_GRID = dict(ratios=("1:1", "1:2", "2:2", "1:4"), speeds=(10.0,), mixes=("read",), total_ops=150)
FULL_GRID = dict(
    ratios=("1:1", "1:2", "2:2", "3:2", "1:3", "2:3", "1:4"),
    speeds=(10.0, 25.0, 100.0),
    mixes=("read", "rw50", "write"),
    total_ops=300,
)


def run_sweep(fast: bool) -> dict:
    grid = FAST_GRID if fast else FULL_GRID
    units = fig7_units(**grid)
    started = time.perf_counter()
    serial = run_units(units, workers=0)
    serial_s = time.perf_counter() - started
    serial.raise_on_failure()
    serial_digest = serial.campaign_digest()

    scaling = []
    digests_identical = True
    for workers in WORKER_STEPS:
        started = time.perf_counter()
        pooled = run_units(units, workers=workers)
        elapsed = time.perf_counter() - started
        pooled.raise_on_failure()
        identical = pooled.campaign_digest() == serial_digest
        digests_identical = digests_identical and identical
        scaling.append(
            {
                "workers": workers,
                "seconds": elapsed,
                "speedup_vs_serial": serial_s / elapsed,
                "digest_identical": identical,
            }
        )
    return {
        "sweep": {"units": len(units), "total_ops": grid["total_ops"]},
        "serial_seconds": serial_s,
        "serial_units_per_sec": len(units) / serial_s,
        "scaling": scaling,
        "digest_identical": digests_identical,
    }


def check(current: dict, committed: dict, tolerance: float, speedup_floor: float,
          overhead_ceiling: float) -> int:
    failures = 0
    cpus = current["machine"]["cpu_count"] or 1

    # Gate 1 (always): parallel output is bit-identical to serial.
    status = "ok" if current["digest_identical"] else "REGRESSION"
    print(f"check: determinism: pooled digests == serial -> {status}")
    if not current["digest_identical"]:
        failures += 1

    # Gate 2: scaling, only meaningful with >= 4 CPUs to scale onto.
    by_workers = {s["workers"]: s for s in current["scaling"]}
    speedup4 = by_workers.get(4, {}).get("speedup_vs_serial")
    if speedup4 is None:
        print("check: scaling: no 4-worker point measured -> SKIPPED")
    elif cpus < 4:
        print(
            f"check: scaling: {speedup4:.2f}x at 4 workers on a {cpus}-CPU host "
            f"-> SKIPPED (floor {speedup_floor:.1f}x needs >= 4 CPUs)"
        )
    else:
        status = "ok" if speedup4 >= speedup_floor else "REGRESSION"
        print(
            f"check: scaling: {speedup4:.2f}x at 4 workers "
            f"(floor {speedup_floor:.1f}x, {cpus} CPUs) -> {status}"
        )
        if speedup4 < speedup_floor:
            failures += 1

    # Gate 3a: the 1-worker pool must stay close to in-process serial.
    one = by_workers.get(1)
    if one:
        overhead = one["seconds"] / current["serial_seconds"] - 1.0
        status = "ok" if overhead <= overhead_ceiling else "REGRESSION"
        print(
            f"check: pool overhead: 1-worker pool adds {overhead:+.1%} over serial "
            f"(ceiling {overhead_ceiling:.0%}) -> {status}"
        )
        if overhead > overhead_ceiling:
            failures += 1

    # Gate 3b: serial throughput vs the committed baseline of the same mode
    # ('current' holds the full grid, 'smoke' the --fast grid) — but only on
    # the machine that recorded it: wall-clock baselines do not transfer.
    baseline = next(
        (
            committed[section]
            for section in ("current", "smoke")
            if committed.get(section, {}).get("mode") == current["mode"]
        ),
        None,
    )
    if not baseline:
        print("check: serial: no comparable committed baseline; skipping")
    elif not same_machine(current.get("machine"), baseline.get("machine")):
        print(
            "check: serial: baseline was recorded on a different machine "
            f"({baseline.get('machine')} vs {current.get('machine')}); "
            "skipping baseline-relative gates (absolute gates still apply)"
        )
    else:
        base_rate = baseline.get("serial_units_per_sec")
        cur_rate = current["serial_units_per_sec"]
        if base_rate:
            floor = base_rate * (1.0 - tolerance)
            status = "ok" if cur_rate >= floor else "REGRESSION"
            print(
                f"check: serial: {cur_rate:.1f} units/s vs baseline {base_rate:.1f} "
                f"(floor {floor:.1f}) -> {status}"
            )
            if cur_rate < floor:
                failures += 1
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="CI smoke grid")
    parser.add_argument("--check", action="store_true", help="regression/scaling gate")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed serial units/s drop vs baseline (cross-machine noise)")
    parser.add_argument("--speedup-floor", type=float, default=SPEEDUP_FLOOR)
    parser.add_argument("--overhead-ceiling", type=float, default=OVERHEAD_CEILING)
    parser.add_argument(
        "--save-as", choices=["current", "smoke", "none"], default=None,
        help="which BENCH_parallel.json section to overwrite "
        "(default: 'current' for the full grid, 'smoke' for --fast; "
        "none: measure only)",
    )
    args = parser.parse_args()

    current = {
        "mode": "fast" if args.fast else "full",
        "machine": machine_context(),
        **run_sweep(fast=args.fast),
        "gates": {
            "speedup_floor_at_4_workers": args.speedup_floor,
            "one_worker_overhead_ceiling": args.overhead_ceiling,
        },
    }
    print(json.dumps(current, indent=2))

    committed = {}
    if BENCH_FILE.exists():
        committed = json.loads(BENCH_FILE.read_text())

    if args.check:
        failures = check(
            current, committed, args.tolerance, args.speedup_floor,
            args.overhead_ceiling,
        )
        if failures:
            print(f"check: {failures} gate(s) failed")
            return 1
        return 0

    save_as = args.save_as or ("smoke" if args.fast else "current")
    if save_as != "none":
        committed[save_as] = current
        BENCH_FILE.write_text(json.dumps(committed, indent=2) + "\n")
        print(f"wrote {BENCH_FILE} [{save_as}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
