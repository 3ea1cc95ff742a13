#!/usr/bin/env python
"""Substrate benchmark runner: measures the simulation kernel and writes
``BENCH_core.json``.

Unlike the pytest-benchmark files next to it, this is a plain script (no
fixtures, no statistics plugins) so the exact same harness can be run on any
commit.  The committed ``BENCH_core.json`` holds one ``current`` section,
which records the machine it was measured on (CPU count, Python version);
the regression gate refuses to compare wall-clock numbers across different
machines.

Usage::

    python benchmarks/run_benchmarks.py               # full sizes, rewrite 'current'
    python benchmarks/run_benchmarks.py --fast        # CI smoke sizes
    python benchmarks/run_benchmarks.py --fast --check  # regression gate vs
                                                        # the committed baseline

``--check`` exits non-zero when engine event throughput falls more than
``--tolerance`` (default 20%) below the committed ``current`` baseline, or
when batched dispatch drops below the absolute ``ENGINE_CALLBACKS_FLOOR``.
Both gates are skipped, with a notice, when the baseline was recorded on a
different machine.  That the disabled QoS control plane is free is checked
exactly, not timed, by ``tests/test_qos_off_is_free.py``.

Set ``BENCH_SRC=/path/to/other/src`` to benchmark a different source tree
(another checkout, say) with this same harness; the tree must have the
batched kernel (``Environment.call_later`` and ``call_later_batch``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

_SRC = os.environ.get("BENCH_SRC") or str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC)

from repro.net import Fabric
from repro.simcore import Environment, Store
from repro.simcore.rng import RandomStreams
from repro.ssd import NvmeSsd, SsdProfile

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: Absolute floor for batched callback dispatch (events/second).  This is
#: machine-dependent in principle, but the batched fast path clears it by a
#: wide margin on every machine tried so far; scale with --tolerance if a
#: genuinely slower runner ever needs it.
ENGINE_CALLBACKS_FLOOR = 5_000_000


def machine_context() -> dict:
    """Fingerprint of the measuring machine, stored with every section.

    Wall-clock benchmarks are only comparable on the same machine; the gate
    uses this to skip baseline-relative checks after a machine change
    (CI runner refresh, laptop vs container) instead of failing spuriously.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def same_machine(a: dict | None, b: dict | None) -> bool:
    if not a or not b:
        return False
    keys = ("cpu_count", "python", "machine", "system")
    return all(a.get(k) == b.get(k) for k in keys)


def _best_of(fn, repeats: int = 5):
    """Run ``fn`` ``repeats`` times; return (best_elapsed_seconds, result).

    One untimed warm-up run precedes the timed ones: the first execution of
    a bench pays import/allocator costs that would otherwise pollute the
    fastest sample on short CI-sized runs.
    """
    fn()
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, result


# -- microbenchmarks ----------------------------------------------------------

def bench_engine_generator(n: int) -> dict:
    """The generator hot loop: one process yielding ``n`` timeouts."""

    def run():
        env = Environment()

        def ticker(env, count):
            for _ in range(count):
                yield env.timeout(1.0)

        env.process(ticker(env, n))
        env.run()
        return env.now

    elapsed, now = _best_of(run)
    assert now == float(n)
    return {"events": n, "seconds": elapsed, "events_per_sec": n / elapsed}


def bench_engine_callbacks(n: int) -> dict:
    """Batched callback dispatch: ``call_later_batch``.

    This is the shape the hot layers actually use after the batched/array
    refactor — a layer completes a window of items at one timestamp and
    ``call_later_batch`` puts them on one heap entry, which the engine
    dispatches back-to-back without per-item heap traffic.  (Each batch sits
    at its own timestamp, so the speed comes from the batch entry alone.)
    """

    def run():
        env = Environment()
        state = {"count": 0}

        def tick(_arg):
            state["count"] += 1

        chunk = 1_000
        batches = max(1, n // chunk)
        args = tuple(range(chunk))
        for i in range(batches):
            env.call_later_batch(float(i + 1), tick, args)
        env.run()
        return batches * chunk - state["count"]

    elapsed, left = _best_of(run)
    assert left == 0
    return {"events": n, "seconds": elapsed, "events_per_sec": n / elapsed}


def _chained_callbacks(env, n: int) -> int:
    """One completion schedules the next — the pre-batching idiom."""
    state = {"left": n}

    def tick(_arg):
        state["left"] -= 1
        if state["left"] > 0:
            env.call_later(1.0, tick, None)

    env.call_later(1.0, tick, None)
    env.run()
    return state["left"]


def bench_engine_callbacks_chained(n: int) -> dict:
    """The scalar callback hot loop: ``n`` chained completions."""

    def run():
        env = Environment()
        return _chained_callbacks(env, n)

    elapsed, left = _best_of(run)
    assert left == 0
    return {"events": n, "seconds": elapsed, "events_per_sec": n / elapsed}


def bench_store_handoff(n: int) -> dict:
    def run():
        env = Environment()
        store = Store(env)

        def producer(env):
            for i in range(n):
                yield store.put(i)

        def consumer(env):
            for _ in range(n):
                yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        return n

    elapsed, _ = _best_of(run)
    return {"items": n, "seconds": elapsed, "items_per_sec": n / elapsed}


def bench_tcp_bulk(messages: int) -> dict:
    def run():
        env = Environment()
        fabric = Fabric(env, rate_gbps=100)
        fabric.add_node("a")
        fabric.add_node("b")
        sa, sb = fabric.connect("a", "b")
        done = []
        sb.deliver = done.append
        for i in range(messages):
            sa.send_message(i, size=32 * 1024)
        env.run()
        return len(done)

    elapsed, delivered = _best_of(run)
    assert delivered == messages
    return {"messages": messages, "seconds": elapsed}


def bench_ssd_pipeline(total: int) -> dict:
    def run():
        env = Environment()
        ssd = NvmeSsd(env, profile=SsdProfile(channels=8), streams=RandomStreams(1))
        qp = ssd.create_qpair()
        state = {"done": 0, "submitted": 0}

        def refill(completion):
            state["done"] += 1
            if state["submitted"] < total:
                qp.read(1, slba=state["submitted"] % 1000, nlb=1)
                state["submitted"] += 1

        qp.on_completion = refill
        for _ in range(64):
            qp.read(1, slba=0, nlb=1)
            state["submitted"] += 1
        env.run()
        return state["done"]

    elapsed, done = _best_of(run)
    assert done == total
    return {"commands": total, "seconds": elapsed, "commands_per_sec": total / elapsed}


def bench_fig7_sweep(total_ops: int, repeats: int = 2) -> dict:
    """One end-to-end figure-style sweep (the golden-regression scenario)."""
    from repro.cluster.scenario import Scenario, ScenarioConfig
    from repro.workloads.mixes import tenants_for_ratio

    def one(protocol):
        cfg = ScenarioConfig(
            protocol=protocol,
            network_gbps=10.0,
            op_mix="read",
            total_ops=total_ops,
            window_size=16,
            seed=1,
        )
        scenario = Scenario.two_sided(cfg, tenants_for_ratio("1:2", op_mix="read"))
        return scenario.run()

    out = {}
    for protocol in ("spdk", "nvme-opf"):
        elapsed, result = _best_of(lambda p=protocol: one(p), repeats=repeats)
        out[protocol] = {
            "seconds": elapsed,
            "tc_throughput_mbps": result.tc_throughput_mbps,
        }
    return {"total_ops": total_ops, "protocols": out}


# -- driver -------------------------------------------------------------------

def run_all(fast: bool) -> dict:
    scale = 10 if fast else 1
    results = {
        "mode": "fast" if fast else "full",
        "machine": machine_context(),
        "engine_generator": bench_engine_generator(100_000 // scale),
        "engine_callbacks": bench_engine_callbacks(1_000_000 // scale),
        "engine_callbacks_chained": bench_engine_callbacks_chained(100_000 // scale),
        "store_handoff": bench_store_handoff(50_000 // scale),
        "tcp_bulk": bench_tcp_bulk(256 // (2 if fast else 1)),
        "ssd_pipeline": bench_ssd_pipeline(20_000 // scale),
        # Full mode uses 400 ops + best-of-8: at 200 ops the constant
        # scenario-construction cost dilutes kernel-speed differences, and
        # single-digit repeats don't converge on noisy shared machines.
        "fig7_sweep": bench_fig7_sweep(200 if fast else 400, repeats=2 if fast else 8),
    }
    return results


def check(current: dict, committed: dict, tolerance: float) -> int:
    """Regression gate: engine event throughput vs the committed baseline."""
    failures = 0
    baseline = committed.get("current")
    if not baseline:
        print("check: no committed baseline in BENCH_core.json; skipping relative gates")
    elif not same_machine(current.get("machine"), baseline.get("machine")):
        print(
            "check: baseline was recorded on a different machine "
            f"({baseline.get('machine')} vs {current.get('machine')}); "
            "skipping baseline-relative gates (absolute gates still apply)"
        )
        baseline = None

    if baseline:
        for key in ("engine_generator", "engine_callbacks", "engine_callbacks_chained"):
            base = baseline.get(key, {}).get("events_per_sec")
            cur = current.get(key, {}).get("events_per_sec")
            if not base or not cur:
                continue
            floor = base * (1.0 - tolerance)
            status = "ok" if cur >= floor else "REGRESSION"
            print(
                f"check: {key}: {cur:,.0f} ev/s vs baseline {base:,.0f} "
                f"(floor {floor:,.0f}) -> {status}"
            )
            if cur < floor:
                failures += 1
        # Absolute floor for batched dispatch — only meaningful on a machine
        # that demonstrably clears it (the baseline machine does).
        cur = current.get("engine_callbacks", {}).get("events_per_sec")
        if cur:
            floor = ENGINE_CALLBACKS_FLOOR * (1.0 - tolerance)
            status = "ok" if cur >= floor else "REGRESSION"
            print(
                f"check: engine_callbacks absolute: {cur:,.0f} ev/s "
                f"(floor {floor:,.0f}) -> {status}"
            )
            if cur < floor:
                failures += 1
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="CI smoke sizes")
    parser.add_argument("--check", action="store_true", help="regression gate")
    parser.add_argument("--tolerance", type=float, default=0.2)
    parser.add_argument(
        "--save-as",
        choices=["current", "none"],
        default="current",
        help="which BENCH_core.json section to overwrite (none: measure only)",
    )
    args = parser.parse_args()

    current = run_all(fast=args.fast)
    print(json.dumps(current, indent=2))

    committed = {}
    if BENCH_FILE.exists():
        committed = json.loads(BENCH_FILE.read_text())

    if args.check:
        failures = check(current, committed, args.tolerance)
        if failures:
            print(f"check: {failures} benchmark(s) regressed beyond tolerance")
            return 1
        return 0

    if args.save_as != "none":
        committed[args.save_as] = current
        BENCH_FILE.write_text(json.dumps(committed, indent=2) + "\n")
        print(f"wrote {BENCH_FILE} [{args.save_as}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
