"""The whole benchmark in one command: every workload, repeated and traced.

    python3 layerbench/bench_layers.py [--seed N] [--repeats R]
        [--workload W ...] [--out F] [--compare BASE NEW]

For each repeat, every workload runs once untraced through ``run.py``, each
run in a fresh interpreter, one at a time.  Repeats go round-robin across
the workloads, so a slow window on a shared machine hits all of them alike.
Then each workload runs once traced.  The command prints the median and
interquartile range of every end-to-end metric and the traced per-layer
metrics, writes them with the machine's fingerprint to ``--out``, and exits
1 if any run produced a wrong output.

``--compare BASE NEW`` reads two such records instead and prints, for each
workload and end-to-end metric, both medians, both spreads and a verdict
(see ``verdict``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: List[float]) -> Dict[str, object]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` subprocess: its result line, detail line and exit code."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    details = [ln[len("detail "):] for ln in lines if ln.startswith("detail ")]
    if not details:
        return {"returncode": proc.returncode, "correct": False, "failed": 1, "attempted": 1,
                "metrics": {}, "detail": {"problems": [proc.stderr.strip()[-2000:]]}}
    result = json.loads(lines[-1])
    result["detail"] = json.loads(details[-1])
    result["returncode"] = proc.returncode
    return result


def run_all(workloads: List[str], seed: int, repeats: int, spec: dict) -> dict:
    seconds = spec["run_seconds"]
    runs: Dict[str, List[dict]] = {w: [] for w in workloads}
    for r in range(repeats):
        for w in workloads:
            print(f"[{r + 1}/{repeats}] {w} untraced", file=sys.stderr, flush=True)
            runs[w].append(run_once(w, seed, seconds, 0))
    record = {"seed": seed, "repeats": repeats, "run_seconds": seconds, "workloads": {}}
    for w in workloads:
        print(f"[traced] {w}", file=sys.stderr, flush=True)
        traced = run_once(w, seed, seconds, 1)
        good = [run for run in runs[w] if run["metrics"]]
        everything = runs[w] + [traced]
        end_to_end, extras = {}, {}
        if len(good) >= 2:
            for m in spec["end_to_end"]:
                values = [run["metrics"][m["name"]]["value"] for run in good]
                end_to_end[m["name"]] = {"unit": m["unit"], **summarize(values)}
            # Which step percentile a run can report depends on its sample
            # count, so keep the extras every run has.
            names = set.intersection(*(set(run["detail"]["extras"]) for run in good))
            for name in sorted(names):
                entries = [run["detail"]["extras"][name] for run in good]
                extras[name] = {"unit": entries[0]["unit"],
                                "median": statistics.median(e["value"] for e in entries)}
        record["workloads"][w] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "extras": extras,
            "digests": sorted({run["detail"].get("digest") for run in everything} - {None}),
            "attempted": sum(run["attempted"] for run in everything),
            "failed": sum(run["failed"] for run in everything),
            "problems": [p for run in everything for p in run["detail"]["problems"]],
            "ok": all(run["correct"] and run["returncode"] == 0 for run in everything),
        }
    return record


def print_record(record: dict) -> None:
    print(f"{'workload':<20} {'metric':<16} {'median':>14} {'IQR':>8}  unit")
    for w, data in record["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{w:<20} {name:<16} {s['median']:>14.6g} {s['iqr_frac']:>8.2%}  {s['unit']}")
        print(f"{w:<20} {'failed_frac':<16} {data['failed'] / data['attempted']:>14.6g}")
    names = list(record["workloads"])
    print()
    print(f"{'per-layer (traced) / extras (median)':<34}" + "".join(f"{w[:18]:>19}" for w in names))
    rows: Dict[str, Dict[str, float]] = {}
    for w, data in record["workloads"].items():
        for name, entry in {**data["per_layer"], **data["extras"]}.items():
            rows.setdefault(f"{name} [{entry['unit']}]", {})[w] = entry.get(
                "value", entry.get("median"))
    for row, values in rows.items():
        cells = "".join(
            f"{values[w]:>19.6g}" if w in values else f"{'-':>19}" for w in names)
        print(f"{row:<34}{cells}")
    for w, data in record["workloads"].items():
        for problem in data["problems"]:
            print(f"FAILED {w}: {problem}")


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one workload and metric.

    When either side's spread (IQR / median) exceeds the bound, the result
    is unresolved unless every run of one side beats every run of the
    other.  Otherwise the new side is worse when its median is worse by
    more than the bound, and better when it wins at least nine tenths of
    all (base, new) pairs and the medians differ by more than the base's
    own interquartile range.
    """
    sign = 1.0 if better == "higher" else -1.0
    b, n = summarize(base), summarize(new)
    if max(b["iqr_frac"], n["iqr_frac"]) > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "better"
        if max(sign * v for v in new) < min(sign * v for v in base):
            return "worse"
        return "unresolved"
    gain = sign * (n["median"] - b["median"])
    if gain < -bound * b["median"]:
        return "worse"
    wins = sum(sign * x > sign * y for x in new for y in base) / (len(new) * len(base))
    if wins >= 0.9 and gain > b["q3"] - b["q1"]:
        return "better"
    return "unchanged"


def compare(base: dict, new: dict, spec: dict) -> List[str]:
    rows = [f"{'workload':<20} {'metric':<16} {'base':>12} {'IQR':>7} {'new':>12} {'IQR':>7} "
            f"{'change':>8}  verdict"]
    for w, b_data in base["workloads"].items():
        n_data = new["workloads"].get(w)
        if n_data is None:
            continue
        for m in spec["end_to_end"]:
            b, n = b_data["end_to_end"].get(m["name"]), n_data["end_to_end"].get(m["name"])
            if b is None or n is None:
                continue
            change = n["median"] / b["median"] - 1.0
            rows.append(
                f"{w:<20} {m['name']:<16} {b['median']:>12.6g} {b['iqr_frac']:>7.2%} "
                f"{n['median']:>12.6g} {n['iqr_frac']:>7.2%} {change:>+8.2%}  "
                + verdict(b["values"], n["values"], m["better"], m["bound"])
            )
    return rows


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        base, new = (json.loads(p.read_text()) for p in args.compare)
        print("\n".join(compare(base, new, spec)))
        return 0
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 to give an interquartile range")

    # The same machine fingerprint BENCH_core.json records carry.
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from run_benchmarks import machine_context

    record = {"machine": machine_context(), **run_all(args.workload, args.seed, args.repeats, spec)}
    print_record(record)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if all(data["ok"] for data in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
