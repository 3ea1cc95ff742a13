"""Command-line entry point: regenerate any table/figure of the paper.

Installed as the ``nvme-opf`` console script::

    nvme-opf table1
    nvme-opf fig6a            # full-size run
    nvme-opf fig7 --quick     # reduced grid for a fast look
    nvme-opf fig7 --workers 4 # fan sweep points out to 4 processes
    nvme-opf all --quick

``--quick`` shrinks op counts and grids (same code paths, smaller numbers);
full runs match the sizes used for EXPERIMENTS.md.  The sweep-shaped
experiments (fig7, fig8, fig9, fuzz) always run as a list of work units
(``fig7_units`` and friends) through ``repro.parallel.run_campaign``:
``--workers`` 0 or 1 runs them in-process, ``--workers N`` on a pool of N
processes, and the merge is keyed by work-unit id, so results are
bit-identical either way.  Point experiments (table1, fig6*, qos,
validate) ignore ``--workers``.

``serve`` starts the simulation service instead of an experiment::

    nvme-opf serve --port 8080 --workers 4

hosting scenario programs over HTTP (see ``repro.service``); here
``--workers`` sizes the session-slicing *thread* pool, not the process
pool, and defaults to 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List

from ..errors import ConfigError
from ..parallel.pool import check_cli_workers
from .fig6 import run_fig6a, run_fig6b, run_fig6c
from .fig7 import run_fig7
from .fig8 import run_fig8
from .fig9 import run_fig9
from .fuzz import run_fuzz
from .qos import run_qos_aimd, run_qos_guard
from .table1 import run_table1


def _fig6a(quick: bool, workers: int):
    return run_fig6a(
        windows=(1, 4, 16, 32, 64) if quick else (1, 2, 4, 8, 16, 32, 64),
        total_ops=300 if quick else 1200,
        print_table=True,
    )


def _fig6b(quick: bool, workers: int):
    return run_fig6b(
        windows=(1, 4, 16, 32, 64) if quick else (1, 2, 4, 8, 16, 32, 64),
        total_ops=300 if quick else 1200,
        print_table=True,
    )


def _fig6c(quick: bool, workers: int):
    return run_fig6c(total_ops=320 if quick else 1280, print_table=True)


def _fig7(quick: bool, workers: int):
    return run_fig7(
        ratios=("1:1", "2:2", "1:4") if quick else ("1:1", "1:2", "2:2", "3:2", "1:3", "2:3", "1:4"),
        total_ops=300 if quick else 1000,
        workers=workers,
        print_table=True,
    )


def _fig8(quick: bool, workers: int):
    return run_fig8(
        per_node_range=[1, 3, 5] if quick else [1, 2, 3, 4, 5],
        pairs_range=[1, 3, 5] if quick else [1, 2, 3, 4, 5],
        total_ops=300 if quick else 600,
        workers=workers,
        print_table=True,
    )


def _fig9(quick: bool, workers: int):
    # Coalescing needs several windows' worth of I/O per timestep to pay
    # off; quick mode scales the dataset-loading overhead down with the
    # particle count so read bandwidth stays interpretable.
    return run_fig9(
        n_node_pairs=2 if quick else 4,
        ranks_per_node_max=4 if quick else 10,
        particles_per_rank=64 * 1024 if quick else 256 * 1024,
        dataset_load_us=6_000.0 if quick else 25_000.0,
        workers=workers,
        print_table=True,
    )


def _qos(quick: bool, workers: int):
    run_qos_guard(total_ops=4_000 if quick else 9_000, print_table=True)
    print()
    run_qos_aimd(total_ops_online=4_000 if quick else 8_000, print_table=True)
    return None


def _fuzz(quick: bool, workers: int):
    result = run_fuzz(
        n_programs=100 if quick else 500, workers=workers, print_table=True
    )
    if not result.ok:
        raise SystemExit(1)
    return None


def _validate(quick: bool, workers: int):
    from .validate import main_validate

    main_validate(total_ops=300 if quick else 600)
    return None


#: Experiments that run as a unit list (and so can use a pool); the rest
#: accept --workers but run serially (single points or short sweeps).
PARALLEL_EXPERIMENTS = frozenset({"fig7", "fig8", "fig9", "fuzz"})

EXPERIMENTS: Dict[str, Callable[[bool, int], None]] = {
    "table1": lambda quick, workers: (run_table1(), None)[1],
    "fig6a": _fig6a,
    "fig6b": _fig6b,
    "fig6c": _fig6c,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "qos": _qos,
    "fuzz": _fuzz,
    "validate": _validate,
}


def _serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: host the simulation service over HTTP."""
    from ..service import ServiceServer

    workers = args.workers if args.workers else 2
    try:
        server = ServiceServer(host=args.host, port=args.port, workers=workers)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"simulation service listening on {server.address} "
          f"({workers} worker thread{'s' if workers != 1 else ''})")
    # Flush before blocking in serve_forever: under a pipe (logging, CI)
    # the banner must reach the reader before the first request.
    print("POST a scenario program to /sessions to start a run; Ctrl-C stops.",
          flush=True)
    server.serve_forever()
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nvme-opf",
        description="Regenerate the NVMe-oPF paper's tables and figures (simulation).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "serve"],
        help="which table/figure to regenerate (or 'serve' to host the "
        "simulation service)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced grids/op counts for a fast look"
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="fan sweep experiments out to N worker processes "
        "(0/1: serial; results are bit-identical either way)",
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write each experiment's points as CSV under DIR",
    )
    parser.add_argument(
        "--port", type=int, default=0, metavar="P",
        help="serve: TCP port to bind (0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="serve: bind address (default 127.0.0.1)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "serve":
        return _serve(args)

    try:
        workers = check_cli_workers(args.workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.time()
        print(f"== {name} ==")
        if workers > 1 and name not in PARALLEL_EXPERIMENTS:
            print(f"[{name} has no parallel path; running serially]")
        points = EXPERIMENTS[name](args.quick, workers)
        if args.csv and points:
            from ..metrics.export import write_csv

            # Figure-8 curves nest their points; flatten them for export,
            # carrying the curve's identity onto each row.
            flat = []
            for p in points:
                nested = getattr(p, "points", None)
                if nested:
                    for sub in nested:
                        from ..metrics.export import to_row

                        row = to_row(sub)
                        row.update(panel=p.panel, op_mix=p.op_mix, pattern=p.pattern)
                        flat.append(row)
                else:
                    flat.append(p)
            out = write_csv(f"{args.csv}/{name}.csv", flat)
            print(f"[csv: {out}]")
        print(f"[{name} done in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
