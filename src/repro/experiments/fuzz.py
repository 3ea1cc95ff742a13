"""Scenario-program fuzz campaign: generated programs vs the invariant oracle.

Replays seed-driven random programs (``repro.scenarios.generate``) and holds
every one to the machine-checked invariants — exactly-once CID retirement,
SLO accounting balance, conservation of submitted-vs-completed commands —
plus (sampled) bit-identical same-seed replay digests.

Every failure is a one-command repro::

    python -m repro.experiments.fuzz --seed 1234

prints the offending program as JSON and replays it with invariant checks
on, so a nightly-CI failure reproduces locally from just the seed.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import ConfigError, ReproError
from ..metrics.report import format_table
from ..parallel.pool import check_cli_workers, run_campaign
from ..parallel.units import KIND_FUZZ_BLOCK, WorkUnit
from ..scenarios.compiler import replay
from ..scenarios.generate import generate_program

#: Sampled determinism audit: every Nth program is replayed twice and the
#: two digests must be byte-identical.
DETERMINISM_STRIDE = 25

#: Seeds per work unit: big enough to amortize process dispatch, small
#: enough to load-balance 8 workers.
FUZZ_CHUNK_SIZE = 16


@dataclass
class FuzzFailure:
    seed: int
    kind: str
    message: str

    def repro_command(self) -> str:
        return f"python -m repro.experiments.fuzz --seed {self.seed}"


@dataclass
class FuzzResult:
    """One campaign's books."""

    base_seed: int
    n_programs: int
    elapsed_s: float = 0.0
    action_counts: Counter = field(default_factory=Counter)
    determinism_checks: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_units(
    n_programs: int,
    base_seed: int = 0,
    determinism_stride: int = DETERMINISM_STRIDE,
) -> List[WorkUnit]:
    """Contiguous seed blocks covering ``[base_seed, base_seed+n_programs)``."""
    if not isinstance(n_programs, int) or isinstance(n_programs, bool) or n_programs < 1:
        raise ConfigError(f"key 'count' must be a positive integer (got {n_programs!r})")
    if not isinstance(base_seed, int) or isinstance(base_seed, bool) or base_seed < 0:
        raise ConfigError(
            f"key 'base_seed' must be a non-negative integer (got {base_seed!r})"
        )
    units = []
    end = base_seed + n_programs
    for start in range(base_seed, end, FUZZ_CHUNK_SIZE):
        count = min(FUZZ_CHUNK_SIZE, end - start)
        units.append(
            WorkUnit(
                unit_id=f"fuzz/{start:08d}+{count}",
                kind=KIND_FUZZ_BLOCK,
                payload={
                    "start": start,
                    "count": count,
                    "base_seed": base_seed,
                    "determinism_stride": determinism_stride,
                },
            )
        )
    return units


def run_fuzz(
    n_programs: int = 500,
    base_seed: int = 0,
    determinism_stride: int = DETERMINISM_STRIDE,
    workers: int = 0,
    print_table: bool = False,
) -> FuzzResult:
    """Generate and replay ``n_programs`` sequential-seed programs.

    Failures are collected, not raised, so one bad seed never hides the
    rest of the campaign; the result lists every failing seed with its
    one-command repro.  ``workers`` > 1 fans the seed blocks out to that
    many processes; blocks merge in seed order, so the result is the same
    either way.
    """
    units = fuzz_units(n_programs, base_seed, determinism_stride)
    started = time.time()
    campaign = run_campaign(units, workers)
    result = FuzzResult(base_seed=base_seed, n_programs=n_programs)
    for block in campaign.results:  # submission order == ascending seeds
        result.action_counts.update(block.data["action_counts"])
        result.determinism_checks += block.data["determinism_checks"]
        result.failures.extend(FuzzFailure(*f) for f in block.data["failures"])
    result.elapsed_s = time.time() - started

    if print_table:
        rows = [
            [op, count] for op, count in sorted(result.action_counts.items())
        ]
        print(
            f"fuzz campaign: {n_programs} programs from seed {base_seed} "
            f"({len(units)} blocks, {workers} workers), "
            f"{result.determinism_checks} determinism audits, "
            f"{len(result.failures)} failure(s), {result.elapsed_s:.1f}s"
        )
        print(format_table(["action", "count"], rows))
        for failure in result.failures:
            print(
                f"FAIL seed {failure.seed} [{failure.kind}]: {failure.message}\n"
                f"  repro: {failure.repro_command()}"
            )
    return result


def repro_seed(seed: int) -> None:
    """Reproduce one seed verbosely: print the program, replay, check."""
    program = generate_program(seed)
    print(program.to_json())
    run = replay(program)  # raises InvariantViolation on any breach
    print()
    print(run.digest())
    again = replay(generate_program(seed))
    if again.digest() != run.digest():
        raise ReproError(f"seed {seed}: same-seed replay digests differ")
    print(f"\nseed {seed}: all invariants hold; replay digest is deterministic")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.fuzz",
        description="Fuzz scenario programs against the invariant oracle.",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="reproduce ONE generated program verbosely (prints its JSON)",
    )
    parser.add_argument(
        "--count", type=int, default=500, help="campaign size (default 500)"
    )
    parser.add_argument(
        "--base-seed", type=int, default=0, help="first seed of the campaign"
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="fan seed blocks out to N worker processes (0/1: serial; "
        "merged results are identical either way)",
    )
    args = parser.parse_args(argv)

    try:
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(
                    f"key 'seed' must be a non-negative integer (got {args.seed!r})"
                )
            repro_seed(args.seed)
            return 0
        check_cli_workers(args.workers)
        result = run_fuzz(
            n_programs=args.count,
            base_seed=args.base_seed,
            workers=args.workers,
            print_table=True,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Any failing seed fails the campaign: CI and scripts key off this.
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
