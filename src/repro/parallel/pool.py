"""The campaign runner: fan units out, merge results deterministically.

:func:`run_units` executes a list of :class:`WorkUnit`\\ s either in-process
(``workers=0``) or on a ``ProcessPoolExecutor`` of ``workers`` processes.
The merge is keyed by work-unit id, never by completion order: results
land in a dict as they arrive and are read back in submission order, so a
parallel campaign's :meth:`CampaignResult.campaign_digest` is byte-for-byte
identical to the serial one no matter how workers interleave.
:func:`run_campaign` is the experiments' entry: it maps their ``workers``
knob onto :func:`run_units` and fails on any failed unit, chaining the
unit's own exception when it was raised in-process.

Fault tolerance: a unit whose worker raises a non-:class:`ReproError`
exception or dies mid-unit is retried (``max_retries`` times, default
once).  A worker death breaks the whole pool — every in-flight unit of
that round is retried on fresh processes, each in its *own* single-worker
pool so a deterministic crasher can only break itself and is condemned by
name instead of taking innocent units down with it.  Deterministic domain
failures (invariant violations, bad configs) are never retried; they fail
the campaign with the offending unit named.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from concurrent.futures.process import BrokenProcessPool

from ..config import MAX_WORKERS
from ..errors import CampaignError, ConfigError
from .units import UnitResult, WorkUnit, execute_unit, known_kinds


def merge_results(
    units: Sequence[WorkUnit], results: Iterable[UnitResult]
) -> List[UnitResult]:
    """Order arrived results by the submitted unit list — pure and total.

    Raises :class:`CampaignError` on duplicate, unknown, or missing unit
    ids, so a buggy backend can never silently drop or double-count work.
    The output depends only on ``units`` and the *set* of results, never
    on arrival order — the Hypothesis suite pins this.
    """
    by_id: Dict[str, UnitResult] = {}
    wanted = {u.unit_id for u in units}
    for result in results:
        if result.unit_id not in wanted:
            raise CampaignError(f"result for unknown unit {result.unit_id!r}")
        if result.unit_id in by_id:
            raise CampaignError(f"duplicate result for unit {result.unit_id!r}")
        by_id[result.unit_id] = result
    missing = [u.unit_id for u in units if u.unit_id not in by_id]
    if missing:
        raise CampaignError(f"no result for unit(s) {missing}")
    return [by_id[u.unit_id] for u in units]


@dataclass
class CampaignResult:
    """A merged campaign: one result per unit, in submission order."""

    results: List[UnitResult]
    workers: int
    elapsed_s: float = 0.0
    #: unit_id -> total attempts, for every unit that needed more than one.
    retried: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[UnitResult]:
        return [r for r in self.results if not r.ok]

    def result_for(self, unit_id: str) -> UnitResult:
        for result in self.results:
            if result.unit_id == unit_id:
                return result
        raise CampaignError(f"no unit {unit_id!r} in this campaign")

    def campaign_digest(self) -> str:
        """Canonical rendering of the merged campaign, keyed by unit id.

        One line per unit, sorted by unit id; provenance fields (attempts,
        worker pid, elapsed) are deliberately excluded so a retried or
        differently-scheduled campaign with the same *outputs* digests
        identically to a serial one.
        """
        lines = []
        for result in sorted(self.results, key=lambda r: r.unit_id):
            sha = hashlib.sha256(result.digest.encode()).hexdigest()
            line = f"unit/{result.unit_id} kind={result.kind} ok={int(result.ok)} sha256={sha}"
            if not result.ok:
                line += f" err={result.error_kind}:{result.error}"
            lines.append(line)
        return "\n".join(lines)

    def raise_on_failure(self) -> None:
        """Fail the whole campaign, naming every offending unit."""
        failures = self.failures
        if not failures:
            return
        detail = "; ".join(
            f"{r.unit_id} [{r.error_kind} after {r.attempts} attempt(s)]: {r.error}"
            for r in failures[:5]
        )
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        cause = next((r.cause for r in failures if r.cause is not None), None)
        raise CampaignError(
            f"{len(failures)} of {len(self.results)} unit(s) failed: {detail}{more}"
        ) from cause


def _check_workers(workers: object) -> None:
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 0:
        raise ConfigError(
            f"key 'workers' must be a non-negative integer (got {workers!r})"
        )
    if workers > MAX_WORKERS:
        raise ConfigError(f"key 'workers' must be <= {MAX_WORKERS} (got {workers!r})")


def check_cli_workers(workers: object) -> int:
    """Validate a command-line ``--workers`` value.

    On top of the pool bounds, the command line may not ask for more
    workers than the machine has CPUs: the workers are CPU-bound
    simulators, so oversubscribing only adds scheduler noise.  Library
    callers (tests, campaign scripts) may exceed it deliberately.
    """
    _check_workers(workers)
    ncpu = os.cpu_count() or 1
    if workers > ncpu:
        raise ConfigError(
            f"key 'workers' must be <= the machine's CPU count {ncpu} "
            f"(got {workers!r})"
        )
    return workers


def _validate(units: Sequence[WorkUnit], workers: object, max_retries: object) -> None:
    _check_workers(workers)
    if not isinstance(max_retries, int) or isinstance(max_retries, bool) or max_retries < 0:
        raise ConfigError(
            f"key 'max_retries' must be a non-negative integer (got {max_retries!r})"
        )
    seen = set()
    kinds = set(known_kinds())
    for unit in units:
        if unit.unit_id in seen:
            raise ConfigError(f"duplicate unit_id {unit.unit_id!r}")
        seen.add(unit.unit_id)
        if unit.kind not in kinds:
            raise ConfigError(
                f"unit {unit.unit_id!r}: unknown kind {unit.kind!r}; "
                f"known: {sorted(kinds)}"
            )


def _mp_context(name: Optional[str]):
    """The fork context keeps caller-registered executors visible in
    workers; fall back to the platform default where fork is unavailable."""
    if name is None:
        name = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    return multiprocessing.get_context(name)


def _failed(unit: WorkUnit, exc: BaseException, attempts: int) -> UnitResult:
    return UnitResult(
        unit_id=unit.unit_id,
        kind=unit.kind,
        ok=False,
        error_kind=type(exc).__name__,
        error=str(exc) or "worker process died mid-unit",
        attempts=attempts,
        cause=exc,
    )


def _run_serial(units: Sequence[WorkUnit], max_retries: int) -> List[UnitResult]:
    """In-process execution with the same retry contract as the pool
    (except that a unit hard-killing the process is not survivable here)."""
    out: List[UnitResult] = []
    for unit in units:
        attempts = 0
        while True:
            attempts += 1
            try:
                result = execute_unit(unit)
            except Exception as exc:  # transient by contract: retry
                if attempts <= max_retries:
                    continue
                result = _failed(unit, exc, attempts)
            result.attempts = attempts
            out.append(result)
            break
    return out


def _run_pool(
    units: Sequence[WorkUnit],
    workers: int,
    max_retries: int,
    ctx,
) -> List[UnitResult]:
    done: Dict[str, UnitResult] = {}
    attempts: Dict[str, int] = {u.unit_id: 0 for u in units}
    outstanding: List[WorkUnit] = list(units)
    isolate = False  # one pool per unit after a worker death
    while outstanding:
        retry_next: List[WorkUnit] = []
        pool_broke = False
        batches = [[u] for u in outstanding] if isolate else [list(outstanding)]
        for batch in batches:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=1 if isolate else workers, mp_context=ctx
            )
            try:
                futures = {executor.submit(execute_unit, u): u for u in batch}
                for u in batch:
                    attempts[u.unit_id] += 1
                for future in concurrent.futures.as_completed(futures):
                    unit = futures[future]
                    try:
                        result = future.result()
                    except Exception as exc:
                        if isinstance(exc, BrokenProcessPool):
                            pool_broke = True
                        if attempts[unit.unit_id] <= max_retries:
                            retry_next.append(unit)
                        else:
                            done[unit.unit_id] = _failed(
                                unit, exc, attempts[unit.unit_id]
                            )
                        continue
                    result.attempts = attempts[unit.unit_id]
                    done[unit.unit_id] = result
            finally:
                executor.shutdown(wait=False, cancel_futures=True)
        if pool_broke:
            isolate = True
        # Deterministic retry order regardless of which futures finished
        # first: resubmit in original submission order.
        order = {u.unit_id: i for i, u in enumerate(units)}
        outstanding = sorted(retry_next, key=lambda u: order[u.unit_id])
    return [done[u.unit_id] for u in units]


def run_units(
    units: Sequence[WorkUnit],
    workers: int = 0,
    max_retries: int = 1,
    mp_context: Optional[str] = None,
) -> CampaignResult:
    """Execute every unit and merge deterministically.

    ``workers=0`` runs serially in-process (the reference path the
    differential harness compares against); ``workers>=1`` fans out to
    that many worker processes, so ``workers=1`` is a real one-process
    pool.  Either way the returned results are in submission order and
    :meth:`CampaignResult.campaign_digest` depends only on unit outputs.
    """
    units = list(units)
    _validate(units, workers, max_retries)
    started = time.perf_counter()
    if workers == 0:
        raw = _run_serial(units, max_retries)
    else:
        raw = _run_pool(units, workers, max_retries, _mp_context(mp_context))
    results = merge_results(units, raw)
    return CampaignResult(
        results=results,
        workers=workers,
        elapsed_s=time.perf_counter() - started,
        retried={r.unit_id: r.attempts for r in results if r.attempts > 1},
    )


def run_campaign(units: Sequence[WorkUnit], workers: int = 0) -> CampaignResult:
    """Run an experiment's units with the command-line meaning of ``workers``.

    ``workers`` 0 or 1 runs in-process; N > 1 fans out to a pool of N
    processes (a one-process pool would only add fork and pickling cost).
    Every figure and fuzz campaign runs through here, so both settings
    consume the same unit list and merge identically.  A failed unit
    raises :class:`CampaignError` naming it; in-process, the unit runs
    once (a re-run would raise the same way) and its exception is the
    error's ``__cause__``, traceback and all.
    """
    _check_workers(workers)
    if workers > 1:
        campaign = run_units(units, workers=workers)
    else:
        campaign = run_units(units, workers=0, max_retries=0)
    campaign.raise_on_failure()
    return campaign
