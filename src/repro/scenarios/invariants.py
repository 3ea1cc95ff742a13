"""Machine-checked invariants for scenario replays.

Each invariant inspects a live :class:`~repro.cluster.scenario.Scenario`
(and, post-run, its :class:`~repro.cluster.scenario.ScenarioResult`) and
returns a list of human-readable problems — empty means the invariant
holds.  The fuzz campaign runs every post-run invariant over thousands of
generated programs; :class:`~repro.scenarios.actions.AssertInvariant`
actions run the mid-run-safe subset at program-chosen instants.

The vocabulary:

``books-balance`` (mid-run safe)
    Per-tenant accounting sanity: completions never exceed issues, failures
    never exceed completions, no queue pair holds more than its depth.

``cid-retirement`` (mid-run safe)
    Exactly-once retirement for oPF windows: at any instant every CID an
    initiator pushed is either live or drained, never both.  Post-run the
    live set must be empty.

``slo-accounting`` (mid-run safe)
    The QoS ledgers balance: violated time never exceeds tracked time,
    attainment stays in [0, 1], and closed violation intervals are ordered,
    disjoint, and sum to the billed violation time.

``conservation`` (post-run only)
    No command is lost: every generator's issued ops all completed (as
    goodput or as a reported failure), nothing is still in flight, and the
    scenario-level goodput/failed books agree with the per-tenant sums.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.scenario import Scenario, ScenarioResult

INV_BOOKS = "books-balance"
INV_CID = "cid-retirement"
INV_SLO = "slo-accounting"
INV_CONSERVATION = "conservation"

#: Float-ledger tolerance (microseconds / ratio slack for accumulated sums).
_EPS = 1e-6


def _opf_queues(scenario: "Scenario"):
    for name in sorted(scenario.initiators_by_name):
        initiator = scenario.initiators_by_name[name]
        pm = getattr(initiator, "pm", None)
        if pm is not None and hasattr(pm, "cid_queue"):
            yield name, pm.cid_queue


def check_books_balance(
    scenario: "Scenario", result: Optional["ScenarioResult"] = None
) -> List[str]:
    problems: List[str] = []
    for name in sorted(scenario.generators_by_name):
        gen = scenario.generators_by_name[name]
        if gen.completed > gen.issued:
            problems.append(
                f"{name}: completed {gen.completed} > issued {gen.issued}"
            )
        if gen.failed > gen.completed:
            problems.append(f"{name}: failed {gen.failed} > completed {gen.completed}")
        qpair = scenario.initiators_by_name[name].qpair
        if qpair.outstanding > qpair.queue_depth:
            problems.append(
                f"{name}: {qpair.outstanding} outstanding > depth {qpair.queue_depth}"
            )
    return problems


def check_cid_retirement(
    scenario: "Scenario", result: Optional["ScenarioResult"] = None
) -> List[str]:
    problems: List[str] = []
    final = result is not None
    for name, queue in _opf_queues(scenario):
        live = len(queue)
        if queue.total_drained + live != queue.total_pushed:
            problems.append(
                f"{name}: pushed {queue.total_pushed} != drained "
                f"{queue.total_drained} + live {live}"
            )
        if final and live:
            problems.append(f"{name}: {live} window member(s) stranded after the run")
    return problems


def check_slo_accounting(
    scenario: "Scenario", result: Optional["ScenarioResult"] = None
) -> List[str]:
    controller = scenario.qos_controller
    if controller is None:
        return []
    problems: List[str] = []
    report = controller.report
    for tenant in sorted(report.tracks):
        track = report.tracks[tenant]
        if track.violated_us < -_EPS or track.violated_us > track.tracked_us + _EPS:
            problems.append(
                f"{tenant}: violated {track.violated_us} outside "
                f"[0, tracked {track.tracked_us}]"
            )
        attained = track.attainment()
        if attained is not None and not -_EPS <= attained <= 1.0 + _EPS:
            problems.append(f"{tenant}: attainment {attained} outside [0, 1]")
        previous_end = float("-inf")
        closed_sum = 0.0
        for start, end in track.intervals:
            if end < start:
                problems.append(f"{tenant}: interval ({start}, {end}) runs backwards")
            if start < previous_end - _EPS:
                problems.append(
                    f"{tenant}: interval ({start}, {end}) overlaps its predecessor"
                )
            previous_end = end
            closed_sum += end - start
        # Post-run (the ledger is sealed) the closed intervals must cover the
        # billed violation time; the final interval's close is clocked at
        # controller stop, so allow one control interval of slack.
        if result is not None and closed_sum > 0.0:
            slack = report.interval_us + _EPS
            if abs(closed_sum - track.violated_us) > slack:
                problems.append(
                    f"{tenant}: closed intervals sum to {closed_sum} but "
                    f"{track.violated_us} violated us were billed"
                )
    return problems


def check_conservation(
    scenario: "Scenario", result: Optional["ScenarioResult"] = None
) -> List[str]:
    if result is None:
        raise InvariantViolation("conservation is a post-run invariant")
    problems: List[str] = []
    completed_sum = 0
    failed_sum = 0
    for name in sorted(scenario.generators_by_name):
        gen = scenario.generators_by_name[name]
        if gen.inflight != 0:
            problems.append(f"{name}: {gen.inflight} command(s) still in flight")
        if gen.completed != gen.issued:
            problems.append(
                f"{name}: issued {gen.issued} but completed {gen.completed}"
            )
        # The initiator's books include drain markers (protocol plumbing the
        # workload books exclude); the per-tenant reconciliation is exact.
        completed_sum += gen.completed + gen.drain_markers
        failed_sum += gen.failed + gen.drain_marker_failures
        qpair = scenario.initiators_by_name[name].qpair
        if qpair.outstanding != 0:
            problems.append(f"{name}: qpair still holds {qpair.outstanding} CID(s)")
    if result.goodput_ops + result.failed_ops != completed_sum:
        problems.append(
            f"scenario books disagree: goodput {result.goodput_ops} + failed "
            f"{result.failed_ops} != per-tenant completions {completed_sum} "
            "(drain markers included)"
        )
    if result.failed_ops != failed_sum:
        problems.append(
            f"scenario books disagree: failed {result.failed_ops} != "
            f"per-tenant failures {failed_sum}"
        )
    return problems


Check = Callable[["Scenario", Optional["ScenarioResult"]], List[str]]

#: Every invariant, by name.
INVARIANTS: Dict[str, Check] = {
    INV_BOOKS: check_books_balance,
    INV_CID: check_cid_retirement,
    INV_SLO: check_slo_accounting,
    INV_CONSERVATION: check_conservation,
}

#: The subset an AssertInvariant action may run while time is advancing.
MIDRUN_INVARIANTS = (INV_BOOKS, INV_CID, INV_SLO)


def check_invariant(
    name: str,
    scenario: "Scenario",
    result: Optional["ScenarioResult"] = None,
    context: str = "",
) -> None:
    """Run one invariant; raise :class:`InvariantViolation` on any problem."""
    try:
        check = INVARIANTS[name]
    except KeyError:
        raise InvariantViolation(
            f"unknown invariant {name!r}; choose from {tuple(sorted(INVARIANTS))}"
        ) from None
    problems = check(scenario, result)
    if problems:
        prefix = f"{context}: " if context else ""
        raise InvariantViolation(
            f"{prefix}invariant {name!r} violated: " + "; ".join(problems)
        )


def check_all(
    scenario: "Scenario", result: "ScenarioResult", context: str = ""
) -> None:
    """Run every post-run invariant (the fuzz harness's oracle)."""
    for name in sorted(INVARIANTS):
        check_invariant(name, scenario, result, context=context)
