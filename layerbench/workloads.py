"""The benchmark's four workloads: seeded, closed-loop batch jobs.

Each workload turns a seed into inputs, builds the first scenario a user
would run (what ``setup_s`` times), and runs one *unit*: a fixed-size job
from construction to a sealed, checked result.  A benchmark run repeats the
unit, so every repeat of one seed must reproduce the same digest.

Simulated tenants are the paper's perf generators: each keeps a bounded
queue depth of commands in flight and sends the next only when one
completes, so every workload is a closed loop (TC tenants at queue depth
128, LS tenants at 1).  The code here reaches the simulator only through its
public entry points: ``Scenario.two_sided``/``run``, ``build_scaleout``,
``SimSession.advance``/``telemetry``, ``generate_program``,
``compile_program``, ``CompiledProgram.run`` and ``check_all``.

``repro`` must be importable (``src`` on ``sys.path``) before this module is.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro import Priority, Scenario, ScenarioConfig, tenants_for_ratio
from repro.cluster.scaling import build_scaleout
from repro.errors import ReproError
from repro.scenarios import check_all, compile_program, generate_program
from repro.scenarios.library import qos_guard_program
from repro.service.session import SimSession

clock = time.perf_counter

#: Heap entries per ``SimSession.advance`` slice (the service's slice size).
SLICE_ENTRIES = 500

#: Program indices the campaign draws from.  ``generate_program(i)`` for
#: every ``i`` below this replays with all invariants holding (the fuzz
#: harness's clean range; ``test_bench_layers`` re-checks it).  Indices
#: outside it are not known to be clean, so a seed never reaches them.
CAMPAIGN_POOL = 1000

#: Retry budget given to every generated program that injects faults.
#: Generated budgets (2-5 attempts) can run out inside a transient-error
#: window and report commands failed; eight attempts of exponential backoff
#: outlast the longest window the generator draws, so no command fails.
CAMPAIGN_MAX_RETRIES = 8


@dataclass
class Unit:
    """What one unit run produced, measured in host and simulated terms."""

    #: Simulated commands completed successfully / reported failed.
    ops: int = 0
    failed_ops: int = 0
    #: sha256 over the unit's canonical result digest(s).
    digest: str = ""
    #: Host seconds of each step a user waits on: one scenario run, one
    #: ``advance`` slice, or one program.
    steps: List[float] = field(default_factory=list)
    #: Host seconds of each span around a call into a layer, by span name.
    spans: Dict[str, List[float]] = field(default_factory=dict)
    #: Simulated model outputs (simulated time, not host time).
    sim: Dict[str, float] = field(default_factory=dict)
    #: Correctness problems found; empty when every check held.
    problems: List[str] = field(default_factory=list)

    def span(self, name: str, seconds: float) -> None:
        self.spans.setdefault(name, []).append(seconds)


@dataclass(frozen=True)
class Workload:
    """One named workload (see README.md for why each exists)."""

    name: str
    #: The unit's size knob at benchmark scale (ops per TC tenant, or
    #: programs per unit); tests pass a smaller one.
    size: int
    #: ``(seed, size) -> inputs``: a pure function of its arguments.
    inputs: Callable[[int, int], object]
    #: ``inputs -> the first scenario/session/program ready to run``.
    build: Callable[[object], object]
    #: ``inputs -> Unit``: one complete, checked unit.
    run_unit: Callable[[object], Unit]


def _digest_fields(text: str) -> Dict[str, str]:
    """The ``key=value`` lines of ``ScenarioResult.metrics_digest()``."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key] = value
    return fields


def _count(fields: Dict[str, str], key: str) -> int:
    return int(fields.get(key, "0"))


#: Units of the simulated outputs (simulated time, not host time).
SIM_UNITS = {
    "sim.tc_mbps": "MB/s",
    "sim.ls_p9999_us": "us",
    "sim.notifications_per_op": "1/op",
    "sim.retries_per_kop": "1/kop",
}


def _sim_outputs(fields: Dict[str, str]) -> Dict[str, float]:
    """Simulated outputs of one scenario result, from its digest."""
    ops = _count(fields, "goodput_ops")
    sim = {
        "sim.tc_mbps": float(fields["tc_throughput_mbps"]),
        "sim.notifications_per_op": _count(fields, "completion_notifications") / ops,
        "sim.retries_per_kop": 1000.0 * _count(fields, "recovery/retries") / ops,
    }
    if fields.get("ls_tail_us", "None") != "None":
        sim["sim.ls_p9999_us"] = float(fields["ls_tail_us"])
    return sim


def _check_quotas(scenario: Scenario, unit: Unit) -> None:
    """Every throughput-critical tenant delivered its whole op quota."""
    for gen in scenario.generators:
        cfg = gen.config
        if cfg.priority is Priority.THROUGHPUT and gen.completed < cfg.total_ops:
            unit.problems.append(
                f"TC quota short: {gen.completed}/{cfg.total_ops} completed"
            )


def _seal(unit: Unit, text: str) -> Dict[str, str]:
    """Record the digest and op counts of one single-result unit."""
    fields = _digest_fields(text)
    unit.digest = hashlib.sha256(text.encode()).hexdigest()
    unit.ops = _count(fields, "goodput_ops")
    unit.failed_ops = _count(fields, "failed_ops")
    return fields


# -- opf-read and spdk-rw50-scaleout: blocking Scenario.run() jobs -------------

def _opf_read(inputs) -> Scenario:
    seed, size = inputs
    cfg = ScenarioConfig(
        protocol="nvme-opf",
        network_gbps=100.0,
        op_mix="read",
        total_ops=size,
        window_size=32,
        seed=seed,
    )
    return Scenario.two_sided(cfg, tenants_for_ratio("1:4"))


def _spdk_rw50_scaleout(inputs) -> Scenario:
    seed, size = inputs
    cfg = ScenarioConfig(
        protocol="spdk",
        network_gbps=25.0,
        op_mix="rw50",
        total_ops=size,
        seed=seed,
    )
    return build_scaleout(cfg, 5, 5)


def _scenario_unit(build: Callable[[object], Scenario]) -> Callable[[object], Unit]:
    def run_unit(inputs) -> Unit:
        unit = Unit()
        t0 = clock()
        scenario = build(inputs)
        t1 = clock()
        result = scenario.run()
        t2 = clock()
        try:
            check_all(scenario, result)
        except ReproError as exc:
            unit.problems.append(str(exc))
        _check_quotas(scenario, unit)
        fields = _seal(unit, result.metrics_digest())
        t3 = clock()
        unit.span("build", t1 - t0)
        unit.span("run", t2 - t1)
        unit.span("check", t3 - t2)
        unit.steps.append(t3 - t0)
        unit.sim = _sim_outputs(fields)
        return unit

    return run_unit


# -- session-qos: a QoS program hosted in a SimSession, driven slice by slice --

def _session_program(seed: int, size: int):
    program = qos_guard_program(total_ops=size)
    return dataclasses.replace(program, config={**program.config, "seed": seed})


def _session_unit(program) -> Unit:
    unit = Unit()
    t0 = clock()
    session = SimSession(program)
    unit.span("build", clock() - t0)
    cursor = 0
    while not session.finished:
        t1 = clock()
        session.advance(max_events=SLICE_ENTRIES)
        t2 = clock()
        cursor, _snapshots = session.telemetry(cursor)
        t3 = clock()
        unit.steps.append(t2 - t1)
        unit.span("telemetry", t3 - t2)
    if session.digest is None:
        # A failed session seals without a digest; its error names the
        # broken invariant or the exception that stopped it.
        unit.problems.append(f"session {session.state}: {session.error}")
        unit.ops = session.status()["completed"]
        return unit
    _check_quotas(session.scenario, unit)
    unit.sim = _sim_outputs(_seal(unit, session.digest))
    return unit


# -- program-campaign: many short generated programs ---------------------------

def _with_retry_budget(program):
    policy = program.config.get("retry_policy")
    if policy is None:
        return program
    config = {**program.config, "retry_policy": {**policy, "max_retries": CAMPAIGN_MAX_RETRIES}}
    return dataclasses.replace(program, config=config)


def _campaign_programs(seed: int, size: int) -> list:
    indices = random.Random(seed).sample(range(CAMPAIGN_POOL), size)
    return [_with_retry_budget(generate_program(i)) for i in indices]


def _campaign_unit(programs) -> Unit:
    unit = Unit()
    digests = []
    notifications = retries = 0
    for program in programs:
        t0 = clock()
        compiled = compile_program(program)
        t1 = clock()
        try:
            run = compiled.run(check_invariants=False)
        except ReproError as exc:
            unit.problems.append(f"{program.name}: {exc}")
            unit.failed_ops += 1  # the program's own op count is unknown
            continue
        t2 = clock()
        try:
            check_all(run.scenario, run.result, context=program.name)
        except ReproError as exc:
            unit.problems.append(str(exc))
        text = run.digest()
        t3 = clock()
        fields = _digest_fields(text)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        unit.ops += _count(fields, "goodput_ops")
        unit.failed_ops += _count(fields, "failed_ops")
        notifications += _count(fields, "completion_notifications")
        retries += _count(fields, "recovery/retries")
        unit.span("compile", t1 - t0)
        unit.span("run", t2 - t1)
        unit.span("check", t3 - t2)
        unit.steps.append(t3 - t0)
    unit.digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    if unit.ops:
        unit.sim = {
            "sim.notifications_per_op": notifications / unit.ops,
            "sim.retries_per_kop": 1000.0 * retries / unit.ops,
        }
    return unit


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="opf-read",
            size=5_000,
            inputs=lambda seed, size: (seed, size),
            build=_opf_read,
            run_unit=_scenario_unit(_opf_read),
        ),
        Workload(
            name="spdk-rw50-scaleout",
            size=700,
            inputs=lambda seed, size: (seed, size),
            build=_spdk_rw50_scaleout,
            run_unit=_scenario_unit(_spdk_rw50_scaleout),
        ),
        Workload(
            name="session-qos",
            size=8_000,
            inputs=_session_program,
            build=SimSession,
            run_unit=_session_unit,
        ),
        Workload(
            name="program-campaign",
            size=100,
            inputs=_campaign_programs,
            build=lambda programs: compile_program(programs[0]),
            run_unit=_campaign_unit,
        ),
    )
}
