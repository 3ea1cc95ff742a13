"""Work units: the picklable quantum of a parallel sweep or campaign.

A :class:`WorkUnit` names one independent piece of simulation work — a
figure sweep point, a fuzz-seed block, a fault-matrix cell, a registered
scenario program — as plain picklable data.  Worker processes resolve the
unit's ``kind`` against the executor registry, build their own
:class:`~repro.simcore.engine.Environment`, run the unit, and return a
:class:`UnitResult`.

The determinism contract every executor must honour:

* the result's ``digest`` and ``data`` are pure functions of the unit —
  same unit, same bits, on any worker, in any process, in any order;
* provenance fields (``attempts``, ``worker_pid``, ``elapsed_s``) carry
  *how* the unit ran and are excluded from campaign digests and merges.

Deterministic domain failures (any :class:`~repro.errors.ReproError`,
including invariant violations) are captured as ``ok=False`` results —
re-running them would fail identically, so the pool never retries them.
Any other exception escapes the executor and is treated as transient
worker trouble: the pool retries the unit on a fresh process.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..errors import ConfigError, ReproError

#: Executor registry: unit kind -> fn(payload) -> (digest, data).  Populated
#: at import time for the built-in kinds; under the default ``fork`` start
#: method, worker processes inherit test- or caller-registered kinds too.
_EXECUTORS: Dict[str, Callable[[Mapping[str, object]], Tuple[str, Dict[str, object]]]] = {}


@dataclass(frozen=True)
class WorkUnit:
    """One independent, picklable piece of campaign work."""

    unit_id: str
    kind: str
    #: Everything the executor needs, picklable (JSON-able where possible;
    #: typed objects such as :class:`FaultSchedule` are allowed — they are
    #: plain dataclasses).
    payload: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.unit_id:
            raise ConfigError("work unit key 'unit_id' must be a non-empty string")
        if not self.kind:
            raise ConfigError(f"work unit {self.unit_id!r}: key 'kind' must be non-empty")


@dataclass
class UnitResult:
    """What one work unit produced (picklable, merge-ready).

    ``digest`` is the unit's canonical output rendering — the differential
    serial-vs-parallel harness compares these byte for byte.  ``data``
    carries small structured metrics the sweep harness rebuilds its points
    from.  ``attempts`` / ``worker_pid`` / ``elapsed_s`` are provenance:
    they may legitimately differ between serial and parallel runs and are
    excluded from every digest.
    """

    unit_id: str
    kind: str
    ok: bool
    digest: str = ""
    data: Dict[str, object] = field(default_factory=dict)
    error_kind: str = ""
    error: str = ""
    attempts: int = 1
    worker_pid: int = 0
    elapsed_s: float = 0.0
    #: The exception that failed the unit, when it was raised in this
    #: process, so a :class:`~repro.errors.CampaignError` can chain it with
    #: its traceback.  Not compared, and not pickled back from a worker.
    cause: Optional[BaseException] = field(default=None, compare=False, repr=False)

    def __getstate__(self) -> Dict[str, object]:
        return {**self.__dict__, "cause": None}


def register_executor(
    kind: str,
    fn: Callable[[Mapping[str, object]], Tuple[str, Dict[str, object]]],
    replace: bool = False,
) -> None:
    """Register an executor for a unit kind.

    Executors take the unit payload and return ``(digest, data)``; both
    must be deterministic functions of the payload.
    """
    if not kind:
        raise ConfigError("executor key 'kind' must be a non-empty string")
    if kind in _EXECUTORS and not replace:
        raise ConfigError(f"unit kind {kind!r} already registered")
    _EXECUTORS[kind] = fn


def known_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_EXECUTORS))


def execute_unit(unit: WorkUnit) -> UnitResult:
    """Run one unit in the current process (workers call this).

    :class:`ReproError` failures — misconfiguration, invariant violations —
    are deterministic and come back as ``ok=False`` results; anything else
    propagates so the pool can retry on a fresh worker.
    """
    try:
        executor = _EXECUTORS[unit.kind]
    except KeyError:
        raise ConfigError(
            f"unit {unit.unit_id!r}: unknown kind {unit.kind!r}; "
            f"known: {list(known_kinds())}"
        ) from None
    started = time.perf_counter()
    try:
        digest, data = executor(unit.payload)
    except ReproError as exc:
        return UnitResult(
            unit_id=unit.unit_id,
            kind=unit.kind,
            ok=False,
            error_kind=type(exc).__name__,
            error=str(exc),
            worker_pid=os.getpid(),
            elapsed_s=time.perf_counter() - started,
            cause=exc,
        )
    return UnitResult(
        unit_id=unit.unit_id,
        kind=unit.kind,
        ok=True,
        digest=digest,
        data=data,
        worker_pid=os.getpid(),
        elapsed_s=time.perf_counter() - started,
    )


# -- built-in executors --------------------------------------------------------


def _scenario_executor(payload: Mapping[str, object]) -> Tuple[str, Dict[str, object]]:
    """One two-sided scenario cell: figure sweep points, fault-matrix cells.

    ``payload["config"]`` is a :meth:`ScenarioConfig.from_dict` dict;
    ``chaos`` / ``chaos_epoch`` / ``retry_policy`` ride alongside as typed
    objects when the cell runs under fault injection.
    """
    from ..cluster.scenario import Scenario, ScenarioConfig
    from ..workloads.mixes import tenants_for_ratio

    data = dict(payload.get("config") or {})
    for key in ("chaos", "chaos_epoch", "retry_policy"):
        if key in payload:
            data[key] = payload[key]
    cfg = ScenarioConfig.from_dict(data)
    ratio = str(payload.get("ratio", "1:2"))
    scenario = Scenario.two_sided(cfg, tenants_for_ratio(ratio, op_mix=cfg.op_mix))
    result = scenario.run()
    return result.metrics_digest(), {
        "tc_throughput_mbps": result.tc_throughput_mbps,
        "ls_tail_us": result.ls_tail_us,
        "elapsed_us": result.elapsed_us,
        "goodput_ops": result.goodput_ops,
        "failed_ops": result.failed_ops,
    }


def _fig8_curve_executor(payload: Mapping[str, object]) -> Tuple[str, Dict[str, object]]:
    """One Figure-8 scaling curve (one protocol of one panel)."""
    from dataclasses import asdict

    from ..cluster.scaling import PATTERN2_PER_NODE, scale_curve

    pattern = int(payload["pattern"])  # type: ignore[arg-type]
    if pattern == 1:
        n_node_pairs = int(payload.get("n_node_pairs", 5))  # type: ignore[arg-type]
        per_node_range = payload.get("per_node_range") or [1, 2, 3, 4, 5]
        shapes = [(n_node_pairs, k) for k in per_node_range]  # type: ignore[union-attr]
    else:
        pairs_range = payload.get("pairs_range") or [1, 2, 3, 4, 5]
        shapes = [(n, PATTERN2_PER_NODE) for n in pairs_range]  # type: ignore[union-attr]
    points = scale_curve(
        str(payload["protocol"]),
        str(payload["op_mix"]),
        shapes,
        include_ls=pattern == 1,
        total_ops=int(payload.get("total_ops", 600)),  # type: ignore[arg-type]
        seed=int(payload.get("seed", 1)),  # type: ignore[arg-type]
    )
    lines = [
        f"point/{i}={p.total_initiators},{p.protocol},"
        f"{p.throughput_mbps!r},{p.mean_latency_us!r},{p.tc_iops!r}"
        for i, p in enumerate(points)
    ]
    return "\n".join(lines), {"points": [asdict(p) for p in points]}


def _fig9_point_executor(payload: Mapping[str, object]) -> Tuple[str, Dict[str, object]]:
    """One Figure-9 h5bench cluster point."""
    from ..experiments.fig9 import run_h5bench_cluster
    from ..workloads.h5bench import H5BenchConfig

    bench = H5BenchConfig(**dict(payload["bench"]))  # type: ignore[arg-type]
    bw, lat = run_h5bench_cluster(
        str(payload["protocol"]),
        bench,
        int(payload["pairs"]),  # type: ignore[arg-type]
        int(payload["per_node"]),  # type: ignore[arg-type]
        network_gbps=float(payload.get("network_gbps", 25.0)),  # type: ignore[arg-type]
        seed=int(payload.get("seed", 1)),  # type: ignore[arg-type]
    )
    return f"bandwidth_mbps={bw!r}\nmean_latency_us={lat!r}", {
        "bandwidth_mbps": bw,
        "mean_latency_us": lat,
    }


def _fuzz_block_executor(payload: Mapping[str, object]) -> Tuple[str, Dict[str, object]]:
    """A contiguous block of fuzz seeds (see ``repro.experiments.fuzz``).

    Per-seed :class:`ReproError` failures are *campaign findings*, not unit
    failures — they are collected into ``data["failures"]`` in seed order,
    and ``run_fuzz`` merges the blocks into one :class:`FuzzResult`.
    """
    import hashlib

    from ..scenarios.compiler import replay
    from ..scenarios.generate import generate_program

    start = int(payload["start"])  # type: ignore[arg-type]
    count = int(payload["count"])  # type: ignore[arg-type]
    base_seed = int(payload.get("base_seed", start))  # type: ignore[arg-type]
    stride = int(payload.get("determinism_stride", 0))  # type: ignore[arg-type]

    action_counts: Dict[str, int] = {}
    failures = []  # (seed, kind, message) in seed order
    determinism_checks = 0
    seeds: Dict[int, Dict[str, str]] = {}
    lines = []
    for seed in range(start, start + count):
        try:
            program = generate_program(seed)
            for action in program.actions:
                action_counts[action.op] = action_counts.get(action.op, 0) + 1
            run = replay(program)
            sig_sha = hashlib.sha256(program.signature().encode()).hexdigest()
            dig_sha = hashlib.sha256(run.digest().encode()).hexdigest()
            seeds[seed] = {"signature_sha256": sig_sha, "digest_sha256": dig_sha}
            lines.append(f"seed/{seed}=sig:{sig_sha},digest:{dig_sha}")
            if stride and (seed - base_seed) % stride == 0:
                determinism_checks += 1
                again = replay(generate_program(seed))
                if hashlib.sha256(again.digest().encode()).hexdigest() != dig_sha:
                    failures.append((seed, "nondeterminism", "same-seed digests differ"))
                    lines.append(f"seed/{seed}=FAIL:nondeterminism")
        except ReproError as exc:
            failures.append((seed, type(exc).__name__, str(exc)))
            lines.append(f"seed/{seed}=FAIL:{type(exc).__name__}")
    return "\n".join(lines), {
        "action_counts": action_counts,
        "determinism_checks": determinism_checks,
        "failures": failures,
        "seeds": seeds,
    }


def _program_executor(payload: Mapping[str, object]) -> Tuple[str, Dict[str, object]]:
    """One registered scenario program, replayed under invariant checks.

    An :class:`InvariantViolation` propagates as a deterministic failure —
    :func:`execute_unit` captures it, and the campaign fails with this
    unit (and therefore the program) named.
    """
    from dataclasses import asdict

    from ..scenarios.compiler import replay
    from ..scenarios.program import ScenarioProgram

    program = ScenarioProgram.from_dict(dict(payload["program"]))  # type: ignore[arg-type]
    run = replay(program, check_invariants=bool(payload.get("check_invariants", True)))
    envelope = run.envelope()
    return envelope.digest, {"envelope": asdict(envelope)}


KIND_SCENARIO = "scenario"
KIND_FIG8_CURVE = "fig8-curve"
KIND_FIG9_POINT = "fig9-point"
KIND_FUZZ_BLOCK = "fuzz-block"
KIND_PROGRAM = "program"

register_executor(KIND_SCENARIO, _scenario_executor)
register_executor(KIND_FIG8_CURVE, _fig8_curve_executor)
register_executor(KIND_FIG9_POINT, _fig9_point_executor)
register_executor(KIND_FUZZ_BLOCK, _fuzz_block_executor)
register_executor(KIND_PROGRAM, _program_executor)
