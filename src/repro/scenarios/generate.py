"""Seed-driven generation of random-but-valid scenario programs.

:func:`generate_program` maps a seed to one
:class:`~repro.scenarios.program.ScenarioProgram` deterministically — the
same seed always composes the same program, so a failing fuzz seed is a
one-command repro (``python -m repro.experiments fuzz --seed N``).

Generation is resource-aware by construction, mirroring the validator's
rules rather than rejection-sampling against them: tenants leave only
after they join, window actions appear only on oPF configs, SLO actions
only when the program builds a control plane, and faults target only
components the implied topology will actually register (the same
``target{i}`` / ``client{k}`` / ``sw`` namespace the compiler lays out).
Every generated program therefore validates and replays.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

from ..faults.schedule import (
    KIND_LINK_DEGRADE,
    KIND_LINK_DOWN,
    KIND_LINK_LOSS,
    KIND_NIC_DOWN,
    KIND_QPAIR_DISCONNECT,
    KIND_SSD_ERROR,
    KIND_SSD_SPIKE,
    KIND_SWITCH_PRESSURE,
    KIND_TARGET_CRASH,
)
from .actions import (
    Action,
    Advance,
    AssertInvariant,
    Checkpoint,
    FaultInject,
    SetWindow,
    SloChange,
    TenantJoin,
    TenantLeave,
    UsageBurst,
)
from .invariants import MIDRUN_INVARIANTS
from .program import ScenarioProgram, storage_names

_OP_MIXES = ("read", "write", "rw50")
_FAULT_KINDS = (
    KIND_LINK_DOWN,
    KIND_LINK_DEGRADE,
    KIND_LINK_LOSS,
    KIND_NIC_DOWN,
    KIND_SWITCH_PRESSURE,
    KIND_SSD_SPIKE,
    KIND_SSD_ERROR,
    KIND_TARGET_CRASH,
    KIND_QPAIR_DISCONNECT,
)

# The generator's shape (all ranges inclusive).
_MAX_TARGET_NODES = 2
_MAX_SSDS = 2
_MAX_INITIAL_TENANTS = 3
_MAX_LATE_TENANTS = 2
_MIN_STEPS = 4
_MAX_STEPS = 10
#: Probability the program runs the oPF protocol (else plain spdk).
_OPF_PROB = 0.75
#: Probability the program builds a QoS control plane.
_QOS_PROB = 0.45
#: Probability the program injects faults at all.
_FAULT_PROB = 0.5
#: Per-TC-tenant op quota range (keeps fuzz replays fast).
_TC_OPS = (40, 120)
#: Per-LS-tenant op quota range (LS tenants are always bounded so every
#: generated program terminates).
_LS_OPS = (20, 60)


def _pick_faults_component(
    rng: random.Random,
    kind: str,
    targets: List[str],
    ssds: List[str],
    joined: List[str],
) -> str:
    nodes = targets + [f"client{i}" for i in range(len(joined))]
    if kind in (KIND_LINK_DOWN, KIND_LINK_DEGRADE, KIND_LINK_LOSS):
        node = rng.choice(nodes)
        return rng.choice([f"{node}->sw", f"sw->{node}"])
    if kind == KIND_NIC_DOWN:
        return rng.choice(nodes)
    if kind == KIND_SWITCH_PRESSURE:
        return "sw"
    if kind in (KIND_SSD_SPIKE, KIND_SSD_ERROR):
        return rng.choice(ssds)
    if kind == KIND_TARGET_CRASH:
        return rng.choice(targets)
    return rng.choice(joined)  # qpair.disconnect


def _make_fault(
    rng: random.Random,
    targets: List[str],
    ssds: List[str],
    joined: List[str],
) -> FaultInject:
    kind = rng.choice(_FAULT_KINDS)
    component = _pick_faults_component(rng, kind, targets, ssds, joined)
    duration = round(rng.uniform(200.0, 1_500.0), 1)
    params: Tuple[Tuple[str, float], ...] = ()
    if kind == KIND_LINK_DEGRADE:
        params = (("scale", round(rng.uniform(2.0, 6.0), 2)),)
    elif kind == KIND_LINK_LOSS:
        params = (("p", round(rng.uniform(0.1, 0.5), 2)),)
    elif kind == KIND_SWITCH_PRESSURE:
        params = (("scale", round(rng.uniform(0.3, 0.9), 2)),)
    elif kind == KIND_SSD_SPIKE:
        params = (("scale", round(rng.uniform(2.0, 10.0), 2)),)
    elif kind == KIND_QPAIR_DISCONNECT:
        duration = 0.0
    return FaultInject(kind=kind, component=component, duration_us=duration, params=params)


def _make_config(
    rng: random.Random,
    roster: List[Tuple[str, str]],
    initial: int,
) -> Dict[str, object]:
    """The program's config dict (qos/faults decided by the caller)."""
    config: Dict[str, object] = {
        "protocol": "nvme-opf" if rng.random() < _OPF_PROB else "spdk",
        "network_gbps": rng.choice((10.0, 25.0, 100.0)),
        "op_mix": rng.choice(_OP_MIXES),
        "io_size": rng.choice((4096, 16384)),
        "window_size": rng.choice((4, 8, 16, 32)),
        "total_ops": rng.randint(*_TC_OPS),
        "seed": rng.randrange(1, 1_000_000),
    }
    if rng.random() < _QOS_PROB:
        policy = rng.choice(("aimd-window", "slo-guard"))
        config["qos_policy"] = policy
        slos: List[Dict[str, object]] = []
        for name, priority in rng.sample(roster[:initial], rng.randint(1, initial)):
            if priority == "latency":
                slos.append({"tenant": name, "p99_ceiling_us": round(rng.uniform(300.0, 3_000.0), 1)})
            else:
                slos.append({"tenant": name, "throughput_floor_mbps": round(rng.uniform(5.0, 80.0), 1)})
        config["slos"] = slos
        if rng.random() < 0.3:
            config["qos_params"] = (
                {"increase_step": float(rng.choice((1, 2, 4)))}
                if policy == "aimd-window"
                else {"min_share": round(rng.uniform(0.05, 0.25), 2)}
            )
    return config


def generate_program(seed: int) -> ScenarioProgram:
    """Compose one valid scenario program from a seed (pure function)."""
    rng = random.Random(seed)

    n_target_nodes = rng.randint(1, _MAX_TARGET_NODES)
    n_ssds = rng.randint(1, _MAX_SSDS)
    targets, ssds = storage_names(n_target_nodes, n_ssds)

    initial = rng.randint(1, _MAX_INITIAL_TENANTS)
    late = rng.randint(0, _MAX_LATE_TENANTS)
    roster: List[Tuple[str, str]] = [
        (f"t{i}", "latency" if rng.random() < 0.4 else "throughput")
        for i in range(initial + late)
    ]

    program_config = _make_config(rng, roster, initial)
    qos_on = "qos_policy" in program_config
    opf = program_config["protocol"] == "nvme-opf"
    faults_allowed = rng.random() < _FAULT_PROB

    def join(name: str, priority: str) -> TenantJoin:
        return TenantJoin(
            tenant=name,
            priority=priority,
            op_mix=rng.choice(_OP_MIXES),
            total_ops=rng.randint(*_LS_OPS) if priority == "latency" else None,
        )

    actions: List[Action] = [join(name, prio) for name, prio in roster[:initial]]
    joined = [name for name, _ in roster[:initial]]
    live: Set[str] = set(joined)
    pending = list(roster[initial:])
    fault_count = 0
    checkpoint_count = 0

    for _ in range(rng.randint(_MIN_STEPS, _MAX_STEPS)):
        actions.append(Advance(dt_us=round(rng.uniform(40.0, 400.0), 1)))
        options: List[str] = ["checkpoint", "assert"]
        weights: List[int] = [1, 1]
        if pending:
            options.append("join")
            weights.append(2)
        if live:
            options.append("leave")
            weights.append(1)
            options.append("burst")
            weights.append(2)
            if qos_on:
                options.append("slo")
                weights.append(1)
            if opf:
                options.append("window")
                weights.append(2)
        if faults_allowed:
            options.append("fault")
            weights.append(2)
        choice = rng.choices(options, weights=weights)[0]

        if choice == "join":
            name, prio = pending.pop(0)
            actions.append(join(name, prio))
            joined.append(name)
            live.add(name)
        elif choice == "leave":
            tenant = rng.choice(sorted(live))
            actions.append(TenantLeave(tenant=tenant))
            live.discard(tenant)
        elif choice == "burst":
            actions.append(
                UsageBurst(
                    tenant=rng.choice(sorted(live)),
                    ops=rng.randint(10, 40),
                    queue_depth=rng.choice((16, 32, 64)),
                    op_mix=rng.choice(_OP_MIXES),
                )
            )
        elif choice == "slo":
            tenant = rng.choice(sorted(live))
            if rng.random() < 0.2:
                actions.append(SloChange(tenant=tenant))  # clear
            elif rng.random() < 0.5:
                actions.append(
                    SloChange(tenant=tenant, p99_ceiling_us=round(rng.uniform(300.0, 3_000.0), 1))
                )
            else:
                actions.append(
                    SloChange(tenant=tenant, throughput_floor_mbps=round(rng.uniform(5.0, 80.0), 1))
                )
        elif choice == "window":
            actions.append(
                SetWindow(tenant=rng.choice(sorted(live)), window=rng.choice((1, 2, 4, 8, 16, 32)))
            )
        elif choice == "fault":
            actions.append(_make_fault(rng, targets, ssds, joined))
            fault_count += 1
        elif choice == "checkpoint":
            actions.append(Checkpoint(label=f"cp{checkpoint_count}"))
            checkpoint_count += 1
        else:  # assert
            actions.append(AssertInvariant(invariant=rng.choice(MIDRUN_INVARIANTS)))

    actions.append(Advance(dt_us=round(rng.uniform(100.0, 500.0), 1)))
    actions.append(Checkpoint(label="final"))

    if fault_count:
        program_config["retry_policy"] = {
            "timeout_us": round(rng.uniform(2_000.0, 6_000.0), 1),
            "max_retries": rng.randint(2, 5),
            "jitter_frac": 0.0,
        }

    return ScenarioProgram(
        name=f"fuzz-{seed}",
        config=program_config,
        actions=tuple(actions),
        n_target_nodes=n_target_nodes,
        n_ssds=n_ssds,
        description=f"generated program (seed {seed})",
    )
