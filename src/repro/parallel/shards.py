"""Intra-scenario parallel simulation: shard one scenario by initiator node.

A :class:`~repro.cluster.spec.ScenarioSpec` is a picklable, declarative
description of one scenario (node declarations + tenant placements).
:func:`run_sharded` partitions it into per-shard
:class:`~repro.cluster.scenario.Scenario` instances, runs them in forked
worker processes, and merges the shard payloads into one
:class:`~repro.cluster.scenario.ScenarioResult` that is bit-identical to
``spec.build().run()``.

One sharded mode, **components**: :func:`partition` splits the tenant/node
graph into its connected components (the scale-out pattern: pairwise
client/target wiring) and gives each shard whole components.  There is
*no* cross-shard traffic, so synchronization reduces to one barrier that
pins the global handshake anchor ``H* = max(h_s)``.  Workers step the
serial run's own lifecycle (:meth:`Scenario.lifecycle
<repro.cluster.scenario.Scenario.lifecycle>`), advancing to exactly ``H*``
with ``env.run(until=...)`` (an URGENT marker, so no same-timestamp event
is stolen) before the launch, so the launch runs the serial code at that
instant; each then runs to the end and ships its local quota time, and
the coordinator takes ``T* = max(T_s)``.

Serial fallback (``mode == "serial"``) is taken, with the reason logged on
the ``repro.parallel.shards`` logger, whenever sharding cannot preserve
bit-identity: one shard requested, a QoS control plane (scenario-global
feedback loop), a mixed TC+LS tenant set (the TC-quota -> LS-stop quiesce
is a same-instant global mutation whose tie-breaking needs the global
event-sequence order; quantised service times make T*-ties common),
``link.loss`` faults (all draws come from one shared ``faults/loss``
stream), switch-targeted faults, or a single connected component (one
shared fabric, which a components split cannot cut).

Determinism argument (why merged == serial, bit for bit): shards replay the
serial run's per-component event trajectories exactly — construction order,
tenant/connection ids and RNG streams are pinned to the global declaration
index, and there is no cross-shard influence.  All float-sensitive
reductions run once, in :func:`~repro.cluster.scenario.assemble_result`,
and the collector aggregates across initiators in canonical (name-sorted)
order — never in first-completion order, which no shard could reconstruct
when first completions tie across components.
"""

from __future__ import annotations

import logging
import multiprocessing
import traceback
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..cluster.scenario import (
    ResultAggregates,
    Scenario,
    ScenarioResult,
    assemble_result,
)
from ..cluster.spec import ScenarioSpec
from ..core.flags import Priority
from ..errors import CampaignError
from ..faults.injector import Injector
from ..metrics.collector import Collector, _Record
from ..simcore.engine import Environment

logger = logging.getLogger("repro.parallel.shards")

#: Fault kinds that force the serial path regardless of topology.
_GATED_FAULT_KINDS = ("link.loss",)


# -- partitioning --------------------------------------------------------------------
@dataclass(frozen=True)
class ShardAssignment:
    """Nodes and tenants one worker simulates."""

    index: int
    nodes: Tuple[str, ...]
    placement_indices: Tuple[int, ...]


@dataclass
class ShardPlan:
    """Output of :func:`partition`: mode + per-shard assignments."""

    mode: str  # "serial" | "components"
    shards: List[ShardAssignment] = field(default_factory=list)
    fallback_reason: Optional[str] = None
    #: Per-shard sets of *global* fault ordinals the shard applies
    #: (components mode; every shard replays the full timeout chain so
    #: sequence allocation matches serial, but only applies its own faults).
    local_fault_ordinals: Optional[List[FrozenSet[int]]] = None


def _serial_plan(reason: str) -> ShardPlan:
    return ShardPlan(mode="serial", fallback_reason=reason)


def _attribute_fault(spec: ScenarioSpec, fault) -> Tuple[Optional[str], Optional[str]]:
    """Map a fault to its owning node, or a serial-fallback reason.

    Returns ``(node, None)`` on success, ``(None, reason)`` when the fault
    is scenario-global (shared RNG stream, switch) or unattributable.
    """
    kind = fault.kind
    target = fault.target
    if kind in _GATED_FAULT_KINDS:
        return None, (
            f"fault kind {kind!r} draws from the shared faults/loss RNG stream"
        )
    if kind.startswith("switch.") or target == "sw" or target.endswith("/sw"):
        return None, f"fault {kind!r} targets the shared switch"
    if kind.startswith("link."):
        if "->" in target:
            a, b = target.split("->", 1)
            if b == "sw":
                return a, None
            if a == "sw":
                return b, None
        return None, f"cannot attribute link fault target {target!r} to a node"
    if kind.startswith("nic.") or kind.startswith("target."):
        return target, None
    if kind.startswith("ssd."):
        return target.split("/", 1)[0], None
    if kind.startswith("qpair.") or kind.startswith("initiator."):
        for p in spec.placements:
            if p.spec.name == target:
                return p.initiator_node, None
        return None, f"fault targets unknown tenant {target!r}"
    return None, f"cannot attribute fault kind {kind!r} to a node"


def _connected_components(spec: ScenarioSpec) -> List[List[str]]:
    """Connected components of the node graph, ordered and internally
    sorted by declaration position (construction order is allocation
    order)."""
    pos = {name: i for i, (_k, name, _n) in enumerate(spec.node_order)}
    parent = {name: name for name in pos}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in spec.placements:
        ra, rb = find(p.initiator_node), find(p.target_node)
        if ra != rb:
            parent[rb] = ra
    groups: Dict[str, List[str]] = {}
    for name in pos:
        groups.setdefault(find(name), []).append(name)
    comps = [sorted(g, key=pos.__getitem__) for g in groups.values()]
    comps.sort(key=lambda g: pos[g[0]])
    return comps


def partition(spec: ScenarioSpec, shards: int) -> ShardPlan:
    """Decide the execution mode and assign nodes/tenants to shards."""
    cfg = spec.config
    if shards <= 1:
        return _serial_plan("requested shards <= 1")
    if cfg.qos_enabled:
        return _serial_plan("QoS control plane is scenario-global")
    if spec.has_tc and spec.has_ls:
        # The TC-quota -> LS-stop quiesce is a same-instant global mutation:
        # serial stops every LS generator at the heap position of the final
        # TC done event, so an LS completion landing at *exactly* T* issues
        # one more op iff its globally-allocated sequence number precedes
        # that position.  Quantised service times put completions on a
        # lattice, so such ties are common, and no shard can know the global
        # allocation order — so the mix runs serially.
        return _serial_plan(
            "TC+LS tenant mix couples the global TC-quota instant to the LS "
            "stop (quiesce); T*-co-timed events cannot be ordered across "
            "shards"
        )

    fault_nodes: List[str] = []
    chaos = cfg.chaos
    if chaos is not None and len(chaos):
        for fault in chaos.ordered():
            node, reason = _attribute_fault(spec, fault)
            if reason is not None:
                return _serial_plan(reason)
            fault_nodes.append(node)

    comps = _connected_components(spec)
    if len(comps) < 2:
        return _serial_plan("a single connected component")
    pos = {name: i for i, (_k, name, _n) in enumerate(spec.node_order)}
    tenant_count: Dict[str, int] = {}
    for p in spec.placements:
        tenant_count[p.initiator_node] = tenant_count.get(p.initiator_node, 0) + 1

    k = min(shards, len(comps))
    weights = [sum(tenant_count.get(n, 0) for n in comp) for comp in comps]
    order = sorted(range(len(comps)), key=lambda i: (-weights[i], i))
    bins: List[List[str]] = [[] for _ in range(k)]
    loads = [0] * k
    for i in order:
        s = min(range(k), key=lambda j: (loads[j], j))
        bins[s].extend(comps[i])
        loads[s] += weights[i]
    assignments = []
    for s, nodes in enumerate(bins):
        nodes = tuple(sorted(nodes, key=pos.__getitem__))
        node_set = set(nodes)
        pidx = tuple(
            p.index for p in spec.placements if p.initiator_node in node_set
        )
        assignments.append(ShardAssignment(s, nodes, pidx))
    ordinals = [
        frozenset(
            i for i, nd in enumerate(fault_nodes) if nd in set(a.nodes)
        )
        for a in assignments
    ]
    return ShardPlan(
        mode="components",
        shards=assignments,
        local_fault_ordinals=ordinals,
    )


# -- shard-side construction ---------------------------------------------------------
class _ShardInjector(Injector):
    """Injector replaying the *full* schedule chain but applying only the
    shard-local faults.

    Running the whole timeout chain in every shard reproduces the serial
    injector's event-sequence allocation points exactly (the chain timer for
    fault *k* is armed when fault *k-1* fires, wherever it lives), so
    co-timed fault/component event ordering survives sharding.  Remote
    faults are skipped before any handler or registry lookup; their ordinals
    never appear in this shard's trace.
    """

    def __init__(self, *args, local_ordinals: FrozenSet[int] = frozenset(), **kwargs):
        super().__init__(*args, **kwargs)
        self._local_ordinals = local_ordinals

    def _apply(self, fault, ordinal: int = 0) -> None:
        if ordinal in self._local_ordinals:
            super()._apply(fault, ordinal)


def _build_component_shard(
    spec: ScenarioSpec, assignment: ShardAssignment, local_ordinals: FrozenSet[int]
) -> Scenario:
    sc, tmap, imap = spec.instantiate_nodes(assignment.nodes)
    if spec.config.chaos is not None and len(spec.config.chaos):
        sc._injector_factory = partial(_ShardInjector, local_ordinals=local_ordinals)
    for pi in assignment.placement_indices:
        p = spec.placements[pi]
        sc.add_tenant(
            p.spec,
            imap[p.initiator_node],
            tmap[p.target_node],
            p.nsid,
            tenant_id=pi,
            conn_id=pi + 1,
        )
    return sc


# -- worker processes ----------------------------------------------------------------
def _shard_payload(sc: Scenario, quota_at: float) -> dict:
    """Everything the coordinator needs from one finished shard."""
    agg = sc._gather_aggregates()
    col = sc.collector
    records = {
        name: [(r.completed_at, r.latency, r.nbytes, r.op, r.status) for r in recs]
        for name, recs in col._records.items()
    }
    books: Dict[str, Tuple[int, int]] = {}
    for inode in sc.initiator_nodes.values():
        for ini in inode.initiators:
            books[ini.name] = (ini.qpair.outstanding, len(ini._paced_cids))
    inj = sc.injector
    return {
        "agg": agg,
        "records": records,
        "priorities": dict(col._priorities),
        "total_recorded": col.total_recorded,
        "final_time": sc.env.now,
        "quota_at": quota_at,
        "trace": list(inj.trace) if inj is not None else [],
        "trace_meta": list(inj.trace_meta) if inj is not None else [],
        "books": books,
    }


def _component_worker(conn, spec: ScenarioSpec, plan: ShardPlan, shard_idx: int) -> None:
    assignment = plan.shards[shard_idx]
    ordinals = (
        plan.local_fault_ordinals[shard_idx]
        if plan.local_fault_ordinals is not None
        else frozenset()
    )
    sc = _build_component_shard(spec, assignment, ordinals)
    env = sc.env
    quota_at = None
    # The serial lifecycle with one global barrier: the worker reports its
    # handshake milestone and advances to the global anchor H*, so the
    # launch runs at exactly that instant.  Sharded plans never mix TC and
    # LS tenants and never build a QoS plane, so the quiesce at the local
    # quota barrier changes no engine state; the local quota time ships in
    # the payload and the coordinator takes T* as the maximum.
    for phase, barrier in sc.lifecycle():
        env.run(until=barrier)
        if phase == "connect":
            conn.send(("handshake", env.now))
            op, h_star = conn.recv()
            assert op == "launch", op
            env.run(until=h_star)
        elif phase == "workload":
            quota_at = env.now
    conn.send(("payload", _shard_payload(sc, quota_at)))


def _worker_entry(conn, spec: ScenarioSpec, plan: ShardPlan, shard_idx: int):
    try:
        _component_worker(conn, spec, plan, shard_idx)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - peer already gone
            pass
    finally:
        conn.close()


# -- coordinator ---------------------------------------------------------------------
class _Worker:
    """One forked shard process plus its pipe endpoint."""

    def __init__(self, ctx, spec: ScenarioSpec, plan: ShardPlan, idx: int):
        self.index = idx
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_entry,
            args=(child, spec, plan, idx),
            daemon=True,
            name=f"repro-shard-{idx}",
        )
        self.proc.start()
        child.close()

    def send(self, msg) -> None:
        self.conn.send(msg)

    def recv(self, expect: str):
        try:
            msg = self.conn.recv()
        except EOFError:
            raise CampaignError(
                f"shard {self.index} died without replying (expected {expect!r})"
            ) from None
        if msg[0] == "error":
            raise CampaignError(f"shard {self.index} failed:\n{msg[1]}")
        if msg[0] != expect:
            raise CampaignError(
                f"shard {self.index} protocol error: got {msg[0]!r}, "
                f"expected {expect!r}"
            )
        return msg

    def shutdown(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)


class _Timers:
    """Coarse phase accounting: time blocked on workers vs. coordinator work."""

    def __init__(self) -> None:
        self.simulate = 0.0
        self.exchange = 0.0

    def blocked(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.simulate += perf_counter() - t0
        return out


def _coordinate_components(workers: List[_Worker], timers: _Timers):
    """One barrier, the handshake anchor H*; T* comes back in the payloads."""
    h_star = max(timers.blocked(w.recv, "handshake")[1] for w in workers)
    for w in workers:
        w.send(("launch", h_star))
    payloads = [timers.blocked(w.recv, "payload")[1] for w in workers]
    return payloads, h_star, max(p["quota_at"] for p in payloads)


# -- merge ---------------------------------------------------------------------------
_SUMMED_FIELDS = (
    "completion_notifications",
    "coalesced_notifications",
    "data_pdus_sent",
    "commands_received",
    "tenant_switches",
    "tcp_retransmits",
    "goodput_ops",
    "failed_ops",
    "fabric_drops",
)


def _merge_payloads(
    spec: ScenarioSpec, plan: ShardPlan, payloads: List[dict], h_star: float, t_star: float
) -> ScenarioResult:
    cfg = spec.config
    # The serial run's warmup-marker timeout stays in the heap until the
    # final drain, so the serial clock never ends before H* + warmup even
    # when the data events do; reproduce that floor here (the marker's only
    # other observable — the measurement window — is replayed below).
    final_time = max(
        max(p["final_time"] for p in payloads), h_star + cfg.warmup_us
    )
    env = Environment(initial_time=final_time)
    col = Collector(env)
    tenant_index = {p.spec.name: p.index for p in spec.placements}
    entries = []
    for payload in payloads:
        for name, recs in payload["records"].items():
            entries.append(
                (recs[0][0], tenant_index[name], name, recs, payload["priorities"][name])
            )
    # Collector queries iterate in canonical (name-sorted) order, so the
    # insertion order here cannot perturb any float reduction; the sort is
    # kept purely so the merged collector's internal state is deterministic.
    entries.sort(key=lambda e: (e[0], e[1]))
    for _first, _idx, name, recs, prio in entries:
        col._records[name] = [_Record(*r) for r in recs]
        col._priorities[name] = prio
    col.total_recorded = sum(p["total_recorded"] for p in payloads)

    # Post-hoc replay of the serial measurement-window protocol (shards ship
    # raw records, not their collector's window).  The marker fires iff
    # H* + warmup <= T* — on a tie its sequence number (allocated at
    # launch) beats the quota AllOf's (allocated at T*).
    if h_star + cfg.warmup_us <= t_star:
        col.set_window(h_star + cfg.warmup_us, t_star)
    else:
        col.set_window(0.0, t_star)
    if col.elapsed_us() < 0.3 * (t_star - h_star):
        col.set_window(h_star, t_star)
    col.ensure_window(fallback_start=h_star)

    merged = ResultAggregates()
    for name in _SUMMED_FIELDS:
        setattr(merged, name, sum(getattr(p["agg"], name) for p in payloads))
    for dict_field in ("recovery", "opf", "fault_events"):
        out: Dict[str, int] = {}
        for p in payloads:
            for key, val in getattr(p["agg"], dict_field).items():
                out[key] = out.get(key, 0) + val
        setattr(merged, dict_field, out)
    node_owner = {name: a.index for a in plan.shards for name in a.nodes}
    core_iters = {i: iter(p["agg"].cores) for i, p in enumerate(payloads)}
    merged.cores = [
        next(core_iters[node_owner[name]])
        for kind, name, _ in spec.node_order
        if kind == "target"
    ]
    merged.tc_names = [
        p.spec.name for p in spec.placements if p.spec.priority is Priority.THROUGHPUT
    ]
    lines = []
    for payload in payloads:
        for line, meta in zip(payload["trace"], payload["trace_meta"]):
            lines.append((meta[0], meta[1], meta[2], line))
    lines.sort(key=lambda e: (e[0], e[1], e[2]))
    merged.fault_trace = "\n".join(line for _t, _r, _o, line in lines)
    return assemble_result(cfg, col, merged, final_time)


# -- entry point ---------------------------------------------------------------------
@dataclass
class ShardedRunReport:
    """A sharded run's result plus how it was executed."""

    result: ScenarioResult
    mode: str
    requested_shards: int
    shards: int
    fallback_reason: Optional[str]
    #: Wall-clock seconds per phase: partition / simulate (blocked on
    #: workers) / exchange (starting the workers) / merge.
    timings: Dict[str, float]
    #: Per-tenant ``(outstanding_cids, paced_cids)`` after the drain — the
    #: reconciled CID books; every entry must be ``(0, 0)`` for a clean run.
    books: Dict[str, Tuple[int, int]] = field(default_factory=dict)


def run_sharded(
    spec: ScenarioSpec,
    shards: int,
    plan: Optional[ShardPlan] = None,
) -> ShardedRunReport:
    """Run ``spec`` across ``shards`` worker processes.

    Falls back to the serial path (with the reason logged and recorded on
    the report) whenever :func:`partition` cannot preserve bit-identity.
    The returned result is bit-identical to ``spec.build().run()`` in every
    mode.
    """
    t0 = perf_counter()
    if plan is None:
        plan = partition(spec, shards)
    t_partition = perf_counter() - t0

    if plan.mode == "serial":
        logger.info(
            "sharded run fell back to serial (requested %d shards): %s",
            shards,
            plan.fallback_reason,
        )
        t1 = perf_counter()
        result = spec.build().run()
        return ShardedRunReport(
            result=result,
            mode="serial",
            requested_shards=shards,
            shards=1,
            fallback_reason=plan.fallback_reason,
            timings={
                "partition": t_partition,
                "simulate": perf_counter() - t1,
                "exchange": 0.0,
                "merge": 0.0,
            },
        )

    ctx = multiprocessing.get_context("fork")
    timers = _Timers()
    t1 = perf_counter()
    workers = [_Worker(ctx, spec, plan, a.index) for a in plan.shards]
    timers.exchange += perf_counter() - t1
    try:
        payloads, h_star, t_star = _coordinate_components(workers, timers)
    finally:
        for w in workers:
            w.shutdown()

    t2 = perf_counter()
    result = _merge_payloads(spec, plan, payloads, h_star, t_star)
    books: Dict[str, Tuple[int, int]] = {}
    for payload in payloads:
        books.update(payload["books"])
    t_merge = perf_counter() - t2
    return ShardedRunReport(
        result=result,
        mode=plan.mode,
        requested_shards=shards,
        shards=len(plan.shards),
        fallback_reason=None,
        timings={
            "partition": t_partition,
            "simulate": timers.simulate,
            "exchange": timers.exchange,
            "merge": t_merge,
        },
        books=books,
    )
