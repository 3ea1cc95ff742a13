"""Declarative experiment scenarios.

A :class:`Scenario` assembles a fabric, target nodes, initiator nodes, and
perf workloads from a :class:`ScenarioConfig`, runs the simulation, and
returns a :class:`ScenarioResult` with the figures' metrics: aggregate
throughput-critical throughput, latency-sensitive p99.99 tail latency,
completion-notification counts, and congestion counters.

Measurement protocol: throughput-critical tenants run a fixed op quota;
latency-sensitive tenants run open-ended and are stopped when the last TC
tenant finishes (an LS-only scenario instead runs the LS quota).  Metrics
exclude a configurable warmup interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..config import network_tuning, preset_for_network
from ..core.flags import Priority
from ..cpu.costs import CpuCostModel, DEFAULT_COSTS
from ..errors import ConfigError
from ..metrics.collector import Collector
from ..metrics.percentile import LatencyDistribution
from ..metrics.report import jain_fairness
from ..net.topology import Fabric
from ..qos.controller import DEFAULT_INTERVAL_US, QosController, TenantHandle
from ..qos.policy import POLICY_NAMES, POLICY_PARAMETERS, POLICY_STATIC, make_policy
from ..qos.report import QosReport
from ..qos.slo import SloSet, TenantSlo
from ..qos.telemetry import TelemetryHub
from ..qos.throttle import TokenBucket
from ..simcore.engine import Environment
from ..simcore.events import Event
from ..simcore.rng import RandomStreams
from ..ssd.ftl import FtlConfig
from ..ssd.latency import SsdProfile
from ..units import BLOCK_4K
from ..workloads.mixes import TenantSpec
from ..workloads.perf import PerfConfig, PerfGenerator
from .node import InitiatorNode, PROTOCOL_SPDK, PROTOCOLS, TargetNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import Injector
    from ..faults.recovery import RetryPolicy
    from ..faults.schedule import FaultSchedule

_HUGE_OPS = 10**9  # effectively unbounded quota for open-ended LS tenants


def _start_generator(gen: "PerfGenerator") -> None:
    """call_later trampoline for staged tenant arrivals."""
    gen.start()


def _invoke_scripted(fn: Callable[[], None]) -> None:
    """call_later trampoline for scenario-program scripted actions."""
    fn()

#: InitiatorStats counters rolled up into :attr:`ScenarioResult.recovery`.
_RECOVERY_COUNTERS = (
    "timeouts",
    "retries",
    "error_retries",
    "exhausted",
    "stale_responses",
    "disconnects",
    "reconnects",
    "deferred_sends",
    "resent_on_reconnect",
    "dropped_disconnected",
)


@dataclass
class ScenarioConfig:
    """Knobs shared by every figure's scenarios."""

    protocol: str = PROTOCOL_SPDK
    network_gbps: float = 100.0
    transport: str = "tcp"  # "tcp" (the paper's fabric) | "rdma" (lossless)
    op_mix: str = "read"  # "read" | "write" | "rw50"
    pattern: str = "seq"  # "seq" (the paper's perf runs) | "rand"
    io_size: int = BLOCK_4K
    #: oPF coalescing window (pick one with :func:`repro.core.select_window`).
    window_size: int = 32
    total_ops: int = 600  # per throughput-critical tenant
    ls_total_ops: Optional[int] = None  # only for LS-only scenarios
    warmup_us: float = 1_000.0
    seed: int = 1
    conn_switch_cost: float = 0.5
    costs: CpuCostModel = DEFAULT_COSTS
    ftl_config: Optional[FtlConfig] = None
    #: Drive model of every target SSD (None = the network preset's drive).
    ssd_profile: Optional[SsdProfile] = None
    validate_pdus: bool = False
    namespace_blocks: int = 1 << 20
    target_cls: Optional[type] = None  # override (ablations)
    #: Fault schedule replayed against the live components (None = no chaos;
    #: guaranteed bit-identical to a no-chaos build of the same scenario).
    chaos: Optional["FaultSchedule"] = None
    #: Time base for the chaos schedule: ``"absolute"`` (the classic path —
    #: fault times count from simulation t=0, handshakes included) or
    #: ``"workload"`` (the injector is armed at workload onset, so fault
    #: times share the ``start_delay_us`` / scripted-action time base that
    #: scenario programs use for every other action).
    chaos_epoch: str = "absolute"
    #: Initiator-side timeout/retry/reconnect policy.  Required for chaos
    #: runs that sever connections or lose commands; optional otherwise.
    retry_policy: Optional["RetryPolicy"] = None
    #: QoS control plane.  ``"static"`` with no SLOs (the default) builds no
    #: control plane at all — every pre-QoS golden digest is bit-identical.
    #: Any SLO or a non-static policy arms telemetry taps, token buckets,
    #: and the periodic controller (see ``repro.qos``).
    qos_policy: str = POLICY_STATIC
    slos: Tuple[TenantSlo, ...] = ()
    qos_interval_us: float = DEFAULT_INTERVAL_US
    #: Policy tuning overrides forwarded to :func:`repro.qos.make_policy`.
    qos_params: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.transport not in ("tcp", "rdma"):
            raise ConfigError(f"unknown transport {self.transport!r}")
        if self.total_ops < 1:
            raise ConfigError("total_ops must be >= 1")
        window = self.window_size
        if isinstance(window, bool) or not isinstance(window, int) or window < 1:
            raise ConfigError(f"window_size must be an integer >= 1 (got {window!r})")
        if self.warmup_us < 0:
            raise ConfigError("warmup must be non-negative")
        if self.chaos_epoch not in ("absolute", "workload"):
            raise ConfigError(
                f"unknown chaos epoch {self.chaos_epoch!r}; choose 'absolute' "
                f"or 'workload'"
            )
        if self.qos_policy not in POLICY_NAMES:
            raise ConfigError(
                f"unknown QoS policy {self.qos_policy!r}; choose from {POLICY_NAMES}"
            )
        if self.qos_interval_us <= 0:
            raise ConfigError("QoS control interval must be positive")
        if self.qos_params:
            known = POLICY_PARAMETERS[self.qos_policy]
            for key in self.qos_params:
                if key not in known:
                    raise ConfigError(
                        f"unknown qos_params key {key!r} for policy "
                        f"{self.qos_policy!r}; known: {sorted(known)}"
                    )
        self.slos = tuple(self.slos)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioConfig":
        """Build a config from plain data (scenario-program JSON).

        Unlike ``cls(**data)`` — whose TypeError on a bad key is opaque —
        unknown keys raise a :class:`ConfigError` naming every offender, and
        SLO / retry-policy sub-objects may arrive as plain dicts.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown ScenarioConfig keys: {unknown}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        slos = kwargs.get("slos")
        if slos:
            kwargs["slos"] = tuple(
                TenantSlo(**dict(s)) if isinstance(s, Mapping) else s for s in slos
            )
        retry = kwargs.get("retry_policy")
        if isinstance(retry, Mapping):
            from ..faults.recovery import RetryPolicy

            kwargs["retry_policy"] = RetryPolicy(**dict(retry))
        return cls(**kwargs)

    @property
    def qos_enabled(self) -> bool:
        """Whether this scenario builds the QoS control plane."""
        return self.qos_policy != POLICY_STATIC or bool(self.slos)

    def effective_costs(self) -> CpuCostModel:
        """The cost model adjusted for the transport binding.

        RDMA datapaths bypass the host TCP stack: per-PDU send/receive
        processing shrinks while command/completion construction costs are
        unchanged (they are NVMe work, not network work).
        """
        if self.transport != "rdma":
            return self.costs
        from ..net.rdma import RDMA_COST_SCALE

        return self.costs.with_overrides(
            pdu_rx=self.costs.pdu_rx * RDMA_COST_SCALE,
            pdu_tx=self.costs.pdu_tx * RDMA_COST_SCALE,
        )


@dataclass
class ScenarioResult:
    """Everything the figure harnesses read off one run."""

    protocol: str
    network_gbps: float
    elapsed_us: float
    tc_throughput_mbps: float
    tc_iops: float
    ls_tail_us: Optional[float]
    ls_mean_us: Optional[float]
    mean_latency_us: Optional[float]
    total_throughput_mbps: float
    completion_notifications: int
    coalesced_notifications: int
    data_pdus_sent: int
    commands_received: int
    fabric_drops: int
    tcp_retransmits: int
    tenant_switches: int
    target_cpu_utilization: float
    per_tenant: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: Completed ops that succeeded / that were reported failed (host
    #: timeouts + device errors).  goodput + failed covers every completion:
    #: chaos runs lose no commands, they retry or report them.
    goodput_ops: int = 0
    failed_ops: int = 0
    #: Aggregated initiator recovery counters (zeros without a RetryPolicy).
    recovery: Dict[str, int] = field(default_factory=dict)
    #: oPF drain-protocol health counters (empty for non-oPF protocols; all
    #: zero for a fault-free run).  Initiator side: premature individual
    #: responses for queued TC CIDs, stale/replayed coalesced responses
    #: ignored, watchdog-forced drains, window entries abandoned.  Target
    #: side: duplicated window members dropped, resync exchanges, orphans
    #: error-completed vs kept queued.
    opf: Dict[str, int] = field(default_factory=dict)
    #: Jain's fairness index over per-TC-tenant throughput (None when the
    #: run has fewer than two TC tenants).
    fairness_index: Optional[float] = None
    #: QoS control-plane counters (empty when no control plane was built):
    #: controller ticks, actions applied, paced sends, and per-tenant SLO
    #: violation time/intervals.  Digest lines appear only when nonzero.
    qos: Dict[str, object] = field(default_factory=dict)
    #: Full control-plane record — SLO attainment, violation intervals, and
    #: the controller action log (None when no control plane was built).
    qos_report: Optional[QosReport] = None
    #: EventCounter snapshot: fault inject/revert + recovery event counts.
    fault_events: Dict[str, int] = field(default_factory=dict)
    #: Canonical injector trace ("" when the scenario ran without chaos).
    fault_trace: str = ""

    def metrics_digest(self) -> str:
        """Canonical rendering of every metric in the result.

        Two runs of the same seeded scenario must produce *equal* digests —
        the determinism tests compare this string, so keep it exhaustive:
        any nondeterminism anywhere in the stack shows up here.
        """
        lines = [
            f"elapsed_us={self.elapsed_us!r}",
            f"tc_throughput_mbps={self.tc_throughput_mbps!r}",
            f"tc_iops={self.tc_iops!r}",
            f"ls_tail_us={self.ls_tail_us!r}",
            f"ls_mean_us={self.ls_mean_us!r}",
            f"mean_latency_us={self.mean_latency_us!r}",
            f"total_throughput_mbps={self.total_throughput_mbps!r}",
            f"completion_notifications={self.completion_notifications}",
            f"coalesced_notifications={self.coalesced_notifications}",
            f"data_pdus_sent={self.data_pdus_sent}",
            f"commands_received={self.commands_received}",
            f"fabric_drops={self.fabric_drops}",
            f"tcp_retransmits={self.tcp_retransmits}",
            f"tenant_switches={self.tenant_switches}",
            f"goodput_ops={self.goodput_ops}",
            f"failed_ops={self.failed_ops}",
        ]
        for name in sorted(self.per_tenant):
            tp, lat = self.per_tenant[name]
            lines.append(f"tenant/{name}={tp!r},{lat!r}")
        for key in sorted(self.recovery):
            lines.append(f"recovery/{key}={self.recovery[key]}")
        # oPF drain-protocol counters appear only when nonzero: a fault-free
        # run's digest stays byte-identical to pre-hardening pins (the
        # golden-regression contract), while any chaos run that exercised
        # the drain protocol shows its counters here.  fairness_index is
        # deliberately omitted — it is a pure function of the per-tenant
        # lines above, so it adds no determinism coverage.
        for key in sorted(self.opf):
            if self.opf[key]:
                lines.append(f"opf/{key}={self.opf[key]}")
        # qos counters follow the opf only-when-nonzero rule: scenarios that
        # built no control plane emit nothing (their digests stay
        # byte-identical to pre-QoS pins), and a zero-valued counter on a
        # qos run adds no line either.
        for key in sorted(self.qos):
            if self.qos[key]:
                lines.append(f"qos/{key}={self.qos[key]!r}")
        for key in sorted(self.fault_events):
            lines.append(f"event/{key}={self.fault_events[key]}")
        if self.fault_trace:
            lines.append(self.fault_trace)
        return "\n".join(lines)


class Scenario:
    """Builder + runner for one simulated experiment."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        tuning = network_tuning(config.network_gbps)
        preset = preset_for_network(config.network_gbps)
        self.env = Environment()
        self.streams = RandomStreams(config.seed)
        # RDMA fabrics are lossless (PFC); deep queues approximate the
        # no-drop guarantee the RDMA socket relies on.
        queue_packets = (
            max(tuning.queue_packets, 8192)
            if config.transport == "rdma"
            else tuning.queue_packets
        )
        self.fabric = Fabric(
            self.env,
            rate_gbps=config.network_gbps,
            propagation_us=tuning.propagation_us,
            queue_packets=queue_packets,
            switch_delay_us=tuning.switch_delay_us,
        )
        self.ssd_profile = config.ssd_profile if config.ssd_profile is not None else preset.ssd
        self.collector = Collector(self.env)
        self.target_nodes: List[TargetNode] = []
        self.initiator_nodes: Dict[str, InitiatorNode] = {}
        self.generators: List[PerfGenerator] = []
        self._tenant_assignments: List[Tuple[TenantSpec, InitiatorNode, TargetNode, int]] = []
        self.injector: Optional["Injector"] = None
        self.qos_controller: Optional[QosController] = None
        #: Scripted callbacks fired at workload-relative times (scenario
        #: programs ride on these; empty = zero events added, digests
        #: bit-identical to a build without the mechanism).
        self._scripted: List[Tuple[float, Callable[[], None]]] = []
        #: Live per-tenant objects, populated during run() in declaration
        #: order (scenario-program actuator lookups).
        self.generators_by_name: Dict[str, PerfGenerator] = {}
        self.initiators_by_name: Dict[str, object] = {}
        self._ran = False
        #: Clock at workload launch (the handshake-complete anchor), set by
        #: :meth:`_launch_workload`; None before.  Scripted actions
        #: registered after launch could never fire, so
        #: :meth:`at_workload_time` rejects them.  (Between ``_prepare`` and
        #: launch they are still legal — the service layer injects
        #: mid-session actions in that gap.)
        self.workload_start: Optional[float] = None

    # -- construction ----------------------------------------------------------------
    def add_target_node(self, name: Optional[str] = None, n_ssds: int = 1) -> TargetNode:
        cfg = self.config
        node = TargetNode(
            self.env,
            name or f"target{len(self.target_nodes)}",
            self.fabric,
            self.streams,
            protocol=cfg.protocol,
            n_ssds=n_ssds,
            ssd_profile=self.ssd_profile,
            ftl_config=cfg.ftl_config,
            costs=cfg.effective_costs(),
            conn_switch_cost=cfg.conn_switch_cost,
            target_cls=cfg.target_cls,
        )
        self.target_nodes.append(node)
        return node

    def add_initiator_node(self, name: Optional[str] = None) -> InitiatorNode:
        node = InitiatorNode(self.env, name or f"client{len(self.initiator_nodes)}", self.fabric)
        self.initiator_nodes[node.name] = node
        return node

    def add_tenant(
        self,
        spec: TenantSpec,
        initiator_node: InitiatorNode,
        target_node: TargetNode,
        nsid: int = 1,
    ) -> None:
        """Declare one tenant; instantiated (with workload) at run()."""
        if any(s.name == spec.name for s, _i, _t, _n in self._tenant_assignments):
            raise ConfigError(f"duplicate tenant name {spec.name!r}")
        self._tenant_assignments.append((spec, initiator_node, target_node, nsid))

    def at_workload_time(self, delay_us: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn()`` at ``delay_us`` after the workload starts.

        The hook scenario programs compile onto: callbacks run on the
        engine's callback fast path, after connection handshakes, with the
        same time base as :attr:`TenantSpec.start_delay_us`.  Same-time
        callbacks fire in registration order, after any same-time staged
        tenant start.
        """
        if self.workload_start is not None:
            raise ConfigError(
                "scenario already ran; script actions before the workload launches"
            )
        if delay_us < 0:
            raise ConfigError("scripted actions cannot run before the workload starts")
        self._scripted.append((float(delay_us), fn))

    # -- convenience builders ---------------------------------------------------------
    @staticmethod
    def two_sided(config: ScenarioConfig, tenants: List[TenantSpec]) -> "Scenario":
        """The Figure 6/7 shape (:meth:`ScenarioSpec.two_sided
        <repro.cluster.spec.ScenarioSpec.two_sided>`), built."""
        from .spec import ScenarioSpec

        return ScenarioSpec.two_sided(config, tenants).build()

    # -- execution -----------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        env = self.env
        for _phase, barrier in self.lifecycle():
            env.run(until=barrier)
        return self._build_result()

    def lifecycle(self) -> Iterator[Tuple[str, Optional[Event]]]:
        """The run's phase machine: connect → launch → quota → quiesce → drain.

        A resumable generator of ``(phase, barrier)`` pairs, the one copy
        both drivers step: the blocking :meth:`run`
        (``env.run(until=barrier)``) and the service layer's budgeted
        sessions (``env.advance`` slices).  The driver dispatches until
        ``barrier`` is processed — or, for ``None``, until the queue
        drains — then resumes the generator, which performs the next
        transition.  Every engine allocation a
        transition makes therefore happens at the same simulated time and
        in the same order whichever driver reached it, so sequence numbers,
        and with them replay order, are identical.

        The first step builds every live component (:meth:`_prepare`).
        """
        env = self.env
        cfg = self.config
        collector = self.collector
        connect_events, tc_generators, ls_generators = self._prepare()
        yield "connect", env.all_of(connect_events)

        # Handshakes done: launch the workload, arm the warmup marker, and
        # wait for the quota generators.
        self._launch_workload()
        workload_start = self.workload_start
        marker_armed = True

        def warmup_marker(env):
            yield env.timeout(cfg.warmup_us)
            if marker_armed:
                collector.start_measuring()

        env.process(warmup_marker(env))
        quota_gens = tc_generators or ls_generators
        yield "workload", env.all_of([g.done for g in quota_gens])

        # Quota done.  Disarm the marker: if the whole run fit inside the
        # warmup it must not clobber the window during the quiesce below.
        marker_armed = False
        collector.stop_measuring()
        # Guard against degenerate measurement windows.  Coalesced
        # completions land in window-sized bursts, so a window that covers
        # only a sliver of the run (warmup ~ run length) would measure one
        # burst and report a nonsense rate.  Fall back to the full workload
        # interval when the warmup consumed most of the run.
        if collector.elapsed_us() < 0.3 * (env.now - workload_start):
            collector.set_window(workload_start, env.now)
        collector.ensure_window(fallback_start=workload_start)

        # Quiesce: stop open-ended tenants so the drain runs dry.  The
        # controller stops first — a still-armed tick would reschedule
        # itself forever and the drain would never finish.
        if self.qos_controller is not None:
            self.qos_controller.stop()
        if tc_generators:
            for gen in ls_generators:
                gen.stop()
        yield "drain", None

    def _prepare(self) -> Tuple[List[Event], List[PerfGenerator], List[PerfGenerator]]:
        """Build every live component up to (but excluding) the handshakes.

        Returns the connect events and the TC and LS generators.  All
        construction-order-sensitive allocation (tenant ids, connection ids,
        RNG stream derivation, event sequence numbers) happens here in
        declaration order.
        """
        if self._ran:
            raise ConfigError("a Scenario can only run once; build a fresh one")
        self._ran = True
        if not self._tenant_assignments:
            raise ConfigError("no tenants declared")
        cfg = self.config
        env = self.env

        # QoS control plane (built only when the config asks for it: the
        # default static/no-SLO path must not even attach the taps).
        qos_hub: Optional[TelemetryHub] = None
        qos_handles: List[TenantHandle] = []
        slo_set = SloSet(cfg.slos)
        if cfg.qos_enabled:
            qos_hub = TelemetryHub()
            declared = {spec.name for spec, _i, _t, _n in self._tenant_assignments}
            for slo in slo_set:
                if slo.tenant not in declared:
                    raise ConfigError(
                        f"SLO names unknown tenant {slo.tenant!r}; declared: "
                        f"{sorted(declared)}"
                    )

        # Instantiate initiators + workloads.
        connect_events = []
        tc_generators: List[PerfGenerator] = []
        ls_generators: List[PerfGenerator] = []
        for spec, inode, tnode, nsid in self._tenant_assignments:
            initiator = inode.add_initiator(
                spec.name,
                tnode,
                protocol=cfg.protocol,
                queue_depth=spec.queue_depth,
                costs=cfg.effective_costs(),
                collector=self.collector,
                window_size=cfg.window_size,
                validate_pdus=cfg.validate_pdus,
                transport=cfg.transport,
                retry_policy=cfg.retry_policy,
                recovery_rng=(
                    self.streams.stream(f"recovery/{spec.name}")
                    if cfg.retry_policy is not None
                    else None
                ),
                events=self.collector.events if cfg.retry_policy is not None else None,
            )
            if qos_hub is not None:
                telemetry = qos_hub.register(spec.name)
                initiator.qos_tap = telemetry.observe_request
                throttle = TokenBucket()
                initiator.qos_throttle = throttle
                qos_handles.append(
                    TenantHandle(
                        spec.name,
                        spec.priority,
                        initiator,
                        telemetry,
                        throttle,
                        slo_set.for_tenant(spec.name),
                    )
                )
            connect_events.append(initiator.connect())
            is_ls = spec.priority is Priority.LATENCY
            if spec.total_ops is not None:
                total = spec.total_ops
            elif is_ls:
                total = cfg.ls_total_ops if cfg.ls_total_ops is not None else _HUGE_OPS
            else:
                total = cfg.total_ops
            perf_cfg = PerfConfig(
                op_mix=spec.op_mix,
                io_size=cfg.io_size,
                queue_depth=spec.queue_depth,
                total_ops=total,
                pattern=cfg.pattern,
                priority=spec.priority,
                nsid=nsid,
            )
            gen = PerfGenerator(
                env,
                initiator,
                perf_cfg,
                rng=self.streams.stream(f"workload/{spec.name}"),
                namespace_blocks=cfg.namespace_blocks,
            )
            (ls_generators if is_ls else tc_generators).append(gen)
            self.generators.append(gen)
            self.generators_by_name[spec.name] = gen
            self.initiators_by_name[spec.name] = initiator

        # Arm the fault injector (if any).  The "absolute" epoch arms it
        # before time advances so the schedule's clock matches the scenario
        # clock from t=0; the "workload" epoch defers arming until after the
        # handshakes so fault times share the workload-relative time base.
        if cfg.chaos is not None and len(cfg.chaos):
            self.injector = self._build_injector(cfg.chaos)
            if cfg.chaos_epoch == "absolute":
                self.injector.start()

        if qos_handles:
            self.qos_controller = QosController(
                env,
                make_policy(cfg.qos_policy, cfg.qos_params),
                qos_handles,
                QosReport(policy=cfg.qos_policy, interval_us=cfg.qos_interval_us),
                interval_us=cfg.qos_interval_us,
            )

        return connect_events, tc_generators, ls_generators

    def _launch_workload(self) -> None:
        """Arm everything that starts at workload onset (``env.now`` = the
        handshake-complete anchor)."""
        cfg = self.config
        env = self.env
        self.workload_start = env.now
        if self.injector is not None and cfg.chaos_epoch == "workload":
            self.injector.start()
        if self.qos_controller is not None:
            self.qos_controller.start()
        for gen, (spec, _i, _t, _n) in zip(self.generators, self._tenant_assignments):
            delay = spec.start_delay_us
            if delay > 0.0:
                # Staged arrival (e.g. a mid-run TC burst): the generator's
                # done event exists from construction, so quota accounting
                # below is oblivious to when the workload actually starts.
                env.call_later(delay, _start_generator, gen)
            else:
                gen.start()
        # Scripted scenario-program actions, armed after the staged starts so
        # a same-time join fires before any leave/actuator touching it.
        for delay, fn in self._scripted:
            env.call_later(delay, _invoke_scripted, fn)

    # -- chaos wiring ----------------------------------------------------------------------
    def _build_injector(self, schedule: "FaultSchedule") -> "Injector":
        """Register every live component and arm the fault schedule.

        Component names faults can target: links by link name
        (``"client0->sw"``, ``"sw->target0"``), NICs and targets by node
        name, SSD controllers by device name (``"target0/ssd0"``), the
        switch as ``"sw"`` (or its full fabric name), and initiators by
        tenant name.
        """
        from ..faults.injector import ComponentRegistry, Injector

        registry = ComponentRegistry()
        for node in self.fabric.nodes:
            registry.add("nic", node, self.fabric.nic(node))
            up = self.fabric.uplink(node)
            down = self.fabric.downlink(node)
            registry.add("link", up.name, up)
            registry.add("link", down.name, down)
        registry.add("switch", "sw", self.fabric.switch)
        registry.add("switch", self.fabric.switch.name, self.fabric.switch)
        for tnode in self.target_nodes:
            registry.add("target", tnode.name, tnode.target)
            for ssd in tnode.ssds:
                registry.add("ssd", ssd.name, ssd.controller)
        for inode in self.initiator_nodes.values():
            for initiator in inode.initiators:
                registry.add("initiator", initiator.name, initiator)
        return Injector(
            self.env,
            schedule,
            registry,
            rng=self.streams.stream("faults/loss"),
            events=self.collector.events,
        )

    # -- result assembly -------------------------------------------------------------------
    def _build_result(self) -> ScenarioResult:
        """Read the collector and every live component's counters (after the
        drain) into a :class:`ScenarioResult`."""
        cfg = self.config
        collector = self.collector
        elapsed = collector.elapsed_us()

        # One pass over the name-sorted summaries builds every aggregate.  The
        # sums and pooled samples accumulate in the order the collector's own
        # aggregate_* / combined_latency queries use, so each float reduction
        # is the same; tenants without in-window records add nothing to any.
        ls_pool = LatencyDistribution()
        all_pool = LatencyDistribution()
        tc_mbps = tc_iops = total_mbps = 0.0
        per_tenant: Dict[str, Tuple[float, float]] = {}
        for name, summary in collector.summaries().items():
            latency = summary.latency
            mbps = summary.throughput_mbps(elapsed)
            per_tenant[name] = (mbps, latency.mean() if len(latency) else float("nan"))
            total_mbps += mbps
            all_pool.extend(latency.samples)
            if summary.priority is Priority.THROUGHPUT:
                tc_mbps += mbps
                tc_iops += summary.iops(elapsed)
            elif summary.priority is Priority.LATENCY:
                ls_pool.extend(latency.samples)

        targets = [t.target for t in self.target_nodes]
        retransmits = 0
        goodput_ops = 0
        failed_ops = 0
        recovery = {name: 0 for name in _RECOVERY_COUNTERS}
        opf: Dict[str, int] = {}
        for inode in self.initiator_nodes.values():
            for initiator in inode.initiators:
                retransmits += initiator.transport.socket.stats.retransmits
                goodput_ops += initiator.stats.completed - initiator.stats.failed
                failed_ops += initiator.stats.failed
                for name in _RECOVERY_COUNTERS:
                    recovery[name] += getattr(initiator.stats, name)
                ipm = getattr(initiator, "pm", None)
                if ipm is not None:
                    opf["premature_responses"] = (
                        opf.get("premature_responses", 0) + ipm.premature_responses
                    )
                    opf["duplicate_drains"] = (
                        opf.get("duplicate_drains", 0) + ipm.duplicate_drains
                    )
                    opf["forced_drains"] = opf.get("forced_drains", 0) + ipm.forced_drains
        for target in targets:
            for conn in target.connections:
                retransmits += conn.transport.socket.stats.retransmits
            tpm = getattr(target, "pm", None)
            if tpm is not None and hasattr(tpm, "duplicate_commands"):
                opf["duplicate_commands"] = (
                    opf.get("duplicate_commands", 0) + tpm.duplicate_commands
                )
                opf["resyncs"] = opf.get("resyncs", 0) + tpm.resyncs
                opf["orphans_completed"] = (
                    opf.get("orphans_completed", 0) + tpm.orphans_completed
                )
                opf["orphans_requeued"] = opf.get("orphans_requeued", 0) + tpm.orphans_requeued

        tc_shares = [
            per_tenant[spec.name][0]
            for spec, _inode, _tnode, _nsid in self._tenant_assignments
            if spec.priority is Priority.THROUGHPUT and spec.name in per_tenant
        ]
        qos = self.qos_controller
        return ScenarioResult(
            protocol=cfg.protocol,
            network_gbps=cfg.network_gbps,
            elapsed_us=elapsed,
            tc_throughput_mbps=tc_mbps,
            tc_iops=tc_iops,
            ls_tail_us=ls_pool.tail() if len(ls_pool) else None,
            ls_mean_us=ls_pool.mean() if len(ls_pool) else None,
            mean_latency_us=all_pool.mean() if len(all_pool) else None,
            total_throughput_mbps=total_mbps,
            completion_notifications=sum(t.stats.completion_notifications for t in targets),
            coalesced_notifications=sum(t.stats.coalesced_notifications for t in targets),
            data_pdus_sent=sum(t.stats.data_pdus_sent for t in targets),
            commands_received=sum(t.stats.commands_received for t in targets),
            fabric_drops=self.fabric.total_drops(),
            tcp_retransmits=retransmits,
            tenant_switches=sum(t.stats.tenant_switches for t in targets),
            target_cpu_utilization=max(
                (t.core.utilization() for t in self.target_nodes), default=0.0
            ),
            per_tenant=per_tenant,
            goodput_ops=goodput_ops,
            failed_ops=failed_ops,
            recovery=recovery,
            opf=opf,
            fairness_index=jain_fairness(tc_shares) if len(tc_shares) >= 2 else None,
            qos=qos.report.digest_items() if qos is not None else {},
            qos_report=qos.report if qos is not None else None,
            fault_events=collector.events.snapshot(),
            fault_trace=(
                self.injector.trace_bytes().decode() if self.injector is not None else ""
            ),
        )
