"""The repro.qos control plane: SLOs, telemetry, throttle, policies, reports.

Unit coverage for every qos module plus the integration acceptance runs:
the slo-guard must hold a latency SLO through a TC burst while keeping the
throttled tenants near the congestion knee, and the aimd-window policy must
re-find the Fig. 6 window peak online.  Everything is deterministic — the
determinism tests compare whole action logs byte-for-byte.
"""

import statistics

import pytest

from repro.cluster.scenario import ScenarioConfig
from repro.core.flags import Priority
from repro.errors import ConfigError
from repro.experiments import run_qos_aimd, run_qos_guard
from repro.metrics.percentile import P2Quantile, exact_percentile
from repro.qos.controller import QosController, TenantHandle, WARMUP_OPS
from repro.qos.policy import (
    ACTION_RATE,
    ACTION_WINDOW,
    AimdWindowPolicy,
    QosAction,
    QosPolicy,
    SloGuardPolicy,
    StaticPolicy,
    TenantView,
    make_policy,
)
from repro.qos.report import QosReport, SloTrack
from repro.qos.slo import KIND_LATENCY, KIND_MIXED, KIND_THROUGHPUT, SloSet, TenantSlo
from repro.qos.telemetry import (
    Ewma,
    MIN_TAIL_SAMPLES,
    RATE_WINDOW_TICKS,
    TelemetryHub,
    TenantTelemetry,
)
from repro.qos.throttle import TokenBucket
from repro.simcore.engine import Environment
from tests.conftest import build_fig7_cell


def lcg(seed=42, a=1103515245, c=12345, m=2**31):
    """Deterministic uniform stream in [0, 1) — no entropy APIs in tests."""
    x = seed
    while True:
        x = (a * x + c) % m
        yield x / m


# ---------------------------------------------------------------------------
# SLO specs
# ---------------------------------------------------------------------------
class TestTenantSlo:
    def test_kinds(self):
        assert TenantSlo("a", p99_ceiling_us=100.0).kind == KIND_LATENCY
        assert TenantSlo("a", throughput_floor_mbps=50.0).kind == KIND_THROUGHPUT
        assert (
            TenantSlo("a", p99_ceiling_us=100.0, throughput_floor_mbps=50.0).kind
            == KIND_MIXED
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"p99_ceiling_us": 0.0},
            {"p99_ceiling_us": -1.0},
            {"throughput_floor_mbps": 0.0},
        ],
    )
    def test_invalid_bounds_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TenantSlo("a", **kwargs)

    def test_unnamed_tenant_rejected(self):
        with pytest.raises(ConfigError):
            TenantSlo("", p99_ceiling_us=100.0)

    def test_slo_set_sorted_and_duplicate_free(self):
        slos = SloSet(
            [TenantSlo("b", p99_ceiling_us=1.0), TenantSlo("a", p99_ceiling_us=2.0)]
        )
        assert [slo.tenant for slo in slos] == ["a", "b"]
        assert "a" in slos and "c" not in slos
        assert len(slos) == 2
        assert slos.for_tenant("b").p99_ceiling_us == 1.0
        assert slos.for_tenant("missing") is None
        with pytest.raises(ConfigError):
            SloSet([TenantSlo("a", p99_ceiling_us=1.0)] * 2)


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------
class TestEwma:
    def test_first_update_seeds_the_value(self):
        ewma = Ewma(0.5)
        assert ewma.value is None
        assert ewma.update(10.0) == 10.0
        assert ewma.update(20.0) == 15.0

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_alpha_validated(self, alpha):
        with pytest.raises(ConfigError):
            Ewma(alpha)


class _FakeRequest:
    def __init__(self, op, latency, nbytes, status=0):
        self.op = op
        self.latency = latency
        self.nbytes = nbytes
        self.status = status


class TestTenantTelemetry:
    def test_interval_accumulators_drain_on_snapshot(self):
        t = TenantTelemetry("a")
        t.observe(100.0, 4096)
        t.observe(300.0, 4096)
        s = t.snapshot(now=200.0, interval_us=200.0)
        assert s.ops == 2
        assert s.bytes_moved == 8192
        assert s.throughput_mbps == pytest.approx(8192 / 200.0)
        assert s.latency_max_us == 300.0
        assert s.latency_mean_us == 200.0
        # Drained: the next interval starts from zero.
        empty = t.snapshot(now=400.0, interval_us=200.0)
        assert empty.ops == 0 and empty.bytes_moved == 0
        assert empty.latency_mean_us is None

    def test_failed_completions_move_no_goodput(self):
        t = TenantTelemetry("a")
        t.observe(100.0, 4096, failed=True)
        s = t.snapshot(10.0, 10.0)
        assert s.ops == 1 and s.total_failed == 1
        assert s.bytes_moved == 0

    def test_idle_interval_does_not_decay_the_peak(self):
        t = TenantTelemetry("a")
        t.observe(500.0, 4096)
        busy = t.snapshot(100.0, 100.0)
        idle = t.snapshot(200.0, 100.0)
        assert idle.recent_peak_us == busy.recent_peak_us == 500.0

    def test_smoothed_rate_spans_idle_intervals(self):
        # One window-sized burst followed by idle ticks: the interval rate
        # spikes then zeroes, the smoothed rate amortises the burst.
        t = TenantTelemetry("a")
        t.observe(100.0, 100_000)
        burst = t.snapshot(100.0, 100.0)
        assert burst.throughput_mbps == pytest.approx(1000.0)
        assert burst.smoothed_mbps == pytest.approx(1000.0)
        for i in range(3):
            s = t.snapshot(200.0 + 100.0 * i, 100.0)
        assert s.throughput_mbps == 0.0
        assert s.smoothed_mbps == pytest.approx(100_000 / 400.0)

    def test_smoothed_rate_window_is_bounded(self):
        t = TenantTelemetry("a")
        for i in range(3 * RATE_WINDOW_TICKS):
            t.observe(100.0, 1000)
            s = t.snapshot(100.0 * (i + 1), 100.0)
        assert s.smoothed_mbps == pytest.approx(1000 / 100.0)

    def test_drain_markers_and_flushes_are_not_tenant_work(self):
        from repro.ssd.latency import OP_FLUSH, OP_READ

        t = TenantTelemetry("a")
        t.observe_request(_FakeRequest(OP_FLUSH, 999.0, 0))
        assert t.total_ops == 0
        t.observe_request(_FakeRequest(OP_READ, 100.0, 4096))
        assert t.total_ops == 1 and t.total_bytes == 4096
        t.observe_request(_FakeRequest(OP_READ, 100.0, 4096, status=7))
        assert t.total_failed == 1 and t.total_bytes == 4096

    def test_p99_estimate_gated_on_warmup(self):
        t = TenantTelemetry("a")
        for _ in range(MIN_TAIL_SAMPLES - 1):
            t.observe(100.0, 4096)
        assert t.p99_estimate is None
        t.observe(100.0, 4096)
        assert t.p99_estimate is not None

    def test_hub_registry(self):
        hub = TelemetryHub()
        tap_a = hub.register("a")
        hub.register("b")
        assert hub.names() == ["a", "b"]
        assert len(hub) == 2 and "a" in hub and "z" not in hub
        assert hub.get("a") is tap_a
        hub.tap("a")(_FakeRequest(1, 50.0, 4096))
        assert tap_a.total_ops == 1
        with pytest.raises(ConfigError):
            hub.register("a")


class TestP2AgainstStdlibQuantiles:
    """The streaming tail estimator vs statistics.quantiles (exact)."""

    @pytest.mark.parametrize("seed", [7, 42, 1234])
    def test_p99_tracks_exact_quantile_on_heavy_tail(self, seed):
        stream = lcg(seed)
        # Polynomial heavy tail: most samples near 100us, a long 100x tail.
        data = [100.0 + 9_900.0 * next(stream) ** 6 for _ in range(6000)]
        est = P2Quantile(0.99)
        for x in data:
            est.add(x)
        exact = statistics.quantiles(data, n=100)[98]
        assert est.value == pytest.approx(exact, rel=0.05)
        # And the stdlib agrees with the numpy path the repo already trusts.
        assert exact == pytest.approx(exact_percentile(data, 99.0), rel=0.02)


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate_mbps=0.0)
        with pytest.raises(ConfigError):
            TokenBucket(burst_bytes=0)
        with pytest.raises(ConfigError):
            TokenBucket().set_rate_mbps(-5.0, now=0.0)

    def test_unlimited_passes_everything_free(self):
        bucket = TokenBucket()
        assert bucket.unlimited
        assert bucket.reserve(10**9, now=0.0) == 0.0
        assert bucket.delays == 0

    def test_conformance_greedy_sender_is_paced_to_the_rate(self):
        """Long-run admitted bytes never exceed rate * time + burst."""
        rate = 10.0  # MB/s == bytes/us
        bucket = TokenBucket(rate_mbps=rate, burst_bytes=8192)
        now, sent = 0.0, 0
        for _ in range(500):
            wait = bucket.reserve(4096, now)
            now += wait  # greedy: send as soon as the bucket allows
            sent += 4096
            assert sent <= rate * now + 8192 + 4096
        # The deficit pacing converges to exactly the configured rate.
        assert sent / now == pytest.approx(rate, rel=0.02)
        assert bucket.delays > 0
        assert bucket.waited_us > 0.0

    def test_burst_allowance_passes_unpaced(self):
        bucket = TokenBucket(rate_mbps=1.0, burst_bytes=64 * 1024)
        assert bucket.reserve(64 * 1024, now=0.0) == 0.0
        assert bucket.reserve(1024, now=0.0) == pytest.approx(1024.0)

    def test_rate_change_settles_old_regime_first(self):
        bucket = TokenBucket(rate_mbps=1.0, burst_bytes=1024)
        bucket.reserve(2048, now=0.0)  # 1024 in deficit
        bucket.set_rate_mbps(100.0, now=512.0)  # 512 tokens refilled at 1 MB/s
        # Remaining deficit of 512 bytes drains at the NEW rate.
        assert bucket.reserve(0, now=512.0) == pytest.approx(512 / 100.0)

    def test_lifting_the_throttle(self):
        bucket = TokenBucket(rate_mbps=1.0, burst_bytes=1024)
        bucket.reserve(4096, now=0.0)
        bucket.set_rate_mbps(None, now=1.0)
        assert bucket.unlimited
        assert bucket.reserve(10**6, now=1.0) == 0.0

    def test_rearming_from_unlimited_grants_a_fresh_burst(self):
        bucket = TokenBucket(rate_mbps=None, burst_bytes=4096)
        bucket.reserve(10**6, now=0.0)
        bucket.set_rate_mbps(2.0, now=50.0)
        assert bucket.reserve(4096, now=50.0) == 0.0
        assert bucket.reserve(100, now=50.0) == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# Policies (unit level, synthetic views)
# ---------------------------------------------------------------------------
def _view(
    name="tc0",
    priority=Priority.THROUGHPUT,
    ops=10,
    mbps=100.0,
    smoothed=None,
    peak=None,
    slo=None,
    violated=False,
    window=8,
    rate=None,
    qd=64,
):
    from repro.qos.telemetry import TelemetrySample

    sample = TelemetrySample(
        tenant=name,
        at_us=0.0,
        interval_us=100.0,
        ops=ops,
        bytes_moved=int(mbps * 100.0),
        throughput_mbps=mbps,
        smoothed_mbps=mbps if smoothed is None else smoothed,
        latency_max_us=peak or 0.0,
        latency_mean_us=None,
        ewma_latency_us=None,
        recent_peak_us=peak,
        p99_us=None,
        total_ops=ops,
        total_failed=0,
    )
    return TenantView(
        name=name,
        priority=priority,
        sample=sample,
        slo=slo,
        violated=violated,
        window=window,
        rate_mbps=rate,
        queue_depth=qd,
    )


class TestPolicyRegistry:
    def test_registry_names(self):
        assert isinstance(make_policy("static", None), StaticPolicy)
        assert isinstance(make_policy("aimd-window", None), AimdWindowPolicy)
        assert isinstance(make_policy("slo-guard", None), SloGuardPolicy)
        with pytest.raises(ConfigError):
            make_policy("nope", None)

    def test_static_rejects_parameters(self):
        with pytest.raises(ConfigError):
            make_policy("static", {"x": 1.0})

    def test_unknown_parameters_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("aimd-window", {"bogus": 1.0})
        with pytest.raises(ConfigError):
            make_policy("slo-guard", {"bogus": 1.0})

    def test_parameters_forwarded(self):
        aimd = make_policy("aimd-window", {"increase_step": 2, "hold_ticks": 1})
        assert aimd.increase_step == 2 and aimd.hold_ticks == 1
        guard = make_policy("slo-guard", {"guard_margin": 0.5})
        assert guard.guard_margin == 0.5

    def test_static_policy_never_acts(self):
        assert QosPolicy().decide([_view()]) == []
        assert StaticPolicy().decide([_view(violated=True)]) == []


class TestAimdWindowPolicy:
    def test_constructor_validation(self):
        for kwargs in (
            {"increase_step": 0},
            {"tolerance": 1.0},
            {"tolerance": -0.1},
            {"hold_ticks": 0},
        ):
            with pytest.raises(ConfigError):
                AimdWindowPolicy(**kwargs)

    def test_grows_while_throughput_holds(self):
        policy = AimdWindowPolicy(increase_step=4, hold_ticks=2)
        assert policy.decide([_view(mbps=100.0)]) == []  # epoch accumulating
        actions = policy.decide([_view(mbps=100.0)])
        assert actions == [QosAction("tc0", ACTION_WINDOW, 12.0)]

    def test_halves_on_regression(self):
        policy = AimdWindowPolicy(increase_step=4, hold_ticks=1, tolerance=0.05)
        policy.decide([_view(window=16, mbps=100.0)])  # first epoch: probe up
        actions = policy.decide([_view(window=16, mbps=50.0)])
        assert actions == [QosAction("tc0", ACTION_WINDOW, 8.0)]

    def test_small_dips_inside_tolerance_keep_growing(self):
        policy = AimdWindowPolicy(increase_step=2, hold_ticks=1, tolerance=0.10)
        policy.decide([_view(window=16, mbps=100.0)])
        actions = policy.decide([_view(window=16, mbps=95.0)])
        assert actions == [QosAction("tc0", ACTION_WINDOW, 18.0)]

    def test_ignores_ls_idle_and_windowless_tenants(self):
        policy = AimdWindowPolicy(hold_ticks=1)
        views = [
            _view(name="ls0", priority=Priority.LATENCY),
            _view(name="idle", ops=0),
            _view(name="spdk0", window=None),
        ]
        assert policy.decide(views) == []
        assert policy.decide(views) == []


class TestSloGuardPolicy:
    LS_SLO = TenantSlo("ls0", p99_ceiling_us=1000.0)

    def _ls(self, peak, violated=False):
        return _view(
            name="ls0",
            priority=Priority.LATENCY,
            peak=peak,
            slo=self.LS_SLO,
            violated=violated,
            window=None,
            qd=1,
        )

    def test_constructor_validation(self):
        for kwargs in (
            {"decrease_factor": 0.0},
            {"decrease_factor": 1.0},
            {"recover_step_frac": 0.0},
            {"min_share": 0.0},
            {"recover_after_ticks": 0},
            {"guard_margin": 1.5},
            {"headroom": 0.0},
        ):
            with pytest.raises(ConfigError):
                SloGuardPolicy(**kwargs)

    def test_breach_cuts_tc_rates_multiplicatively(self):
        policy = SloGuardPolicy(decrease_factor=0.5, min_share=0.1)
        views = [self._ls(peak=1200.0, violated=True), _view(mbps=400.0)]
        actions = policy.decide(views)
        assert actions == [QosAction("tc0", ACTION_RATE, 200.0)]

    def test_margin_triggers_before_the_legal_violation(self):
        policy = SloGuardPolicy(guard_margin=0.85)
        # peak 900 < ceiling 1000, but above the 850 margin: act now.
        actions = policy.decide([self._ls(peak=900.0), _view(mbps=400.0)])
        assert len(actions) == 1 and actions[0].value == 200.0

    def test_mid_episode_holds_while_the_backlog_drains(self):
        policy = SloGuardPolicy()
        breach = [self._ls(peak=1200.0, violated=True), _view(mbps=400.0)]
        first = policy.decide(breach)
        assert first  # the fresh-episode cut
        held = [
            self._ls(peak=1200.0, violated=True),
            _view(mbps=400.0, rate=first[0].value),
        ]
        # Ticks 2..escalate_after stay silent; the next boundary escalates.
        cuts = [policy.decide(held) for _ in range(policy.escalate_after_ticks)]
        assert all(not c for c in cuts[:-1])
        assert cuts[-1] and cuts[-1][0].value < first[0].value

    def test_recovery_climbs_to_the_remembered_cap_and_holds(self):
        policy = SloGuardPolicy(
            recover_after_ticks=1, recover_step_frac=0.5, headroom=0.9
        )
        # Learn a baseline, then breach at 400 MB/s -> cap 360, cut to 200.
        policy.decide([self._ls(peak=100.0), _view(mbps=400.0)])
        cut = policy.decide([self._ls(peak=1200.0, violated=True), _view(mbps=400.0)])
        assert cut[0].value == 200.0
        healthy = [self._ls(peak=100.0), _view(mbps=150.0, rate=200.0)]
        step = policy.decide(healthy)
        assert step == [QosAction("tc0", ACTION_RATE, 360.0)]  # clamped to cap
        at_cap = [self._ls(peak=100.0), _view(mbps=150.0, rate=360.0)]
        assert policy.decide(at_cap) == []  # parked just below the knee

    def test_contention_drop_releases_the_cap(self):
        policy = SloGuardPolicy(recover_after_ticks=1, recover_step_frac=1.0)
        burst = [
            self._ls(peak=1200.0, violated=True),
            _view(name="tc0", mbps=400.0),
            _view(name="tc1", mbps=400.0),
        ]
        policy.decide(burst)  # cap learned with two active TC tenants
        # tc1 goes silent long enough to count as gone...
        for _ in range(policy.idle_release_ticks + 1):
            views = [
                self._ls(peak=100.0),
                _view(name="tc0", mbps=150.0, rate=200.0),
                _view(name="tc1", ops=0, mbps=0.0, rate=200.0),
            ]
            actions = policy.decide(views)
        # ...and the survivor recovers all the way to unthrottled.
        assert QosAction("tc0", ACTION_RATE, None) in actions

    def test_idle_tenants_are_not_cut(self):
        policy = SloGuardPolicy()
        views = [self._ls(peak=1200.0, violated=True), _view(ops=0, mbps=0.0)]
        assert policy.decide(views) == []


# ---------------------------------------------------------------------------
# Controller (unit level, real Environment)
# ---------------------------------------------------------------------------
class _FakeOpfInitiator:
    def __init__(self, queue_depth=64, window_size=8):
        self.queue_depth = queue_depth
        self.window_size = window_size

    def apply_window(self, window):
        self.window_size = max(1, min(int(window), self.queue_depth // 2))
        return self.window_size


class _WindowlessInitiator:
    queue_depth = 64


def _handle(name="tc0", initiator=None, slo=None, priority=Priority.THROUGHPUT):
    return TenantHandle(
        name=name,
        priority=priority,
        initiator=initiator if initiator is not None else _FakeOpfInitiator(),
        telemetry=TenantTelemetry(name),
        throttle=TokenBucket(),
        slo=slo,
    )


class _AlwaysResize(QosPolicy):
    def decide(self, views):
        return [QosAction(v.name, ACTION_WINDOW, float(v.window + 1)) for v in views]


class TestController:
    def _controller(self, env, policy, handles, interval=100.0):
        report = QosReport(policy=policy.name, interval_us=interval)
        return QosController(env, policy, handles, report, interval_us=interval)

    def test_construction_validation(self):
        env = Environment()
        with pytest.raises(ConfigError):
            self._controller(env, StaticPolicy(), [_handle()], interval=0.0)
        with pytest.raises(ConfigError):
            self._controller(env, StaticPolicy(), [])

    def test_double_start_rejected_and_stop_idempotent(self):
        env = Environment()
        controller = self._controller(env, StaticPolicy(), [_handle()])
        controller.start()
        with pytest.raises(ConfigError):
            controller.start()
        controller.stop()
        controller.stop()

    def test_stopped_tick_does_not_reschedule(self):
        env = Environment()
        controller = self._controller(env, StaticPolicy(), [_handle()])
        controller.start()
        env.run(until=350.0)
        assert controller.report.ticks == 3
        controller.stop()
        env.run()  # the armed tick fires as a no-op; the queue drains
        assert controller.report.ticks == 3

    def test_actions_apply_and_log(self):
        env = Environment()
        handle = _handle()
        controller = self._controller(env, _AlwaysResize(), [handle])
        controller.start()
        env.run(until=250.0)
        assert handle.initiator.window_size == 10
        kinds = {a.kind for a in controller.report.actions}
        assert kinds == {ACTION_WINDOW}
        assert len(controller.report.actions) == 2
        controller.stop()
        assert controller.report.final_windows["tc0"] == 10

    def test_clamped_noop_resize_is_not_logged(self):
        env = Environment()
        handle = _handle(initiator=_FakeOpfInitiator(queue_depth=16, window_size=8))

        class Overshoot(QosPolicy):
            def decide(self, views):
                return [QosAction("tc0", ACTION_WINDOW, 999.0)]

        controller = self._controller(env, Overshoot(), [handle])
        controller.start()
        env.run(until=250.0)
        # 999 clamps to qd//2 == 8 == current: applied == old, nothing logged.
        assert handle.initiator.window_size == 8
        assert controller.report.actions == []

    def test_window_action_on_windowless_tenant_is_a_config_error(self):
        env = Environment()
        handle = _handle(initiator=_WindowlessInitiator())
        assert handle.window is None
        controller = self._controller(env, _AlwaysResize(), [handle])
        with pytest.raises(ConfigError):
            controller._apply(QosAction("tc0", ACTION_WINDOW, 4.0), now=0.0)

    def test_unknown_tenant_and_unknown_kind_rejected(self):
        env = Environment()
        controller = self._controller(env, StaticPolicy(), [_handle()])
        with pytest.raises(ConfigError):
            controller._apply(QosAction("ghost", ACTION_RATE, 1.0), now=0.0)
        with pytest.raises(ConfigError):
            controller._apply(QosAction("tc0", "paint", 1.0), now=0.0)

    def test_rate_actions_reach_the_bucket(self):
        env = Environment()
        handle = _handle()
        controller = self._controller(env, StaticPolicy(), [handle])
        controller.start()
        controller._apply(QosAction("tc0", ACTION_RATE, 25.0), now=0.0)
        assert handle.rate_mbps == 25.0
        assert len(controller.report.actions) == 1
        # Setting the same rate again is a no-op in the log.
        controller._apply(QosAction("tc0", ACTION_RATE, 25.0), now=100.0)
        assert len(controller.report.actions) == 1
        controller.stop()
        assert controller.report.final_rates["tc0"] == 25.0

    def test_slo_tracking_waits_for_warmup(self):
        env = Environment()
        slo = TenantSlo("tc0", throughput_floor_mbps=1.0)
        handle = _handle(slo=slo)
        controller = self._controller(env, StaticPolicy(), [handle])
        controller.start()
        env.run(until=150.0)
        assert controller.report.tracks == {}  # no completions yet: untracked
        for _ in range(WARMUP_OPS):
            handle.telemetry.observe(50.0, 4096)
        env.run(until=250.0)
        track = controller.report.tracks["tc0"]
        assert track.tracked_us == 100.0
        controller.stop()

    def test_cleared_slo_closes_its_violation_at_the_last_tracked_tick(self):
        """Clearing an SLO mid-violation seals the open interval where the
        last tracked tick ended; it must not stay open until the stop."""
        env = Environment()
        floor = TenantSlo("tc0", throughput_floor_mbps=1e9)  # always breached
        handle = _handle(slo=floor)
        for _ in range(WARMUP_OPS):
            handle.telemetry.observe(50.0, 4096)
        controller = self._controller(env, StaticPolicy(), [handle])
        controller.start()
        env.run(until=250.0)  # ticks at 100, 200: violated
        handle.slo = None
        env.run(until=450.0)  # ticks at 300, 400: untracked
        handle.slo = floor
        env.run(until=650.0)  # ticks at 500, 600: violated again
        controller.stop()
        track = controller.report.tracks["tc0"]
        assert track.violated_us == 400.0
        assert controller.report.violations("tc0") == [(0.0, 200.0), (400.0, 650.0)]


# ---------------------------------------------------------------------------
# Report accounting
# ---------------------------------------------------------------------------
class TestQosReport:
    def test_attainment_books(self):
        track = SloTrack()
        track.mark(100.0, 100.0, violated=False)
        track.mark(200.0, 100.0, violated=True)
        track.mark(300.0, 100.0, violated=True)
        track.mark(400.0, 100.0, violated=False)
        assert track.attainment() == pytest.approx(0.5)
        assert track.intervals == [(100.0, 300.0)]

    def test_open_violation_closed_at_stop(self):
        report = QosReport(policy="slo-guard", interval_us=100.0)
        report.track("ls0", 100.0, 100.0, violated=True)
        report.close(150.0)
        assert report.violations("ls0") == [(0.0, 150.0)]
        assert SloTrack().attainment() is None
        assert report.attainment("ghost") is None
        assert report.violations("ghost") == []

    def test_action_log_rendering(self):
        report = QosReport(policy="slo-guard", interval_us=100.0)
        report.log_action(100.0, "tc0", ACTION_RATE, None, 327.68)
        report.log_action(200.0, "tc0", ACTION_RATE, 327.68, None)
        report.log_action(300.0, "tc0", ACTION_WINDOW, 8.0, 16.0)
        assert report.action_log().splitlines() == [
            "t=100.0us tc0 rate -->327.68",
            "t=200.0us tc0 rate 327.68->-",
            "t=300.0us tc0 window 8->16",
        ]

    def test_digest_items_and_summary(self):
        report = QosReport(policy="static", interval_us=100.0)
        report.ticks = 5
        report.track("ls0", 100.0, 100.0, violated=True)
        report.close(100.0)
        items = report.digest_items()
        assert items["ticks"] == 5
        assert items["violated_us/ls0"] == 100.0
        assert items["violation_intervals/ls0"] == 1
        lines = report.summary_lines()
        assert "policy=static" in lines[0]
        assert "ls0" in lines[1]


# ---------------------------------------------------------------------------
# Scenario config plumbing
# ---------------------------------------------------------------------------
class TestScenarioQosConfig:
    def test_invalid_policy_and_interval_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(qos_policy="nope")
        with pytest.raises(ConfigError):
            ScenarioConfig(qos_interval_us=0.0)

    def test_qos_enabled_gating(self):
        assert not ScenarioConfig().qos_enabled
        assert ScenarioConfig(qos_policy="slo-guard").qos_enabled
        assert ScenarioConfig(
            slos=(TenantSlo("ls0", p99_ceiling_us=100.0),)
        ).qos_enabled


def _scenario_result(policy="static", slos=(), seed=1, total_ops=200, **kw):
    return build_fig7_cell(
        total_ops=total_ops,
        seed=seed,
        qos_policy=policy,
        slos=tuple(slos),
        qos_interval_us=100.0,
        **kw,
    ).run()


class TestDigestRules:
    """The only-when-nonzero qos digest rule (golden regression)."""

    def test_no_control_plane_means_no_qos_lines(self):
        result = _scenario_result()
        assert result.qos == {} and result.qos_report is None
        assert "qos/" not in result.metrics_digest()

    def test_monitoring_plane_adds_only_nonzero_counters(self):
        plain = _scenario_result()
        monitored = _scenario_result(
            slos=[TenantSlo("ls0", p99_ceiling_us=50_000.0)]
        )
        digest = monitored.metrics_digest()
        qos_lines = [line for line in digest.splitlines() if line.startswith("qos/")]
        # A huge ceiling is never violated and static never acts: only the
        # tick counter is nonzero, so only the tick counter appears.
        assert qos_lines == [f"qos/ticks={monitored.qos_report.ticks!r}"]
        base = "\n".join(line for line in digest.splitlines() if not line.startswith("qos/"))
        # The monitoring plane observes without perturbing: stripping its
        # lines recovers the uninstrumented digest bit-for-bit.
        assert base == plain.metrics_digest()

    def test_violations_surface_in_the_digest(self):
        # 1500 TC ops keep the run long enough for the qd-1 LS tenant to
        # clear telemetry warmup (WARMUP_OPS completions at ~600us each).
        tight = _scenario_result(
            slos=[TenantSlo("ls0", p99_ceiling_us=100.0)], total_ops=1_500
        )
        digest = tight.metrics_digest()
        assert any(line.startswith("qos/violated_us/ls0=") for line in digest.splitlines())
        assert any(
            line.startswith("qos/violation_intervals/ls0=") for line in digest.splitlines()
        )


class TestDeterminism:
    def test_guard_runs_are_bit_identical(self):
        one = _scenario_result(
            "slo-guard", [TenantSlo("ls0", p99_ceiling_us=650.0)], total_ops=600
        )
        two = _scenario_result(
            "slo-guard", [TenantSlo("ls0", p99_ceiling_us=650.0)], total_ops=600
        )
        assert one.qos_report.actions  # the guard actually acted
        assert one.qos_report.action_log() == two.qos_report.action_log()
        assert one.metrics_digest() == two.metrics_digest()

    def test_aimd_runs_are_bit_identical(self):
        one = _scenario_result("aimd-window", total_ops=600)
        two = _scenario_result("aimd-window", total_ops=600)
        assert one.qos_report.actions
        assert one.qos_report.action_log() == two.qos_report.action_log()
        assert one.metrics_digest() == two.metrics_digest()

    def test_seeds_still_matter(self):
        one = _scenario_result("aimd-window", total_ops=600, seed=1)
        other = _scenario_result("aimd-window", total_ops=600, seed=2)
        assert one.metrics_digest() != other.metrics_digest()


# ---------------------------------------------------------------------------
# Acceptance: the paper-level behaviours
# ---------------------------------------------------------------------------
class TestGuardAcceptance:
    @pytest.fixture(scope="class")
    def guard(self):
        return run_qos_guard(total_ops=9_000)

    def test_slo_attained_under_the_burst(self, guard):
        assert guard.guarded_attainment >= 0.99
        assert guard.static_attainment < 0.60  # static provably fails here

    def test_tc_throughput_within_twenty_percent(self, guard):
        assert guard.tc_throughput_ratio >= 0.80

    def test_defence_actually_engaged(self, guard):
        assert guard.guarded.qos_report.actions
        assert guard.guarded.qos_report.throttle_delays > 0
        # Violations that remain are the initial burst transient, not a
        # steady-state oscillation.
        assert len(guard.violations) <= 2


class TestAimdAcceptance:
    GRID = (8, 16, 32)

    def _run(self, start_window):
        return run_qos_aimd(
            windows=self.GRID,
            total_ops_offline=1_200,
            total_ops_online=4_000,
            start_window=start_window,
        )

    def test_converges_from_below(self):
        result = self._run(start_window=4)
        assert result.offline_best_window in self.GRID
        assert result.converged

    def test_converges_from_above(self):
        result = self._run(start_window=64)
        assert result.converged
