"""Differential suite for intra-scenario sharding (``repro.parallel.shards``).

The contract under test is absolute: a sharded run's ``ScenarioResult`` is
**bit-identical** to ``spec.build().run()`` — same metrics digest, same
per-tenant summaries, same fault trace — for every shard count, and every
configuration the partitioner cannot shard safely falls back to serial
with the reason logged on the ``repro.parallel.shards`` logger.

The shard counts cover the ISSUE acceptance grid (1, 2, 4); CI runs this
suite with ``REPRO_TEST_WORKERS=4`` so the 4-shard cells really fan out to
four processes on the 4-vCPU runner.
"""

import logging
import os

import pytest

from repro.cluster import ScenarioConfig, ScenarioSpec
from repro.faults import FaultSchedule, RetryPolicy
from repro.parallel import partition, run_sharded
from repro.workloads.mixes import tenants_for_ratio

SHARD_COUNTS = (1, 2, 4)

PROTOCOLS = ("spdk", "nvme-opf")


def _scaleout_spec(protocol, seed=7, total_ops=120, include_ls=False):
    """Fig8-scale scale-out: 4 node pairs x 3 tenants, components shape."""
    config = ScenarioConfig(
        protocol=protocol,
        network_gbps=10.0,
        op_mix="read",
        total_ops=total_ops,
        window_size=16,
        seed=seed,
    )
    return ScenarioSpec.scaleout(config, 4, 3, include_ls=include_ls)


def _two_sided_spec(protocol, ratio="0:4", seed=11, total_ops=120, **cfg):
    """Single-fabric star: every tenant on its own client node, one
    connected component (runs serially)."""
    config = ScenarioConfig(
        protocol=protocol,
        network_gbps=10.0,
        op_mix="read",
        total_ops=total_ops,
        window_size=16,
        seed=seed,
        **cfg,
    )
    return ScenarioSpec.two_sided(config, tenants_for_ratio(ratio))


def _assert_identical(spec, report, serial):
    __tracebackhide__ = True  # noqa: F841 - pytest traceback control
    assert report.result.metrics_digest() == serial.metrics_digest()
    assert report.result.per_tenant == serial.per_tenant
    assert report.result.fault_trace == serial.fault_trace


class TestComponentsDifferential:
    """Scale-out scenarios: connected-components mode, zero cross-shard traffic."""

    _serial_cache = {}

    @classmethod
    def _serial(cls, protocol):
        if protocol not in cls._serial_cache:
            cls._serial_cache[protocol] = _scaleout_spec(protocol).build().run()
        return cls._serial_cache[protocol]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_fig8_scale_grid_is_bit_identical(self, protocol, shards):
        spec = _scaleout_spec(protocol)
        report = run_sharded(spec, shards=shards)
        _assert_identical(spec, report, self._serial(protocol))
        if shards == 1:
            assert report.mode == "serial"
            assert report.fallback_reason is not None
        else:
            assert report.mode == "components"

    def test_cid_books_reconcile_clean(self):
        report = run_sharded(_scaleout_spec("nvme-opf"), shards=4)
        assert report.mode == "components"
        assert report.books, "components run must report per-tenant CID books"
        assert all(book == (0, 0) for book in report.books.values())

    def test_phase_timings_cover_all_phases(self):
        report = run_sharded(_scaleout_spec("spdk"), shards=2)
        assert set(report.timings) == {"partition", "simulate", "exchange", "merge"}
        assert report.timings["simulate"] > 0.0

    def test_ls_only_scaleout_shards(self):
        config = ScenarioConfig(
            protocol="nvme-opf",
            network_gbps=10.0,
            op_mix="read",
            total_ops=120,
            ls_total_ops=80,
            window_size=16,
            seed=3,
        )
        spec = ScenarioSpec.scaleout(config, 3, 1, include_ls=True)
        serial = spec.build().run()
        report = run_sharded(spec, shards=3)
        assert report.mode == "components"
        _assert_identical(spec, report, serial)


class TestChaosSharded:
    """A fault-matrix cell sharded: full-chain replay, local application."""

    def _chaos_spec(self):
        chaos = (
            FaultSchedule()
            .link_flap("client0->sw", 300.0, 150.0)
            .ssd_latency_spike("target1/ssd0", 500.0, 250.0, scale=4.0)
            .nic_down("client2", 700.0, 120.0)
        )
        config = ScenarioConfig(
            protocol="nvme-opf",
            network_gbps=10.0,
            op_mix="read",
            total_ops=120,
            window_size=16,
            seed=13,
            chaos=chaos,
            retry_policy=RetryPolicy(
                timeout_us=400.0,
                backoff_base_us=50.0,
                reconnect_delay_us=50.0,
                handshake_timeout_us=200.0,
            ),
        )
        return ScenarioSpec.scaleout(config, 3, 2, include_ls=False)

    @pytest.mark.parametrize("shards", (2, 3))
    def test_chaos_cell_is_bit_identical_with_clean_books(self, shards):
        spec = self._chaos_spec()
        serial = spec.build().run()
        report = run_sharded(spec, shards=shards)
        assert report.mode == "components"
        _assert_identical(spec, report, serial)
        assert serial.fault_trace, "the cell must actually inject faults"
        assert all(book == (0, 0) for book in report.books.values())


class TestDegenerateShardings:
    """Every unshardable configuration: serial fallback, reason logged."""

    def _fallback(self, spec, shards, caplog, needle):
        with caplog.at_level(logging.INFO, logger="repro.parallel.shards"):
            report = run_sharded(spec, shards=shards)
        assert report.mode == "serial"
        assert report.shards == 1
        assert needle in report.fallback_reason
        assert any(needle in rec.getMessage() for rec in caplog.records)
        return report

    def test_single_shard_falls_back_byte_identical(self, caplog):
        spec = _two_sided_spec("nvme-opf")
        serial = spec.build().run()
        report = self._fallback(spec, 1, caplog, "shards <= 1")
        _assert_identical(spec, report, serial)

    @pytest.mark.parametrize("transport", ("tcp", "rdma"))
    @pytest.mark.parametrize("shards", (2, 4))
    def test_single_component_falls_back_byte_identical(self, caplog, shards, transport):
        spec = _two_sided_spec("spdk", transport=transport)
        serial = spec.build().run()
        report = self._fallback(spec, shards, caplog, "a single connected component")
        _assert_identical(spec, report, serial)

    def test_tc_ls_mix_falls_back(self, caplog):
        spec = _scaleout_spec("nvme-opf", include_ls=True)
        serial = spec.build().run()
        report = self._fallback(spec, 4, caplog, "quiesce")
        _assert_identical(spec, report, serial)

    def test_qos_control_plane_falls_back(self):
        spec = _two_sided_spec("nvme-opf", qos_policy="slo-guard")
        plan = partition(spec, 2)
        assert plan.mode == "serial"
        assert "QoS" in plan.fallback_reason

    def test_windowed_chaos_falls_back(self):
        # Chaos does not change the verdict on a single fabric: the plan is
        # serial for the topology alone.
        chaos = FaultSchedule().link_flap("client0->sw", 300.0, 100.0)
        config = ScenarioConfig(
            protocol="nvme-opf",
            network_gbps=10.0,
            op_mix="read",
            total_ops=100,
            window_size=16,
            seed=2,
            chaos=chaos,
            retry_policy=RetryPolicy(timeout_us=400.0),
        )
        spec = ScenarioSpec.two_sided(config, tenants_for_ratio("0:3"))
        plan = partition(spec, 2)
        assert plan.mode == "serial"
        assert plan.fallback_reason == "a single connected component"

    def test_loss_faults_fall_back(self):
        chaos = FaultSchedule().link_loss_burst("client0->sw", 300.0, 100.0, p=0.3)
        config = ScenarioConfig(
            protocol="nvme-opf",
            network_gbps=10.0,
            op_mix="read",
            total_ops=100,
            window_size=16,
            seed=2,
            chaos=chaos,
            retry_policy=RetryPolicy(timeout_us=400.0),
        )
        spec = ScenarioSpec.scaleout(config, 3, 2, include_ls=False)
        plan = partition(spec, 2)
        assert plan.mode == "serial"
        assert "loss" in plan.fallback_reason

    def test_rdma_transport_falls_back_windowed(self):
        # RDMA needs no fallback reason of its own: a single-fabric RDMA
        # star plans serially for its topology, as TCP does.
        spec = _two_sided_spec("nvme-opf", transport="rdma")
        plan = partition(spec, 2)
        assert plan.mode == "serial"
        assert plan.fallback_reason == "a single connected component"


class TestPartitionPlans:
    """Unit checks on the partitioner itself."""

    def test_components_plan_is_deterministic_and_covers_everything(self):
        spec = _scaleout_spec("spdk")
        one = partition(spec, 4)
        two = partition(spec, 4)
        assert one == two
        assert one.mode == "components"
        nodes = [n for a in one.shards for n in a.nodes]
        assert sorted(nodes) == sorted(name for _k, name, _n in spec.node_order)
        indices = sorted(i for a in one.shards for i in a.placement_indices)
        assert indices == list(range(len(spec.placements)))

    def test_windowed_plan_shapes(self):
        # The single-fabric star, which has no second component to place,
        # plans serially at any shard count: no assignments, no fault
        # ordinals.
        spec = _two_sided_spec("spdk")
        for shards in (2, 3, 8):
            plan = partition(spec, shards)
            assert plan.mode == "serial"
            assert plan.shards == []
            assert plan.local_fault_ordinals is None
            assert plan.fallback_reason == "a single connected component"

    def test_more_shards_than_components_clamps(self):
        spec = _scaleout_spec("spdk")  # 4 node pairs -> 4 components
        plan = partition(spec, 16)
        assert plan.mode == "components"
        assert len(plan.shards) == 4


class TestWorkersCliCpuCap:
    """``--workers`` beyond the machine's CPU count is a ConfigError (CLI)."""

    def test_runner_cli_rejects_oversubscription(self, capsys):
        from repro.experiments.runner import main

        over = (os.cpu_count() or 1) + 1
        if over > 64:
            pytest.skip("cpu_count + 1 exceeds MAX_WORKERS; cap hit first")
        assert main(["table1", "--workers", str(over)]) == 2
        err = capsys.readouterr().err
        assert "CPU count" in err and "'workers'" in err

    def test_fuzz_cli_rejects_oversubscription(self, capsys):
        from repro.experiments.fuzz import main

        over = (os.cpu_count() or 1) + 1
        assert main(["--count", "3", "--workers", str(over)]) == 2
        err = capsys.readouterr().err
        assert "CPU count" in err and "'workers'" in err
