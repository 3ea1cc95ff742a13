"""Tests for workload generators: patterns, mixes, perf, h5bench config."""

import pytest

from repro.core import Priority
from repro.errors import WorkloadError
from repro.simcore import RandomStreams
from repro.workloads import (
    AddressPattern,
    PAPER_RATIOS,
    PerfConfig,
    TenantSpec,
    parse_ratio,
    tenants_for_ratio,
)
from repro.workloads.h5bench import H5BenchConfig, aggregate_bandwidth_mbps, H5BenchRankResult


# ---------------------------------------------------------------- patterns ----
def test_sequential_pattern_advances_and_wraps():
    pattern = AddressPattern("seq", total_blocks=10, blocks_per_io=3)
    slbas = [pattern.next_slba() for _ in range(5)]
    # 0, 3, 6 fit; the next I/O would overrun, so the cursor wraps to 0.
    assert slbas == [0, 3, 6, 0, 3]
    assert all(s + 3 <= 10 for s in slbas)


def test_sequential_pattern_single_block():
    pattern = AddressPattern("seq", total_blocks=4, blocks_per_io=1)
    assert [pattern.next_slba() for _ in range(6)] == [0, 1, 2, 3, 0, 1]


def test_random_pattern_aligned_and_in_range():
    rng = RandomStreams(1).stream("t")
    pattern = AddressPattern("rand", total_blocks=100, blocks_per_io=4, rng=rng)
    for _ in range(200):
        slba = pattern.next_slba()
        assert 0 <= slba <= 96
        assert slba % 4 == 0


def test_random_pattern_requires_rng():
    with pytest.raises(WorkloadError):
        AddressPattern("rand", total_blocks=100)


def test_pattern_validation():
    with pytest.raises(WorkloadError):
        AddressPattern("zipf", total_blocks=10)
    with pytest.raises(WorkloadError):
        AddressPattern("seq", total_blocks=2, blocks_per_io=4)
    with pytest.raises(WorkloadError):
        AddressPattern("seq", total_blocks=10, blocks_per_io=0)


# ------------------------------------------------------------------- mixes ----
def test_parse_ratio():
    assert parse_ratio("1:4") == (1, 4)
    assert parse_ratio("0:1") == (0, 1)
    with pytest.raises(WorkloadError):
        parse_ratio("1-4")
    with pytest.raises(WorkloadError):
        parse_ratio("0:0")
    with pytest.raises(WorkloadError):
        parse_ratio("-1:2")


def test_paper_ratios_all_parse():
    for ratio in PAPER_RATIOS:
        n_ls, n_tc = parse_ratio(ratio)
        assert 1 <= n_ls + n_tc <= 5  # the paper scales to 5 tenants/SSD


def test_tenants_for_ratio_composition():
    tenants = tenants_for_ratio("2:3", op_mix="write")
    assert len(tenants) == 5
    ls = [t for t in tenants if t.is_latency_sensitive]
    tc = [t for t in tenants if not t.is_latency_sensitive]
    assert len(ls) == 2 and len(tc) == 3
    assert all(t.queue_depth == 1 for t in ls)  # §V-A
    assert all(t.queue_depth == 128 for t in tc)
    assert all(t.op_mix == "write" for t in tenants)
    assert len({t.name for t in tenants}) == 5


# -------------------------------------------------------------------- perf ----
def test_perf_config_defaults_match_paper():
    cfg = PerfConfig()
    assert cfg.io_size == 4096
    assert cfg.queue_depth == 128
    assert cfg.pattern == "seq"


def test_perf_config_read_fraction_by_mix():
    assert PerfConfig(op_mix="read").read_fraction == 1.0
    assert PerfConfig(op_mix="write").read_fraction == 0.0
    assert PerfConfig(op_mix="rw50").read_fraction == 0.5


def test_perf_config_validation():
    with pytest.raises(WorkloadError):
        PerfConfig(op_mix="trim")
    with pytest.raises(WorkloadError):
        PerfConfig(io_size=1000)
    with pytest.raises(WorkloadError):
        PerfConfig(queue_depth=0)
    with pytest.raises(WorkloadError):
        PerfConfig(total_ops=0)
    with pytest.raises(WorkloadError):
        PerfConfig(read_fraction=1.5)


def test_perf_generator_end_to_end():
    """Closed-loop generator against a real initiator/target rig."""
    from repro.cluster import Scenario, ScenarioConfig
    from repro.workloads import tenants_for_ratio

    cfg = ScenarioConfig(protocol="spdk", network_gbps=100, total_ops=123, warmup_us=0)
    sc = Scenario.two_sided(cfg, tenants_for_ratio("0:1"))
    sc.run()
    gen = sc.generators[0]
    assert gen.issued == 123
    assert gen.completed == 123
    assert gen.inflight == 0
    assert gen.iops() > 0
    assert gen.throughput_mbps() > 0


def test_perf_generator_respects_queue_depth():
    from repro.cluster import Scenario, ScenarioConfig
    from repro.workloads import TenantSpec

    cfg = ScenarioConfig(protocol="spdk", network_gbps=100, total_ops=60, warmup_us=0)
    sc = Scenario.two_sided(cfg, [TenantSpec("t", Priority.THROUGHPUT, 4)])
    # Track the high-water mark of outstanding requests during the run.
    sc.run()
    gen = sc.generators[0]
    assert gen.completed == 60
    # The qpair depth bounded concurrency the whole way.
    assert sc.initiator_nodes["client0"].initiators[0].qpair.outstanding == 0


def test_perf_generator_cannot_start_twice():
    from repro.cluster import Scenario, ScenarioConfig
    from repro.workloads import tenants_for_ratio

    cfg = ScenarioConfig(protocol="spdk", network_gbps=100, total_ops=10, warmup_us=0)
    sc = Scenario.two_sided(cfg, tenants_for_ratio("0:1"))
    sc.run()
    with pytest.raises(WorkloadError):
        sc.generators[0].start()


def test_perf_generator_mixed_ops_both_kinds():
    from repro.cluster import Scenario, ScenarioConfig
    from repro.workloads import tenants_for_ratio

    cfg = ScenarioConfig(protocol="spdk", network_gbps=100, total_ops=300, warmup_us=0,
                         op_mix="rw50", seed=5)
    sc = Scenario.two_sided(cfg, tenants_for_ratio("0:1", op_mix="rw50"))
    sc.run()
    summary = sc.collector.summary("tc0")
    assert summary.reads > 50
    assert summary.writes > 50
    assert summary.reads + summary.writes == 300


# ----------------------------------------------------------------- h5bench ----
def test_h5bench_config_validation():
    with pytest.raises(WorkloadError):
        H5BenchConfig(mode="append")
    with pytest.raises(WorkloadError):
        H5BenchConfig(particles_per_rank=0)
    with pytest.raises(WorkloadError):
        H5BenchConfig(io_size=1000)


def test_h5bench_bytes_per_timestep():
    cfg = H5BenchConfig(particles_per_rank=1024, element_size=8)
    assert cfg.bytes_per_timestep == 8192


def test_aggregate_bandwidth_uses_makespan():
    results = [
        H5BenchRankResult(0, bytes_moved=1000, elapsed_us=10.0, metadata_ops=0),
        H5BenchRankResult(1, bytes_moved=1000, elapsed_us=20.0, metadata_ops=0),
    ]
    assert aggregate_bandwidth_mbps(results) == pytest.approx(2000 / 20.0)
    with pytest.raises(WorkloadError):
        aggregate_bandwidth_mbps([])
