"""Tests for collectors, percentiles, and report tables."""

import numpy as np
import pytest

from repro.core.flags import Priority
from repro.errors import ConfigError
from repro.metrics import (
    Collector,
    LatencyDistribution,
    P2Quantile,
    exact_percentile,
    format_table,
    improvement_pct,
    reduction_pct,
    speedup,
)
from repro.nvmeof.qpair import IoRequest
from repro.simcore import Environment


def make_request(cid=0, op="read", nbytes=4096, priority=Priority.THROUGHPUT,
                 submitted=0.0, completed=10.0, status=0):
    req = IoRequest(cid=cid, op=op, nsid=1, slba=0, nlb=1, nbytes=nbytes,
                    priority=priority, tenant_id=0)
    req.submitted_at = submitted
    req.completed_at = completed
    req.status = status
    return req


# ------------------------------------------------------------- percentile ----
def test_exact_percentile_basics():
    samples = list(range(1, 101))
    assert exact_percentile(samples, 50) == pytest.approx(50.5)
    assert exact_percentile(samples, 0) == 1
    assert exact_percentile(samples, 100) == 100


def test_exact_percentile_validation():
    with pytest.raises(ConfigError):
        exact_percentile([1.0], 101)
    with pytest.raises(ConfigError):
        exact_percentile([], 50)


def test_latency_distribution_summary():
    dist = LatencyDistribution()
    dist.extend([1.0, 2.0, 3.0, 4.0, 100.0])
    assert dist.mean() == pytest.approx(22.0)
    assert dist.max() == 100.0
    assert dist.percentile(50.0) == 3.0
    assert dist.tail() >= dist.percentile(99.0) >= dist.percentile(50.0)
    assert len(dist) == 5


def test_latency_distribution_empty_errors():
    dist = LatencyDistribution()
    with pytest.raises(ConfigError):
        dist.mean()
    with pytest.raises(ConfigError):
        dist.tail()


def test_p2_quantile_tracks_exact_median():
    rng = np.random.default_rng(3)
    samples = rng.lognormal(mean=3.0, sigma=0.5, size=5000)
    est = P2Quantile(0.5)
    for x in samples:
        est.add(float(x))
    exact = float(np.percentile(samples, 50))
    assert est.value == pytest.approx(exact, rel=0.05)


def test_p2_quantile_high_quantile():
    rng = np.random.default_rng(4)
    samples = rng.exponential(10.0, size=20000)
    est = P2Quantile(0.99)
    for x in samples:
        est.add(float(x))
    exact = float(np.percentile(samples, 99))
    assert est.value == pytest.approx(exact, rel=0.15)


def test_p2_quantile_few_samples():
    est = P2Quantile(0.9)
    with pytest.raises(ConfigError):
        _ = est.value
    for x in [5.0, 1.0, 3.0]:
        est.add(x)
    assert 1.0 <= est.value <= 5.0


def test_p2_validation():
    with pytest.raises(ConfigError):
        P2Quantile(0.0)
    with pytest.raises(ConfigError):
        P2Quantile(1.0)


# -------------------------------------------------------------- collector ----
def test_collector_records_and_aggregates():
    env = Environment()
    collector = Collector(env)
    env.run(until=5.0)
    collector.start_measuring()
    collector.record("a", make_request(completed=10.0, nbytes=4096))
    collector.record("a", make_request(cid=1, completed=12.0, nbytes=4096))
    env.run(until=20.0)
    collector.stop_measuring()
    summary = collector.summary("a")
    assert summary.requests == 2
    assert summary.bytes_moved == 8192
    assert collector.elapsed_us() == pytest.approx(15.0)
    assert collector.aggregate_iops() > 0


def test_collector_warmup_exclusion():
    env = Environment()
    collector = Collector(env)
    collector.record("a", make_request(completed=0.0))  # before warmup cut

    def advance(env):
        yield env.timeout(100.0)

    env.process(advance(env))
    env.run()
    collector.start_measuring()
    collector.record("a", make_request(cid=1, submitted=0.0, completed=50.0))
    # Both records completed before the warmup boundary: excluded lazily.
    assert "a" not in collector.summaries()
    collector.record("a", make_request(cid=2, submitted=100.0, completed=150.0))
    assert collector.summary("a").requests == 1


def test_collector_ensure_window_repairs_empty_window():
    env = Environment()
    collector = Collector(env)
    collector.record("a", make_request(completed=5.0))

    def advance(env):
        yield env.timeout(100.0)

    env.process(advance(env))
    env.run()
    collector.start_measuring()  # after the only record -> empty window
    assert collector.ensure_window(fallback_start=0.0) is True
    assert collector.summary("a").requests == 1
    # With records inside the window, ensure_window is a no-op.
    assert collector.ensure_window(fallback_start=50.0) is False


def test_collector_priority_classes():
    env = Environment()
    collector = Collector(env)
    collector.record("ls", make_request(priority=Priority.LATENCY, completed=5.0))
    collector.record("tc", make_request(cid=1, priority=Priority.THROUGHPUT, completed=5.0))
    env.run(until=10.0)
    summaries = collector.summaries()
    assert summaries["ls"].priority is Priority.LATENCY
    assert summaries["tc"].priority is Priority.THROUGHPUT
    assert collector.aggregate_throughput_mbps(Priority.THROUGHPUT) > 0
    pooled = collector.combined_latency(Priority.LATENCY)
    assert len(pooled) == 1


def test_collector_counts_failures():
    env = Environment()
    collector = Collector(env)
    collector.record("a", make_request(status=0x80, completed=1.0))
    assert collector.summary("a").failed == 1


# ----------------------------------------------------------------- report ----
def test_format_table_alignment():
    out = format_table(["name", "value"], [["x", 1.5], ["longer", 22.25]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert "1.50" in out and "22.25" in out
    # All rows align to the same width.
    assert len(set(len(line) for line in lines)) == 1


def test_format_table_title():
    out = format_table(["a"], [[1]], title="T")
    assert out.startswith("T\n=")


def test_improvement_and_reduction():
    assert improvement_pct(150.0, 100.0) == pytest.approx(50.0)
    assert reduction_pct(75.0, 100.0) == pytest.approx(25.0)
    assert speedup(294.0, 100.0) == pytest.approx(2.94)
    assert improvement_pct(1.0, 0.0) == 0.0
    assert speedup(1.0, 0.0) == float("inf")
    assert speedup(0.0, 0.0) == 1.0


@pytest.mark.parametrize("protocol", ["nvme-opf", "spdk"])
def test_assembled_aggregates_equal_the_collector_queries(fig7_cell, protocol):
    # Scenario._build_result derives every aggregate in one pass over the
    # summaries; the collector's own queries are the reference, and the
    # float reductions must agree bit for bit.
    scenario = fig7_cell(protocol=protocol)
    result = scenario.run()
    collector = scenario.collector
    assert result.tc_throughput_mbps == collector.aggregate_throughput_mbps(Priority.THROUGHPUT)
    assert result.tc_iops == collector.aggregate_iops(Priority.THROUGHPUT)
    assert result.total_throughput_mbps == collector.aggregate_throughput_mbps(None)
    ls_pool = collector.combined_latency(Priority.LATENCY)
    assert (result.ls_tail_us, result.ls_mean_us) == (ls_pool.tail(), ls_pool.mean())
    assert result.mean_latency_us == collector.combined_latency(None).mean()
