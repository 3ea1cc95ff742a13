"""Tests for RNG streams and units."""

import pytest

from repro import units
from repro.simcore import RandomStreams


# --------------------------------------------------------------------- rng ----
def test_streams_are_independent():
    streams = RandomStreams(9)
    a = streams.stream("a")
    b = streams.stream("b")
    assert a is not b
    assert streams.stream("a") is a  # cached


def test_scoped_streams_prefix():
    streams = RandomStreams(9)
    streams.spawn("ssd0")
    direct = streams.stream("ssd0/read").random(3).tolist()
    # Fresh factory, same seed: the scoped path must match the full name.
    streams2 = RandomStreams(9)
    via_scope = streams2.spawn("ssd0").stream("read").random(3).tolist()
    assert direct == via_scope
    nested = streams2.spawn("node").spawn("dev").stream("x")
    assert nested is streams2.stream("node/dev/x")


# ------------------------------------------------------------------- units ----
def test_gbps_conversion():
    assert units.gbps_to_bytes_per_us(10) == pytest.approx(1250.0)
    assert units.gbps_to_bytes_per_us(100) == pytest.approx(12500.0)
    assert units.bytes_per_us_to_gbps(1250.0) == pytest.approx(10.0)


def test_time_conversions():
    assert units.us_to_ms(1500.0) == 1.5
    assert units.us_to_s(2_000_000.0) == 2.0
    assert units.MSEC == 1000.0
    assert units.SEC == 1_000_000.0


def test_rate_helpers():
    assert units.iops_from(1000, 1_000_000.0) == pytest.approx(1000.0)
    assert units.iops_from(1000, 0.0) == 0.0
    assert units.mbps_from(4_000_000, 1_000_000.0) == pytest.approx(4.0)
    assert units.mbps_from(1, 0.0) == 0.0


def test_block_size_constant():
    assert units.BLOCK_4K == 4096
