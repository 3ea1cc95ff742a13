"""Tests for tracing, RNG streams, and units."""

import pytest

from repro import units
from repro.simcore import RandomStreams, Tracer
from repro.simcore.trace import NULL_TRACER, TraceRecord


# ------------------------------------------------------------------ tracer ----
def test_tracer_disabled_by_default():
    tracer = Tracer()
    tracer.emit(1.0, "src", "kind", "payload")
    assert tracer.records == []


def test_tracer_records_when_enabled():
    tracer = Tracer(enabled=True)
    tracer.emit(1.0, "link", "drop", {"pkt": 1})
    tracer.emit(2.0, "link", "send")
    tracer.emit(3.0, "ssd", "drop")
    assert len(tracer.records) == 3
    assert tracer.count(source="link") == 2
    assert tracer.count(kind="drop") == 2
    assert tracer.count(source="link", kind="drop") == 1
    assert list(tracer.filter(source="ssd"))[0].time == 3.0


def test_tracer_limit():
    tracer = Tracer(enabled=True, limit=2)
    for i in range(5):
        tracer.emit(float(i), "s", "k")
    assert len(tracer.records) == 2


def test_tracer_sink_invoked():
    tracer = Tracer(enabled=True)
    seen = []
    tracer.add_sink(seen.append)
    tracer.emit(1.0, "s", "k")
    assert len(seen) == 1
    assert isinstance(seen[0], TraceRecord)


def test_tracer_clear():
    tracer = Tracer(enabled=True)
    tracer.emit(1.0, "s", "k")
    tracer.clear()
    assert tracer.records == []


def test_null_tracer_is_noop():
    NULL_TRACER.emit(1.0, "s", "k")
    assert NULL_TRACER.records == []


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
