"""Coverage for ``simcore/trace.py``.

Pins the contracts the hot paths rely on: the Tracer's enabled/disabled
pre-check and exactly-once lazy-thunk evaluation, the per-record limit,
and sink fan-out ordering.
"""

import pytest

from repro.simcore.trace import NULL_TRACER, TraceRecord, Tracer


# ---------------------------------------------------------------------------
# Tracer: enabled/disabled pre-check
# ---------------------------------------------------------------------------


def test_disabled_tracer_records_nothing():
    t = Tracer(enabled=False)
    t.emit(0.0, "s", "k", "payload")
    assert t.records == []


def test_null_tracer_is_disabled():
    assert NULL_TRACER.enabled is False
    NULL_TRACER.emit(0.0, "s", "k", "x")
    assert NULL_TRACER.records == []


def test_enabled_tracer_records_in_order():
    t = Tracer(enabled=True)
    t.emit(1.0, "src", "a", 1)
    t.emit(2.0, "src", "b", 2)
    assert [(r.time, r.kind, r.payload) for r in t.records] == [
        (1.0, "a", 1),
        (2.0, "b", 2),
    ]


def test_emit_respects_limit():
    t = Tracer(enabled=True, limit=2)
    for i in range(5):
        t.emit(float(i), "s", "k", i)
    assert [r.payload for r in t.records] == [0, 1]


# ---------------------------------------------------------------------------
# Tracer: lazy-thunk payloads evaluate exactly once, only when kept
# ---------------------------------------------------------------------------


def test_lazy_thunk_evaluates_exactly_once_when_kept():
    calls = []

    def thunk():
        calls.append(1)
        return "built"

    t = Tracer(enabled=True)
    t.emit(0.0, "s", "k", thunk)
    assert calls == [1]
    assert t.records[0].payload == "built"


def test_lazy_thunk_not_evaluated_when_disabled_or_past_limit():
    calls = []
    t = Tracer(enabled=False)
    t.emit(0.0, "s", "k", lambda: calls.append("off"))
    t = Tracer(enabled=True, limit=1)
    t.emit(0.0, "s", "k", lambda: calls.append("kept") or "p")
    t.emit(1.0, "s", "k", lambda: calls.append("dropped"))
    assert calls == ["kept"]


# ---------------------------------------------------------------------------
# Tracer: sink fan-out
# ---------------------------------------------------------------------------


def test_emit_feeds_sinks_per_record_in_order():
    seen = []
    t = Tracer(enabled=True)
    t.add_sink(lambda r: seen.append(("s1", r.payload)))
    t.add_sink(lambda r: seen.append(("s2", r.payload)))
    t.emit(0.0, "s", "k", "x")
    t.emit(0.0, "s", "k", "y")
    assert seen == [("s1", "x"), ("s2", "x"), ("s1", "y"), ("s2", "y")]


# ---------------------------------------------------------------------------
# Tracer: filtering, counting, clearing
# ---------------------------------------------------------------------------


def test_filter_and_count_by_source_and_kind():
    t = Tracer(enabled=True)
    t.emit(0.0, "link", "drop", 1)
    t.emit(1.0, "link", "send", 2)
    t.emit(2.0, "nic", "drop", 3)
    assert [r.payload for r in t.filter(source="link")] == [1, 2]
    assert [r.payload for r in t.filter(kind="drop")] == [1, 3]
    assert [r.payload for r in t.filter(source="link", kind="drop")] == [1]
    assert t.count(kind="drop") == 2
    assert t.count() == 3
    t.clear()
    assert t.records == [] and t.count() == 0


def test_trace_record_is_frozen():
    r = TraceRecord(1.0, "s", "k", "p")
    with pytest.raises(AttributeError):
        r.time = 2.0
