"""Tests for result export (CSV) and per-tenant reporting."""

import csv
import json
from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.metrics import rows_for, to_row, write_csv


@dataclass
class FakePoint:
    name: str
    value: float
    tags: list


def test_to_row_dataclass_flattens_nested():
    row = to_row(FakePoint("a", 1.5, ["x", "y"]))
    assert row["name"] == "a"
    assert row["value"] == 1.5
    assert json.loads(row["tags"]) == ["x", "y"]


def test_to_row_dict_passthrough():
    assert to_row({"k": 1})["k"] == 1


def test_to_row_plain_object():
    class Obj:
        def __init__(self):
            self.a = 1
            self.b = "x"

        def method(self):  # pragma: no cover - must be excluded
            return 0

    row = to_row(Obj())
    assert row == {"a": 1, "b": "x"}


def test_rows_for_unifies_headers():
    rows = rows_for([{"a": 1}, {"b": 2}])
    assert set(rows[0]) == set(rows[1]) == {"a", "b"}
    assert rows[0]["b"] == ""
    assert rows_for([]) == []


def _read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_write_and_read_csv(tmp_path):
    points = [FakePoint("p1", 1.0, []), FakePoint("p2", 2.0, [3])]
    path = write_csv(tmp_path / "out" / "points.csv", points)
    assert path.exists()
    back = _read_csv(path)
    assert len(back) == 2
    assert back[0]["name"] == "p1"
    assert float(back[1]["value"]) == 2.0


def test_export_empty_rejected(tmp_path):
    with pytest.raises(ConfigError):
        write_csv(tmp_path / "x.csv", [])


def test_export_figure_points_roundtrip(tmp_path):
    """End-to-end: export real figure points and read them back."""
    from repro.experiments import run_fig6c

    points = run_fig6c(windows=(16,), total_ops=64)
    path = write_csv(tmp_path / "fig6c.csv", points)
    back = _read_csv(path)
    assert len(back) == len(points)
    assert {row["label"] for row in back} == {p.label for p in points}
