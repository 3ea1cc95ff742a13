"""Result export: CSV serialisation of scenario and figure outputs.

The figure harnesses print human tables; downstream analysis (plotting,
regression tracking) wants machine-readable rows.  This module converts
dataclass-ish result objects into dict rows and writes CSV without taking
a pandas dependency.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from ..errors import ConfigError


def to_row(obj: Any) -> Dict[str, Any]:
    """Convert one result object into a flat dict row.

    Dataclasses are converted field-by-field; dicts pass through; objects
    with ``__slots__``/attributes fall back to their public attributes.
    Nested containers are JSON-encoded so the row stays flat.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        raw = dataclasses.asdict(obj)
    elif isinstance(obj, dict):
        raw = dict(obj)
    else:
        raw = {
            name: getattr(obj, name)
            for name in dir(obj)
            if not name.startswith("_") and not callable(getattr(obj, name))
        }
    row: Dict[str, Any] = {}
    for key, value in raw.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            row[key] = value
        else:
            row[key] = json.dumps(value, default=str)
    return row


def rows_for(objects: Iterable[Any]) -> List[Dict[str, Any]]:
    """Convert a sequence of result objects to rows with a unified header."""
    rows = [to_row(obj) for obj in objects]
    if not rows:
        return rows
    header: List[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    return [{key: row.get(key, "") for key in header} for row in rows]


def write_csv(path: Union[str, Path], objects: Sequence[Any]) -> Path:
    """Write result objects as CSV; returns the path written."""
    if not objects:
        raise ConfigError("nothing to export")
    path = Path(path)
    rows = rows_for(objects)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path
