"""Deterministic result emission: RFC-4180 CSV tables and summary JSON.

Floats are written with ``repr`` (shortest round-trip form, '.' decimal
separator), so identical runs produce byte-identical CSV files.  Wall-clock
timings never enter CSV tables — they live under ``timings`` in the
summary, which is the one part of a run allowed to vary between reruns.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from ..atoms import Model


def format_cell(value) -> str:
    """One CSV cell: round-trippable floats, empty string for missing."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """RFC-4180 CSV: CRLF line endings, header row required."""
    if not header:
        raise ValueError("CSV table needs a header row")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([str(h) for h in header])
        for row in rows:
            writer.writerow([format_cell(v) for v in row])


def clean_json(obj):
    """Recursively convert numpy scalars and non-finite floats for JSON."""
    if isinstance(obj, dict):
        return {str(k): clean_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean_json(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.ndarray):
        return clean_json(obj.tolist())
    return obj


def emit_results(summary: dict, tables: dict, out_dir,
                 models: dict | None = None) -> list:
    """Write ``summary.json``, one CSV per table, one JSON per model.

    ``tables`` maps file stems to ``(header, rows)`` pairs; ``models`` maps
    file stems to :class:`Model` instances.  Returns the written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    for name, (header, rows) in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        write_csv(path, header, rows)
        written.append(path)

    for name, model in (models or {}).items():
        if not isinstance(model, Model):
            raise TypeError(f"model entry {name!r} is not a Model")
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(clean_json(model.to_json()), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        written.append(path)

    path = os.path.join(out_dir, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(clean_json(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written
