"""Deterministic serialization: identical inputs must give identical bytes.

Floats are always written with 17 significant digits, enough to round-trip
IEEE doubles, so a report never depends on platform repr choices.  CSV
files use ',' as the separator and '.' as the decimal mark, with a header
row, always.  A report may hold NumPy arrays and scalars: the writer
takes each as the Python list or number it holds, so callers convert
nothing themselves.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["format_float", "dumps_stable", "write_json", "write_csv"]


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _write_float(out: list, x: float) -> None:
    # JSON has no NaN or Infinity literal; absent-side fit results and the
    # like come out as null rather than producing an unparseable file
    out.append(format_float(x) if math.isfinite(x) else "null")


def _plain(obj):
    # NumPy arrays and scalars as the Python lists and scalars they hold
    return obj.tolist() if isinstance(obj, (np.ndarray, np.generic)) else obj


def _write_value(out: list, obj, indent: int) -> None:
    obj = _plain(obj)
    pad = "  " * indent
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        _write_float(out, obj)
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append("  " * (indent + 1))
            out.append(json.dumps(str(k)))
            out.append(": ")
            _write_value(out, v, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        # NumPy scalars first: np.int64 and np.bool_ fail the int/bool test
        vals = [_plain(v) for v in obj]
        if not vals:
            out.append("[]")
            return
        simple = all(isinstance(v, (int, float, str, bool, type(None))) for v in vals)
        if simple:
            out.append("[")
            for i, v in enumerate(vals):
                _write_value(out, v, indent)
                if i + 1 < len(vals):
                    out.append(", ")
            out.append("]")
        else:
            out.append("[\n")
            for i, v in enumerate(vals):
                out.append("  " * (indent + 1))
                _write_value(out, v, indent + 1)
                out.append(",\n" if i + 1 < len(vals) else "\n")
            out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_stable(obj) -> str:
    out: list[str] = []
    _write_value(out, obj, 0)
    out.append("\n")
    return "".join(out)


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_stable(obj), encoding="ascii")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    s = str(v)
    if "," in s or '"' in s or "\n" in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def write_csv(path, rows) -> None:
    """Write rows (header first) with ',' separator and '.' decimals."""
    lines = [",".join(_csv_cell(c) for c in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
