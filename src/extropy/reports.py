"""Deterministic report emission: canonical JSON, CSV tables, SVG heatmaps.

All writers are pure functions of their inputs (no timestamps, no
environment), so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NonFiniteResult
from .estimation import McStudyRow
from .grouping import DivergenceMatrix

__all__ = [
    "SCHEMA_VERSION",
    "report_json_bytes",
    "write_report",
    "matrix_csv_text",
    "write_matrix_csv",
    "study_csv_text",
    "write_study_csv",
    "heatmap_svg",
    "write_heatmap",
]

SCHEMA_VERSION = 1


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _non_finite(obj, path: str):
    """The path and value of the first NaN or infinite float in ``obj``, else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = ((f"{path}.{k}", v) for k, v in sorted(obj.items()))
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for key, value in items:
        found = _non_finite(value, key)
        if found:
            return found
    return None


def report_json_bytes(command: str, inputs: dict, results: dict) -> bytes:
    """Canonical JSON document: sorted keys, fixed separators, trailing newline.

    A NaN or infinite value has no JSON form: it raises :class:`NonFiniteResult`.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": _jsonable(inputs),
        "results": _jsonable(results),
    }
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        found = _non_finite(payload, "report")
        if found is None:
            raise
        raise NonFiniteResult(f"{command}: {found[0]} is {found[1]}, which no report can carry") from None
    return (text + "\n").encode("utf-8")


def write_report(path: str | Path, command: str, inputs: dict, results: dict) -> Path:
    path = Path(path)
    path.write_bytes(report_json_bytes(command, inputs, results))
    return path


def matrix_csv_text(matrix: DivergenceMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", *matrix.labels])
    for label, row in zip(matrix.labels, matrix.values):
        writer.writerow([label, *(format(v, ".10g") for v in row)])
    return buf.getvalue()


def write_matrix_csv(path: str | Path, matrix: DivergenceMatrix) -> Path:
    path = Path(path)
    path.write_text(matrix_csv_text(matrix), encoding="utf-8")
    return path


def study_csv_text(rows: Sequence[McStudyRow]) -> str:
    lines = ["n,mean_estimate,bias,mse,reps,failures"]
    for r in rows:
        lines.append(
            f"{r.n},{r.mean_estimate:.10g},{r.bias:.10g},{r.mse:.10g},{r.reps},{r.failures}"
        )
    return "\n".join(lines) + "\n"


def write_study_csv(path: str | Path, rows: Sequence[McStudyRow]) -> Path:
    path = Path(path)
    path.write_text(study_csv_text(rows), encoding="utf-8")
    return path


_CELL = 84
_MARGIN_LEFT = 120
_MARGIN_TOP = 60
_DARK = (24, 48, 96)  # ramp endpoint at the matrix maximum
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _ramp_color(value: float, maximum: float) -> str:
    """Linear ramp: white at 0 up to a dark blue at the matrix maximum."""
    frac = 0.0 if maximum <= 0 else min(max(value / maximum, 0.0), 1.0)
    r = round(255 + (_DARK[0] - 255) * frac)
    g = round(255 + (_DARK[1] - 255) * frac)
    b = round(255 + (_DARK[2] - 255) * frac)
    return f"rgb({r},{g},{b})"


def heatmap_svg(matrix: DivergenceMatrix, title: str = "pairwise relative extropy") -> str:
    """Standalone SVG heatmap with labeled axes and values printed in cells; text is XML-escaped."""
    k = len(matrix.labels)
    labels = [label.translate(_XML_TEXT) for label in matrix.labels]
    width = _MARGIN_LEFT + k * _CELL + 20
    height = _MARGIN_TOP + k * _CELL + 20
    vmax = float(matrix.values.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- color ramp: linear, white at 0 to rgb{_DARK} at the matrix maximum "
        f"({vmax:.6g}); values printed in each cell -->",
        f'<text x="{_MARGIN_LEFT}" y="24" font-family="sans-serif" font-size="16">'
        f"{title.translate(_XML_TEXT)}</text>",
    ]
    for j, label in enumerate(labels):
        x = _MARGIN_LEFT + j * _CELL + _CELL // 2
        parts.append(
            f'<text x="{x}" y="{_MARGIN_TOP - 8}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{label}</text>'
        )
    for i, label in enumerate(labels):
        y = _MARGIN_TOP + i * _CELL + _CELL // 2 + 4
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{label}</text>'
        )
    for i in range(k):
        for j in range(k):
            value = float(matrix.values[i, j])
            x = _MARGIN_LEFT + j * _CELL
            y = _MARGIN_TOP + i * _CELL
            fill = _ramp_color(value, vmax)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" fill="{fill}" '
                f'stroke="#999" stroke-width="1"/>'
            )
            text_fill = "#000" if vmax <= 0 or value / vmax < 0.55 else "#fff"
            parts.append(
                f'<text x="{x + _CELL // 2}" y="{y + _CELL // 2 + 4}" font-family="monospace" '
                f'font-size="10" text-anchor="middle" fill="{text_fill}">{value:.4g}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_heatmap(path: str | Path, matrix: DivergenceMatrix, title: str = "pairwise relative extropy") -> Path:
    path = Path(path)
    path.write_text(heatmap_svg(matrix, title), encoding="utf-8")
    return path
