"""Result tables with provenance, CSV/JSON emission, and plot data.

Every experiment produces one or more ResultTable objects.  Emission is
deterministic for a fixed table: a table sorts its rows by the leading
columns once, when it is built; reals are printed with 17 significant
digits (lossless double round-trip); and the only line that varies
between identical runs is the timestamp, which is a # comment so byte
comparisons can drop it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "Provenance", "ResultTable", "plain", "write_csv", "write_json",
    "dump_json", "emit_plot_data", "REGION_COLORS",
]

REGION_COLORS = {
    "GoodPlus": "#d62728",
    "GoodMinus": "#1f77b4",
    "Bad": "#aaaaaa",
    "Diagonal": "#ffffff",
    "AntiDiagonal": "#333333",
}


@dataclass
class Provenance:
    version: str
    config_hash: str
    timestamp: str


_PLAIN = (str, int, float, type(None))


def plain(value):
    """value as plain Python: numpy scalars and arrays become numbers
    and lists, tuples become lists, and a complex becomes {"re", "im"};
    dicts and lists are converted item by item.  None, str, int and
    float (np.float64 included) come back unchanged."""
    if isinstance(value, _PLAIN):
        return value
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    import numpy as np
    if isinstance(value, (np.ndarray, np.generic)):
        return plain(value.tolist())
    return value


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _sort_key(row):
    # Total order over heterogeneous rows: compare per cell by
    # (type rank, value) so ints/floats sort numerically and strings
    # lexically without ever comparing across types.
    key = []
    for cell in row:
        if isinstance(cell, bool):
            key.append((2, "", float(cell)))
        elif isinstance(cell, (int, float)):
            key.append((0, "", float(cell)))
        else:
            key.append((1, str(cell), 0.0))
    return key


@dataclass
class ResultTable:
    name: str
    columns: tuple
    rows: list
    provenance: Provenance
    meta: dict

    def __post_init__(self):
        self.columns = tuple(self.columns)
        # Cell by cell: a call of plain() per row doubles the cost.
        rows = [tuple(v if isinstance(v, _PLAIN) else plain(v) for v in row)
                for row in self.rows]
        self.meta = plain(dict(self.meta))
        for row in rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.name}: row width {len(row)} != "
                    f"{len(self.columns)} columns")
        self.rows = sorted(rows, key=_sort_key)


def _header_lines(table: ResultTable) -> list:
    lines = [
        f"# inghamlab {table.provenance.version}",
        f"# config {table.provenance.config_hash}",
        f"# generated {table.provenance.timestamp}",
        f"# table {table.name}",
    ]
    for key in sorted(table.meta):
        lines.append(f"# {key} {_fmt(table.meta[key])}")
    return lines


def write_csv(table: ResultTable, path: str) -> str:
    lines = _header_lines(table)
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _json_cell(value):
    if isinstance(value, float) and value != value:
        return None
    return value


def write_json(table: ResultTable, path: str) -> str:
    doc = {
        "name": table.name,
        "provenance": {
            "version": table.provenance.version,
            "config_hash": table.provenance.config_hash,
            "timestamp": table.provenance.timestamp,
        },
        "meta": {k: _json_cell(table.meta[k]) for k in sorted(table.meta)},
        "columns": list(table.columns),
        "rows": [[_json_cell(v) for v in r] for r in table.rows],
    }
    return dump_json(doc, path)


def dump_json(doc, path: str) -> str:
    """Write a JSON document with sorted keys and indent 1."""
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _write_xy(path: str, xs, ys, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    for x, y in zip(xs, ys):
        lines.append(f"{_fmt(float(x))} {_fmt(float(y))}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _plot_loglog_fit(name, out_base, xs, ys):
    """Data file plus a fitted-line companion: least squares on
    log10/log10, the companion sampled at the data abscissae."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.unique(xs).size < 2:
        raise ValueError(f"table {name}: a log-log fit needs at least two "
                         "distinct x values")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log plot needs positive data")
    slope, intercept = np.polyfit(np.log10(xs), np.log10(ys), 1)
    fitted = 10.0 ** (intercept + slope * np.log10(xs))
    paths = [_write_xy(out_base + ".dat", xs, ys)]
    paths.append(_write_xy(out_base + ".fit.dat", xs, fitted,
                           comments=[f"slope {_fmt(float(slope))}",
                                     f"intercept {_fmt(float(intercept))}"]))
    return paths


def _plot_region_svg(out_base, ns, ms, tags):
    """Classification square: n horizontal, m vertical (m up), one
    colored cell per pair."""
    cell = 6   # pixels per side
    n_min, n_max = min(ns), max(ns)
    m_min, m_max = min(ms), max(ms)
    width = (n_max - n_min + 1) * cell
    height = (m_max - m_min + 1) * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for n, m, tag in zip(ns, ms, tags):
        color = REGION_COLORS.get(str(tag), "#ff00ff")
        if color == "#ffffff":
            continue
        px = (n - n_min) * cell
        py = (m_max - m) * cell
        parts.append(f'<rect x="{px}" y="{py}" width="{cell}" '
                     f'height="{cell}" fill="{color}"/>')
    parts.append("</svg>")
    path = out_base + ".svg"
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return [path]


def emit_plot_data(table: ResultTable, kind: str, out_base: str) -> list:
    """Write two-column whitespace data files (and SVG for region
    grids) for a table; x is its first column.  Kinds: xy and
    loglog-fit plot the second column, curve writes one file per later
    column, region-svg draws the first three (n, m, tag)."""
    columns = [[row[i] for row in table.rows] for i in range(len(table.columns))]
    if kind == "xy":
        return [_write_xy(out_base + ".dat", columns[0], columns[1])]
    if kind == "loglog-fit":
        return _plot_loglog_fit(table.name, out_base, columns[0], columns[1])
    if kind == "region-svg":
        return _plot_region_svg(out_base, *columns[:3])
    if kind == "curve":
        return [_write_xy(f"{out_base}.{name}.dat", columns[0], ys)
                for name, ys in zip(table.columns[1:], columns[1:])]
    raise ValueError(f"unknown plot kind {kind!r}")
