"""Result tables with provenance, CSV/JSON emission, and plot data.

Every experiment produces one or more ResultTable objects.  Emission is
deterministic for a fixed table: a table sorts its rows by the leading
columns once, when it is built; reals are printed with 17 significant
digits (lossless double round-trip); and the only line that varies
between identical runs is the timestamp, which is a # comment so byte
comparisons can drop it.

A table is converted, sorted and written one column at a time: the
types a column holds pick one conversion, one sort key and one format
for all its cells, applied in C-level passes (map, zip).  After plain(),
every cell must be a scalar (str, int, float, bool or None); a table
with any other cell is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from operator import ne

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


_G17 = "%.17g".__mod__     # 17 significant digits round-trip a double


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _G17(value)
    return str(value)


def _rank(cls) -> int:
    # Total order over heterogeneous rows: cells compare by (type rank,
    # value), so numbers sort numerically, then strings (and None)
    # lexically, then booleans, without ever comparing across types.
    return 2 if cls is bool else 0 if issubclass(cls, (int, float)) else 1


def _cell_key(cell):
    rank = _rank(type(cell))
    return (rank, str(cell), 0.0) if rank == 1 else (rank, "", float(cell))


def _sort_column(col):
    """Sort keys of a column: a column of one rank is keyed by its values,
    which compare as their (rank, value) keys do, NaN and identity too."""
    ranks = set(map(_rank, set(map(type, col))))
    return list(map(str if ranks == {1} else float if len(ranks) < 2 else
                    _cell_key, col))


@dataclass
class ResultTable:
    name: str
    columns: tuple
    rows: list
    provenance: Provenance
    meta: dict

    def __post_init__(self):
        self.columns = tuple(self.columns)
        self.meta = plain(dict(self.meta))
        rows, width = list(self.rows), len(self.columns)
        widths = set(map(len, rows))
        if not width or widths - {width}:
            raise ValueError(f"table {self.name}: {width} columns, rows of "
                             f"width {sorted(widths)}")
        cols = list(zip(*rows)) or [()] * width
        for j, col in enumerate(cols):
            if not all(issubclass(t, _PLAIN) for t in set(map(type, col))):
                cols[j] = col = list(map(plain, col))
                if not all(issubclass(t, _PLAIN) for t in set(map(type, col))):
                    raise ValueError(f"table {self.name}: column "
                                     f"{self.columns[j]!r} holds a non-scalar cell")
        keys = list(zip(*map(_sort_column, cols)))
        rows = list(zip(*cols))
        self.rows = list(map(rows.__getitem__,
                             sorted(range(len(rows)), key=keys.__getitem__)))


def _columns(table: ResultTable) -> list:
    return list(zip(*table.rows)) or [()] * len(table.columns)


def _csv_column(col):
    types = set(map(type, col))
    return map(_G17 if all(issubclass(t, float) for t in types) else
               str if types <= {int, str, type(None)} else _fmt, col)


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


def _write_lines(path: str, lines: list) -> str:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_csv(table: ResultTable, path: str) -> str:
    lines = _header_lines(table)
    lines.append(",".join(table.columns))
    lines.extend(map(",".join, zip(*map(_csv_column, _columns(table)))))
    return _write_lines(path, lines)


def _json_cell(value):
    if isinstance(value, float) and value != value:
        return None
    return value


def _json_column(col):
    # NaN is the one cell that differs from itself.
    return list(map(_json_cell, col)) if any(map(ne, col, col)) else col


def write_json(table: ResultTable, path: str) -> str:
    """dump_json's bytes, with the rows through the C encoder: its item
    separator puts each cell on its own line, and the row seams, unique
    since a scalar cell holds no raw newline, are rewritten to indent=1."""
    head = json.dumps({
        "name": table.name,
        "provenance": vars(table.provenance),
        "meta": {k: _json_cell(v) for k, v in table.meta.items()},
        "columns": list(table.columns),
    }, indent=1, sort_keys=True)
    rows = list(zip(*map(_json_column, _columns(table))))
    body = json.dumps(rows, separators=(",\n   ", ": "))[2:-2]
    body = body.replace("],\n   [", "\n  ],\n  [\n   ")
    body = f"[\n  [\n   {body}\n  ]\n ]" if rows else "[]"
    return _write_lines(path, [f'{head[:-2]},\n "rows": {body}\n}}'])


def dump_json(doc, path: str) -> str:
    """Write a JSON document with sorted keys and indent 1."""
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _write_xy(path: str, xs, ys, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.extend(map(" ".join, zip(map(_G17, map(float, xs)),
                                   map(_G17, map(float, ys)))))
    return _write_lines(path, lines)


def _plot_loglog_fit(name, out_base, xs, ys):
    """Data file plus a fitted-line companion: least squares on
    log10/log10, the companion sampled at the data abscissae."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.unique(xs).size < 2:
        raise ValueError(f"table {name}: a log-log fit needs at least two "
                         "distinct x values")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError(f"table {name}: a log-log fit needs finite data")
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
    rect = f'<rect x="%s" y="%s" width="{cell}" height="{cell}" fill="%s"/>'
    colors = map(REGION_COLORS.get, map(str, tags), repeat("#ff00ff"))
    parts.extend(rect % ((n - n_min) * cell, (m_max - m) * cell, color)
                 for n, m, color in zip(ns, ms, colors) if color != "#ffffff")
    parts.append("</svg>")
    return [_write_lines(out_base + ".svg", parts)]


def emit_plot_data(table: ResultTable, kind: str, out_base: str) -> list:
    """Write two-column whitespace data files (and SVG for region
    grids) for a table; x is its first column.  Kinds: xy and
    loglog-fit plot the second column, curve writes one file per later
    column, region-svg draws the first three (n, m, tag)."""
    columns = _columns(table)
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
