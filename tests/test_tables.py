"""Tests for deterministic table emission: row ordering, lossless float
formatting, CSV/JSON structure, and the plot-data writers, which must
write the bytes of the cell-by-cell reference writers of _oracles."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    ReferenceTable,
    reference_emit_plot_data,
    reference_write_csv,
    reference_write_json,
)
from inghamlab.tables import (
    REGION_COLORS,
    Provenance,
    ResultTable,
    emit_plot_data,
    plain,
    write_csv,
    write_json,
)

PROV = Provenance("0.1.0", "abcdef0123456789", "2026-01-01T00:00:00+00:00")


def _table(rows, columns=("a", "b"), name="demo", meta=None):
    return ResultTable(name, columns, rows, PROV, meta or {})


def test_row_width_guard():
    with pytest.raises(ValueError, match=r"2 columns, rows of width \[2, 3\]"):
        _table([(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError, match=r"table demo: 0 columns"):
        _table([(), ()], columns=())


def test_sorted_rows_is_a_total_order_over_mixed_types():
    rows = [(2, "x"), (1.5, "y"), (True, "z"), ("label", "w"), (-3, "v")]
    ordered = _table(rows).rows
    # numbers first (ascending), then strings, then booleans
    assert ordered == [(-3, "v"), (1.5, "y"), (2, "x"), ("label", "w"),
                       (True, "z")]


def test_float_format_round_trips_doubles():
    for x in (1.0 / 3.0, 0.1, np.pi, 1e-17, -2.5e300, 123456789.123456789):
        assert float("%.17g" % x) == x


def test_csv_structure_and_formatting(tmp_path):
    t = _table([(0.1, True), (1.0 / 3.0, False)], meta={"s": 2.0, "note": "hi"})
    path = write_csv(t, str(tmp_path / "demo.csv"))
    lines = open(path).read().splitlines()
    assert lines[0] == "# inghamlab 0.1.0"
    assert lines[1] == "# config abcdef0123456789"
    assert lines[2].startswith("# generated ")
    assert lines[3] == "# table demo"
    assert lines[4] == "# note hi"          # meta keys sorted
    assert lines[5] == "# s 2"
    assert lines[6] == "a,b"
    assert lines[7] == "0.10000000000000001,true"
    assert lines[8] == "0.33333333333333331,false"


def test_csv_identical_modulo_generated_line(tmp_path):
    rows = [(3, 0.25), (1, 0.5)]
    t1 = ResultTable("demo", ("a", "b"), rows, PROV, meta={})
    t2 = ResultTable("demo", ("a", "b"), list(reversed(rows)),
                     Provenance("0.1.0", "abcdef0123456789",
                                "2026-02-02T12:00:00+00:00"), meta={})
    p1 = write_csv(t1, str(tmp_path / "one.csv"))
    p2 = write_csv(t2, str(tmp_path / "two.csv"))

    def strip(path):
        return [ln for ln in open(path).read().splitlines()
                if not ln.startswith("# generated")]

    assert strip(p1) == strip(p2)
    full1 = open(p1).read().splitlines()
    full2 = open(p2).read().splitlines()
    assert full1 != full2  # only the timestamp line differs


@pytest.mark.parametrize("write", [write_csv, write_json])
def test_numpy_cells_and_meta_write_like_python_values(write, tmp_path):
    # ints sort numerically, bools print true/false, and JSON accepts both
    python = _table([(10, True), (9, False)], meta={"n": 3, "ok": True})
    numpy = _table([(np.int64(10), np.bool_(True)),
                    (np.int64(9), np.bool_(False))],
                   meta={"n": np.int64(3), "ok": np.bool_(True)})
    paths = [write(t, str(tmp_path / name))
             for t, name in ((python, "python"), (numpy, "numpy"))]
    first, second = (open(p, "rb").read() for p in paths)
    assert first == second


def test_plain_converts_numpy_tuples_and_complex():
    assert plain({"a": (np.int64(1), np.float32(0.5)),
                  "b": np.arange(3), "c": 1 - 2j, "d": np.bool_(False)}) \
        == {"a": [1, 0.5], "b": [0, 1, 2], "c": {"re": 1.0, "im": -2.0},
            "d": False}
    x = np.float64(0.1)
    assert plain(x) is x        # a float already: returned unchanged
    assert type(plain(np.int64(7))) is int


def test_json_replaces_nan_and_sorts(tmp_path):
    t = _table([(float("nan"), 2.0)], meta={"m": float("nan")})
    path = write_json(t, str(tmp_path / "demo.json"))
    doc = json.load(open(path))
    assert doc["rows"] == [[None, 2.0]]
    assert doc["meta"]["m"] is None
    assert doc["name"] == "demo"
    assert doc["columns"] == ["a", "b"]
    assert doc["provenance"]["config_hash"] == "abcdef0123456789"


def test_plot_xy_writes_two_columns(tmp_path):
    t = _table([(2.0, 4.0), (1.0, 1.0)])
    paths = emit_plot_data(t, "xy", str(tmp_path / "p"))
    assert paths == [str(tmp_path / "p.dat")]
    lines = open(paths[0]).read().splitlines()
    assert lines[0].split() == ["1", "1"]
    assert lines[1].split() == ["2", "4"]


def test_plot_xy_plots_the_second_column(tmp_path):
    # The shape of the ingham_sweep and highfreq_bounds tables.
    t = _table([(2.0, 0.5, 7.0), (1.0, 0.25, 6.0)],
               columns=("T", "lambda_min", "lambda_max"))
    paths = emit_plot_data(t, "xy", str(tmp_path / "p"))
    rows = [ln.split() for ln in open(paths[0]).read().splitlines()]
    assert rows == [["1", "0.25"], ["2", "0.5"]]


def test_plot_loglog_fit_companion(tmp_path):
    xs = [10.0, 100.0, 1000.0]
    t = _table([(x, 3.0 * x ** -1.5) for x in xs])
    paths = emit_plot_data(t, "loglog-fit", str(tmp_path / "p"))
    assert paths == [str(tmp_path / "p.dat"), str(tmp_path / "p.fit.dat")]
    fit_lines = open(paths[1]).read().splitlines()
    slope = float(fit_lines[0].split()[-1])
    assert slope == pytest.approx(-1.5, abs=1e-12)
    for ln in fit_lines[2:]:
        x, y = (float(v) for v in ln.split())
        assert y == pytest.approx(3.0 * x ** -1.5, rel=1e-12)


@pytest.mark.parametrize("rows", [[(10.0, 1.0)], [(10.0, 1.0), (10.0, 2.0)]])
def test_plot_loglog_fit_needs_two_distinct_x(rows, tmp_path):
    # One point, or one abscissa twice, leaves the slope undetermined.
    with pytest.raises(ValueError, match="table demo: .* two distinct x"):
        emit_plot_data(_table(rows), "loglog-fit", str(tmp_path / "p"))
    assert not (tmp_path / "p.fit.dat").exists()


def test_plot_loglog_fit_needs_positive_data(tmp_path):
    t = _table([(1.0, -2.0), (2.0, 3.0)])
    with pytest.raises(ValueError):
        emit_plot_data(t, "loglog-fit", str(tmp_path / "p"))


@pytest.mark.parametrize("rows", [[(1.0, float("inf")), (2.0, 3.0)],
                                  [(1.0, 2.0), (float("inf"), 3.0)]],
                         ids=["inf-y", "inf-x"])
def test_plot_loglog_fit_rejects_non_finite_data(rows, tmp_path, capfd):
    # An infinite y would fit slope nan; an infinite x would make LAPACK
    # print to standard output, where the CLI writes its JSON.
    with pytest.raises(ValueError, match="^table demo: .* finite data"):
        emit_plot_data(_table(rows), "loglog-fit", str(tmp_path / "p"))
    assert capfd.readouterr().out == ""
    assert not (tmp_path / "p.fit.dat").exists()


def test_region_svg_colors_and_size(tmp_path):
    rows = [(0, 0, "Diagonal", 0.0), (0, 1, "GoodPlus", 1.0),
            (1, 0, "GoodMinus", -9.0), (1, 1, "Bad", -0.5)]
    t = ResultTable("grid", ("n", "m", "tag", "ratio"), rows, PROV, meta={})
    paths = emit_plot_data(t, "region-svg", str(tmp_path / "grid"))
    svg = open(paths[0]).read()
    assert 'width="12" height="12"' in svg            # 2x2 cells of 6 px
    assert svg.count(REGION_COLORS["GoodPlus"]) == 1
    assert svg.count(REGION_COLORS["GoodMinus"]) == 1
    assert svg.count(REGION_COLORS["Bad"]) == 1
    # diagonal cells are left as background, not drawn
    assert svg.count("<rect") == 1 + 3


def test_plot_curve_one_file_per_column(tmp_path):
    t = ResultTable("c", ("t", "u", "v"), [(0.0, 1.0, 2.0), (1.0, 3.0, 4.0)],
                    PROV, meta={})
    paths = emit_plot_data(t, "curve", str(tmp_path / "c"))
    assert [p.rsplit("/", 1)[-1] for p in paths] == ["c.u.dat", "c.v.dat"]


def test_plot_argument_guards(tmp_path):
    t = _table([(1.0, 2.0)])
    with pytest.raises(ValueError):
        emit_plot_data(t, "histogram", str(tmp_path / "p"))


def test_non_scalar_cells_name_the_table_and_column():
    # A tuple becomes a list and a complex a dict: neither is a cell.
    for rows, column in (([(1, (2, 3))], "b"), ([(1j, 0.5)], "a")):
        with pytest.raises(ValueError, match=f"table demo: column '{column}' "
                                             "holds a non-scalar cell"):
            _table(rows)


# Cells of every scalar type a table takes.  Small pools make ties, so
# later columns decide the order; _NAN is one object, so two of its cells
# are identical, while other NaNs are not.
_NAN = float("nan")
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, float("inf"), float("-inf"), _NAN]),
    st.just(float("nan")), st.floats(allow_nan=True, allow_infinity=True))
_INTS = st.one_of(st.integers(-2, 2), st.integers(-2 ** 70, 2 ** 70),
                  st.sampled_from([2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1]))
_STRS = st.one_of(
    st.sampled_from(["", "a", '"q"', "x,y", "],", "]],", "\n", "],\n   [",
                     "NaN", "null", "true", "1.5", "-0", "inf", "é", "日本"]),
    st.text(max_size=6))
_NUMPY = st.one_of(_FLOATS.map(np.float64), st.integers(-2 ** 62, 2 ** 62).map(np.int64),
                   st.booleans().map(np.bool_), st.floats(width=32).map(np.float32))
_CELLS = {"float": _FLOATS, "int": _INTS, "bool": st.booleans(), "str": _STRS,
          "none": st.none(), "numpy": _NUMPY}
_CELLS["mixed"] = st.one_of(*_CELLS.values())


@st.composite
def _raw_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4))
    columns = draw(st.lists(st.text('ab,"é ', min_size=1, max_size=3), min_size=len(kinds),
                            max_size=len(kinds)))
    rows = draw(st.lists(st.tuples(*(_CELLS[k] for k in kinds)), max_size=12))
    meta = draw(st.dictionaries(st.text(max_size=3), _CELLS["mixed"], max_size=3))
    return columns, rows, meta


def _fails(write, table, path) -> bool:
    # Which cell fails first may differ (a column writer formats one
    # column at a time), so only failing at all is compared.
    try:
        write(table, path)
    except Exception:           # noqa: BLE001 -- any failure, on both sides
        return True
    return False


def _plotter(emit, kind):
    return lambda table, out_base: emit(table, kind, out_base)


def _written(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_raw_tables())
def test_column_writers_match_the_cell_by_cell_reference(raw):
    columns, rows, meta = raw
    new = ResultTable("demo", columns, rows, PROV, meta)
    ref = ReferenceTable("demo", columns, rows, PROV, meta)
    assert repr(new.rows) == repr(ref.rows)
    writers = [(write_csv, reference_write_csv, "t.csv"),
               (write_json, reference_write_json, "t.json")]
    writers += [(_plotter(emit_plot_data, kind),
                 _plotter(reference_emit_plot_data, kind), f"plot-{kind}")
                for kind in ("xy", "curve", "region-svg", "loglog-fit")]
    for write, reference, name in writers:
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            fails = _fails(write, new, os.path.join(a, name))
            assert fails == _fails(reference, ref, os.path.join(b, name)), name
            assert _written(a) == _written(b), name
