"""Command line interface: every experiment as a subcommand.

Argument parsing happens before numpy is imported so that --threads can
pin the BLAS/OpenMP pool sizes of the numeric libraries: the numeric
modules are reached as attributes of the package (`lab.riesz`), which
imports each one on first use, and numpy itself only inside the
functions that run after main has applied --threads.  Library calls
look the function up on its module at call time, so a wrapper set on a
module attribute (perfbench's tracer, a test's monkeypatch) sees every
call.  Exit codes:
0 success, 1 error (bad input, tolerance failures, crashes), 2 when a
subcommand's mathematical assertion fails (monotonicity broken, fit
outside its window, acceptance batch red) so CI can distinguish
scientific regressions from plumbing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

import inghamlab as lab

from . import DEFAULT_SEED, __version__, tables
from .errors import ArtifactError, InadmissiblePoints

_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
_FORMATS = ("csv", "json")


# ---------------------------------------------------------------------------
# parameter parsers: each takes a CLI string or a JSON config value
# ---------------------------------------------------------------------------

def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _real(value) -> float:
    """A finite number, or the text of one; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise TypeError(f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _floats(value) -> list:
    if isinstance(value, str):
        value = [x for x in value.split(",") if x.strip()]
    out = [_real(x) for x in value]
    if not out:
        raise ValueError("expected a non-empty list")
    return out


def _int(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    out = _real(value)
    if not out.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(out)


def _ints(value) -> list:
    return [_int(x) for x in _floats(value)]


def _pairs(value) -> list:
    pts = []
    for chunk in _text(value).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        t, x = (_real(v) for v in chunk.split(","))
        pts.append((t, x))
    return pts


def _points(value) -> list:
    pts = _pairs(value)
    if len(pts) != 3:
        raise ValueError("need exactly three t,x pairs")
    return pts


def _coeffs(value) -> list:
    return [complex(re, im) for re, im in _pairs(value)]


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class _Document:
    """A JSON object given inline under the row's key in a config, or as
    a file named by the `file` key (the only form with a CLI flag).
    load(doc, params) builds the library object once the plain
    parameters have resolved."""

    file: str
    load: object

    def __call__(self, doc, params):
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {doc!r}")
        return self.load(doc, params)


def _curve(doc, p):
    return lab.curves.curve_from_dict(doc)


def _measure(doc, p):
    return lab.curves.measure_from_dict(doc)


def _gamma(doc, p):
    return lab.rigidity.ObservationCurveGamma(doc["kind"],
                                              doc.get("params", {}))


def _potential(doc, p):
    return lab.schrodinger.PotentialSpec(doc["kind"], doc.get("params", {}))


def _state(doc, p):
    import numpy as np
    coeffs = np.asarray(doc["coeffs_re"], dtype=float) \
        + 1j * np.asarray(doc.get("coeffs_im", 0.0), dtype=float)
    s = float(doc.get("s", 2.0 if p["s"] is None else p["s"]))
    K = int(doc.get("K", (len(coeffs) - 1) // 2))
    return lab.schrodinger.TorusState(coeffs, float(doc.get("time", 0.0)),
                                      s, K)


def _system(doc, p):
    import numpy as np
    coeffs = np.asarray(doc["coefficients_re"], dtype=float) \
        + 1j * np.asarray(doc.get("coefficients_im", 0.0), dtype=float)
    return lab.rigidity.LowFreqSystem(int(doc["N"]), float(doc["s"]),
                                      tuple(doc["lambdas"]), tuple(coeffs))


CURVE = _Document("curve_file", _curve)
MEASURE = _Document("measure_file", _measure)
GAMMA = _Document("gamma_file", _gamma)

# One table per subcommand: (key, parser, default, help).  The key is the
# config `parameters` key and, with '_' written '-', the CLI flag; a
# document row takes its flag from the document's file key.  The table
# builds the flags, rejects unknown config keys, converts every value,
# and fills a default only where the value is absent or None, so an
# explicit 0 reaches the library's own range checks.  Defaults are
# written as a user would give them and pass through the parser too.
REQUIRED = object()

_GRAM = [
    ("curve", CURVE, None, "curve JSON document"),
    ("measure", MEASURE, None, "measure JSON document"),
    ("s", _real, REQUIRED, "temporal exponent"),
    ("N", _int, 10, "indices -N..N"),
    ("T", _real, None, "curve horizon (required with a curve)"),
    ("tol", _real, 1e-9, "entry tolerance"),
    ("weight", _text, "lebesgue", "lebesgue or arclength (curve systems)"),
]

_PARAMS = {
    "validate-curve": [
        ("curve", CURVE, REQUIRED, "curve JSON document"),
        ("T", _real, 1.0, "time horizon"),
        ("grid", _int, 256, "validation grid size"),
    ],
    "integral": [
        ("n", _int, REQUIRED, "first index"),
        ("m", _int, REQUIRED, "second index"),
        ("s", _real, REQUIRED, "temporal exponent"),
        ("curve", CURVE, REQUIRED, "curve JSON document"),
        ("T", _real, REQUIRED, "upper integration limit"),
        ("tol", _real, 1e-9, "absolute tolerance"),
    ],
    "classify": [
        ("s", _real, REQUIRED, "temporal exponent"),
        ("tau", _real, None, "threshold (computed from curve when omitted)"),
        ("N", _int, 50, "grid half-width"),
        ("curve", CURVE, None, "curve used to derive tau when not given"),
        ("T", _real, 1.0, "horizon used to derive tau"),
    ],
    "boundary": [
        ("samples", _int, 250, "points per branch"),
    ],
    "lemma21": [
        ("gamma", _real, REQUIRED, "denominator exponent"),
        ("s", _real, REQUIRED, "temporal exponent"),
        ("N", _int, 10000, "truncation"),
    ],
    "tails": [
        ("gamma", _real, REQUIRED, "pair-distance exponent"),
        ("delta", _real, REQUIRED, "frequency-gap exponent"),
        ("s", _real, REQUIRED, "temporal exponent"),
        ("Ngrid", _ints, "100,316,1000,3162,10000", "comma list of N values"),
        ("mset", _ints, "0,1,7,100,1000", "comma list of m values"),
    ],
    "gram": _GRAM,
    "riesz": _GRAM,
    "ingham-sweep": [
        ("curve", CURVE, REQUIRED, "curve JSON document"),
        ("s", _real, REQUIRED, "temporal exponent"),
        ("N", _int, 20, "indices -N..N"),
        ("Tgrid", _floats, "0.25,0.5,1,2,4,8", "comma list of horizons"),
        ("tol", _real, 1e-8, "Gram entry tolerance"),
    ],
    "minimal-time": [
        ("curve", CURVE, REQUIRED, "curve JSON document"),
        ("s", _real, REQUIRED, "temporal exponent"),
        ("jgrid", _ints, "2,5,10,50,200", "comma list of mode indices"),
    ],
    "highfreq": [
        ("measure", MEASURE, REQUIRED, "measure JSON document"),
        ("s", _real, None, "temporal exponent (required without --sgrid)"),
        ("Ngrid", _ints, "25,50,100,200",
         "comma list of window base frequencies"),
        ("window", _int, None, "window width (default 30; 10 with --sgrid)"),
        ("sgrid", _floats, None,
         "run the dispersion sweep over these s instead"),
        ("N", _int, None, "window base frequency with --sgrid (default 2)"),
    ],
    "sharpness": [
        ("delta", _real, 0.5, "decay exponent"),
        ("s", _real, 1.5, "temporal exponent"),
        ("Ngrid", _ints, "32,64,128,256,512,1024", "comma list of N values"),
    ],
    "merged": [
        ("curve", CURVE, REQUIRED, "curve JSON document"),
        ("T", _real, 1.0, "horizon"),
        ("sgrid", _floats, "1.6,2,2.5,3", "comma list of s values"),
        ("N", _int, 20, "indices -N..N"),
        ("tol", _real, 1e-8, "Gram entry tolerance"),
    ],
    "wronskian": [
        ("gamma_curve", GAMMA, REQUIRED,
         "observation curve JSON {kind, params}"),
        ("samples", _int, 100, "sample count"),
        ("xmin", _real, 0.05, "sample range start"),
        ("xmax", _real, 2.0, "sample range end"),
    ],
    "threepoint": [
        ("points", _points, REQUIRED, "three t,x pairs: 't1,x1;t2,x2;t3,x3'"),
        ("coeffs", _coeffs, None,
         "optional coefficient triple 're,im;re,im;re,im'"),
    ],
    "zeroprobe": [
        ("system", _Document("system_file", _system), REQUIRED,
         "low-frequency system JSON"),
        ("gamma_curve", GAMMA, REQUIRED,
         "observation curve JSON {kind, params}"),
        ("T", _real, 1.0, "probe interval length"),
    ],
    "schrodinger": [
        ("u0", _Document("u0_file", _state), None,
         "initial state JSON (evolve mode)"),
        ("potential", _Document("V_file", _potential),
         {"kind": "Zero", "params": {}}, "potential JSON {kind, params}"),
        ("s", _real, None, "dispersion exponent"),
        ("curve", CURVE, None, "curve JSON document"),
        ("T", _real, REQUIRED, "final time"),
        ("dt", _real, None, "time step override"),
        ("trials", _int, 8, "trace-ratio trial count (trial mode)"),
        ("K", _int, 8, "mode cutoff for trial mode"),
    ],
}


# Keys that depend on the mode of a subcommand: (the key whose presence
# selects the second mode, the keys the first mode needs, the keys the
# first mode never reads, the keys the second mode never reads).  Checked
# on the keys as given, before defaults fill in, so a dry run checks
# them as well.
_MODE_NEEDS = {
    "gram": ("measure", ("curve", "T"), (), ("curve", "T", "weight")),
    "riesz": ("measure", ("curve", "T"), (), ("curve", "T", "weight")),
    "classify": ("tau", ("curve",), (), ("curve", "T")),
    "highfreq": ("sgrid", ("s",), ("N",), ("s", "Ngrid")),
    "schrodinger": ("u0", ("s", "curve"), ("dt",), ("K", "trials")),
}


def _resolve(subcommand: str, given: dict) -> dict:
    """The typed parameters of one experiment, with documents loaded.
    Unknown keys, keys the mode does not read, values the parser rejects
    and missing required values raise ValueError naming the key."""
    rows = _PARAMS[subcommand]
    files = {kind.file: key for key, kind, *_ in rows
             if isinstance(kind, _Document)}
    unknown = sorted(set(given) - {key for key, *_ in rows} - set(files))
    if unknown:
        raise ValueError(f"unknown parameter(s) for {subcommand}: "
                         f"{', '.join(unknown)}")
    present = {files.get(key, key) for key, value in given.items()
               if value is not None}
    mode, needs, unread, unread_with = _MODE_NEEDS.get(
        subcommand, (None, (), (), ()))
    word = "without"
    if mode in present:
        needs, unread, word = (), unread_with, "with"
    for key in needs:
        if key not in present:
            raise ValueError(f"missing required parameter '{key}'")
    for key in unread:
        if key in present:
            raise ValueError(f"parameter '{key}' is not read {word} '{mode}'")
    params = {}
    # Documents last: a state document falls back on the resolved s.
    for key, kind, default, _ in sorted(
            rows, key=lambda row: isinstance(row[1], _Document)):
        value = given.get(key)
        path = given.get(kind.file) if isinstance(kind, _Document) else None
        if value is None and path is None:
            if default is REQUIRED:
                raise ValueError(f"missing required parameter '{key}'")
            value = default
        try:
            if value is None and path is not None:
                value = _load_json(_text(path))
            if value is not None:
                value = kind(value, params) \
                    if isinstance(kind, _Document) else kind(value)
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"parameter '{key}': {exc}") from None
        params[key] = value
    return params


@dataclass
class ExperimentConfig:
    """One experiment: subcommand plus its parameter map.  Round-trips
    losslessly through JSON: from_dict reads what dataclasses.asdict
    writes."""

    subcommand: str
    parameters: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    out_dir: str = "results"
    format: str = "csv"

    def __post_init__(self):
        self.parameters = dict(self.parameters)
        for name, parse in (("seed", _int), ("out_dir", _text)):
            try:
                setattr(self, name, parse(getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config field '{name}': {exc}") from None
        if self.format not in _FORMATS:
            raise ValueError(f"format must be csv or json, got {self.format!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        extra = set(doc) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        if "subcommand" not in doc:
            raise ValueError("config needs a 'subcommand' field")
        if not isinstance(doc.get("parameters", {}), dict):
            raise ValueError("config 'parameters' must be a JSON object")
        return cls(**doc)

    def config_hash(self) -> str:
        # Identifies the computation, not its destination: output
        # directory and table format do not change any numbers.
        doc = {"subcommand": self.subcommand, "parameters": self.parameters,
               "seed": self.seed}
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class RunContext:
    out_dir: str
    fmt: str
    seed: int
    config_hash: str
    written: list = field(default_factory=list)

    def emit(self, name, columns, rows, meta=None, plot=None, **axes):
        """Write one table to <out_dir>/<name>.<fmt> and, given a plot
        kind, its plot files beside it, named <name> and a suffix."""
        stamp = datetime.now(timezone.utc).isoformat()
        table = tables.ResultTable(
            name, columns, rows,
            tables.Provenance(__version__, self.config_hash, stamp),
            meta or {})
        os.makedirs(self.out_dir, exist_ok=True)
        base = os.path.join(self.out_dir, name)
        write = tables.write_json if self.fmt == "json" else tables.write_csv
        self.written.append(write(table, f"{base}.{self.fmt}"))
        if plot is not None:
            self.written.extend(tables.emit_plot_data(table, plot, base, **axes))

    def emit_document(self, name, doc) -> str:
        """Write a JSON document to <out_dir>/<name>.json."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = tables.dump_json(tables.plain(doc),
                                os.path.join(self.out_dir, f"{name}.json"))
        self.written.append(path)
        return path


def _pick(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


# ---------------------------------------------------------------------------
# runners: each takes the resolved parameters and returns (summary, ok)
# ---------------------------------------------------------------------------

def run_validate_curve(p, ctx):
    import numpy as np
    curve, T = p["curve"], p["T"]
    rep = lab.curves.validate_H_alpha(curve, T, p["grid"])
    fields = {**_pick(rep, "passed", "lower_ratio_min", "upper_ratio_max",
                      "curvature_ratio_min", "sign_constant"),
              **_pick(curve, "alpha", "c1", "c2", "c3")}
    ctx.emit("curve_validation", ("field", "value"), fields.items())
    ts = np.linspace(T * 1e-3, T, 256)
    ps = curve.p(ts) - curve.p(np.zeros(1))[0]
    lower = curve.c1 / curve.alpha * ts ** curve.alpha
    upper = curve.c2 / curve.alpha * ts ** curve.alpha
    ctx.emit("curve_profile", ("t", "p_shifted", "lower", "upper"),
             np.column_stack((ts, ps, lower, upper)).tolist(), plot="curve",
             ys=["p_shifted", "lower", "upper"])
    return _pick(rep, "passed", "failures"), rep.passed


def run_integral(p, ctx):
    r = lab.oscint.oscillatory_integral(p["n"], p["m"], p["s"], p["curve"],
                                        p["T"], tol=p["tol"])
    result = {"value_re": r.value.real, "value_im": r.value.imag,
              "modulus": abs(r.value),
              **_pick(r, "abs_error_estimate", "panels")}
    row = {key: p[key] for key in ("n", "m", "s", "T")} | result
    ctx.emit("integral", tuple(row), [tuple(row.values())])
    return result | _pick(r, "stationary_points"), True


def run_classify(p, ctx):
    s, tau = p["s"], p["tau"]
    if tau is None:
        tau = lab.classify.tau_threshold(p["curve"], p["T"])
    grid = lab.classify.region_grid(s, tau, p["N"])
    ctx.emit("region_grid", ("n", "m", "tag", "ratio"), grid.rows(),
             meta={"s": s, "tau": tau,
                   **{f"count_{k}": v for k, v in grid.counts.items()}},
             plot="region-svg")
    return {"tau": tau, "counts": grid.counts}, True


def run_boundary(p, ctx):
    rows = [(pt.branch, pt.parameter, *pt.point, abs(pt.residual()))
            for b in lab.classify.BRANCHES
            for pt in lab.classify.boundary_samples(b, p["samples"])]
    max_res = max([0.0, *(row[-1] for row in rows)])
    ctx.emit("boundary", ("branch", "parameter", "x", "y", "residual"), rows,
             meta={"max_residual": max_res})
    return {"max_residual": max_res, "points": len(rows)}, True


def run_lemma21(p, ctx):
    gamma, s, N = p["gamma"], p["s"], p["N"]
    checkpoints = [n for n in (10, 31, 100, 316, 1000, 3162, 10000, 31623)
                   if n < N]
    scan = lab.sums.sup_M(gamma, s, N, checkpoints=checkpoints)
    meta = {"gamma": gamma, "s": s, "sup": scan.sup_value,
            "argmax_n": scan.argmax[0], "argmax_m": scan.argmax[1]}
    if scan.growth_fit is not None:
        meta["growth_fit"] = scan.growth_fit
    ctx.emit("sup_scan", ("N", "sup"), [*scan.checkpoints,
                                        (N, scan.sup_value)],
             meta=meta, plot="loglog-fit")
    wit = lab.sums.inf_witness(gamma, s, N)
    ctx.emit("inf_witness", ("m", "ratio"), zip(wit.ms, wit.ratios),
             meta=_pick(wit, "family", "contracted"))
    return {"sup": scan.sup_value, "argmax": scan.argmax,
            "growth_fit": scan.growth_fit, "witness_family": wit.family,
            "witness_contracted": wit.contracted}, True


def run_tails(p, ctx):
    fit = lab.sums.tail_decay_fit(p["gamma"], p["delta"], p["s"],
                                  p["Ngrid"], m_set=p["mset"])
    ctx.emit("tail_sums", ("N", "m", "S_m_N"),
             [(N, m, fit.values[i, j]) for i, m in enumerate(fit.m_set)
              for j, N in enumerate(fit.N_grid)])
    meta = _pick(fit, "slope", "sigma_expected", "passes", "N0_empirical")
    ctx.emit("tail_fit", ("N", "max_S"), zip(fit.N_grid, fit.max_per_N),
             meta=meta, plot="loglog-fit")
    return meta, bool(fit.passes)


def _gram(p):
    indices = range(-p["N"], p["N"] + 1)
    if p["measure"] is not None:
        system = lab.riesz.measure_system(indices, p["s"], p["measure"])
    else:
        system = lab.riesz.curve_system(indices, p["s"], p["curve"],
                                        p["T"], weight=p["weight"])
    return lab.riesz.gram_matrix(system, tol=p["tol"])


def run_gram(p, ctx):
    G = _gram(p)
    path = ctx.emit_document("gram", lab.riesz.gram_to_dict(G))
    ctx.emit("gram_entries", ("n", "m", "re", "im"),
             [(n, m, z.real, z.imag)
              for n, row in zip(G.indices, G.entries)
              for m, z in zip(G.indices, row)],
             meta=_pick(G, "dim", "T_or_mass"))
    return {"dim": G.dim, "gram_json": path}, True


def run_riesz(p, ctx):
    G = _gram(p)
    rep = lab.riesz.riesz_bounds(G, seed=ctx.seed)
    ctx.emit("riesz_report",
             ("lambda_min", "lambda_max", "dim", "random_vector_checks"),
             [(rep.lambda_min, rep.lambda_max, G.dim,
               rep.random_vector_checks)])
    return {**_pick(rep, "lambda_min", "lambda_max", "normalized"),
            "dim": G.dim}, True


def run_ingham_sweep(p, ctx):
    s, N = p["s"], p["N"]
    res = lab.riesz.ingham_sweep(p["curve"], s, N, p["Tgrid"], tol=p["tol"])
    found = _pick(res, "monotone", "empirical_T")
    ctx.emit("ingham_sweep", ("T", "lambda_min", "lambda_max", "ratio"),
             [(T, lo, hi, lo / T) for T, lo, hi in
              zip(res.T_grid, res.lambda_min, res.lambda_max)],
             meta={"s": s, "N": N, **found}, plot="xy", x="T",
             y="lambda_min")
    return {**found, "lambda_min_final": res.lambda_min[-1]}, \
        bool(res.monotone)


def run_minimal_time(p, ctx):
    s = p["s"]
    res = lab.riesz.minimal_time_counterexample(p["curve"], s, p["jgrid"])
    ctx.emit("minimal_time", ("j", "T_j", "ratio"),
             zip(res.j_grid, res.T_values, res.ratios),
             meta={"s": s, **_pick(res, "eps", "decreasing", "c_norm_sq")})
    return {**_pick(res, "eps", "decreasing"), "first_ratio": res.ratios[0],
            "last_ratio": res.ratios[-1]}, bool(res.decreasing)


def run_highfreq(p, ctx):
    measure = p["measure"]
    # Sizes left unset take the library's defaults, which differ by mode;
    # _MODE_NEEDS rejects N without sgrid.
    sizes = {key: p[key] for key in ("N", "window") if p[key] is not None}
    if p["sgrid"] is not None:
        res = lab.riesz.highfreq_dispersion_sweep(measure, p["sgrid"], **sizes)
        found = _pick(res, "eta_hat", "lo_target", "hi_target")
        ctx.emit("dispersion_sweep", ("s", "lambda_min", "lambda_max"),
                 zip(res.s_grid, res.lambda_min, res.lambda_max),
                 meta={**_pick(res, "N", "window"), **found})
        return found, True
    s = p["s"]
    res = lab.riesz.highfreq_bounds(measure, s, p["Ngrid"], **sizes)
    found = _pick(res, "N_star", "delta_hat", "eta_hat")
    ctx.emit("highfreq_bounds", ("N", "lambda_min", "lambda_max"),
             zip(res.N_grid, res.lambda_min, res.lambda_max),
             meta={"s": s, "window": res.window, **found,
                   "N_star": -1 if res.N_star is None else res.N_star},
             plot="xy", x="N", y="lambda_min")
    return found, res.N_star is not None


def run_sharpness(p, ctx):
    delta, s = p["delta"], p["s"]
    res = lab.riesz.sharpness_sum(delta, s, p["Ngrid"])
    found = _pick(res, "slope", "expected_slope", "passes",
                  "exceeds_diagonal")
    ctx.emit("sharpness_sum", ("N", "S_N"), zip(res.N_grid, res.values),
             meta={"delta": delta, "s": s, **found}, plot="loglog-fit")
    return found, bool(res.passes)


def run_merged(p, ctx):
    T, N = p["T"], p["N"]
    res = lab.riesz.merged_bound_experiment(p["curve"], T, p["sgrid"],
                                            N=N, tol=p["tol"])
    ctx.emit("merged_bound",
             ("s", "lambda_min", "coupling", "product_bound_max"),
             zip(res.s_grid, res.lambda_min, res.coupling,
                 res.product_bound_max),
             meta={"T": T, "N": N, **_pick(res, "coupling_decreasing")})
    return _pick(res, "coupling_decreasing", "coupling"), \
        bool(res.coupling_decreasing)


def run_wronskian(p, ctx):
    import numpy as np
    gamma = p["gamma_curve"]
    xs = np.linspace(p["xmin"], p["xmax"], p["samples"])
    w = lab.rigidity.wronskian_n1(gamma, xs)
    rep = lab.rigidity.n1_vanishing_classifier(gamma, xs)
    ctx.emit("wronskian", ("x", "re", "im", "abs"),
             [(x, z.real, z.imag, abs(z)) for x, z in zip(xs, w)],
             meta=_pick(rep, "case"))
    return _pick(rep, "case", "relation", "witness", "detail"), True


def run_threepoint(p, ctx):
    try:
        rep = lab.rigidity.three_point_test(p["points"], p["coeffs"])
    except InadmissiblePoints as exc:
        fields = {"admissible": False, "detail": str(exc)}
        ctx.emit("threepoint", ("field", "value"), fields.items())
        return fields, False
    rows = [*_pick(rep, "admissible", "rank").items(),
            *((f"sigma_{i}", sv)
              for i, sv in enumerate(rep.singular_values, 1))]
    if rep.residual is not None:
        rows.append(("residual", rep.residual))
    ctx.emit("threepoint", ("field", "value"), rows)
    return _pick(rep, "admissible", "rank", "singular_values", "residual"), \
        bool(rep.admissible and rep.rank == 3)


def run_zeroprobe(p, ctx):
    rep = lab.rigidity.zero_set_probe(p["system"], p["gamma_curve"], p["T"])
    ctx.emit("zero_probe", ("t",), [(t,) for t in rep.zeros],
             meta=_pick(rep, "verdict", "max_abs", "coeff_norm"))
    return {**_pick(rep, "verdict", "max_abs"), "zeros": len(rep.zeros)}, \
        rep.verdict != "SuspectedIdenticallyZero"


def run_schrodinger(p, ctx):
    V, T, u0 = p["potential"], p["T"], p["u0"]
    if u0 is not None:
        uT, diag = lab.schrodinger.evolve(u0, V, T, dt=p["dt"])
        summary = {**_pick(diag, "steps", "norm_drift")}
        if p["curve"] is not None:
            summary["trace"] = lab.schrodinger.evolve_trace(
                u0, V, p["curve"], T, dt=p["dt"])
        ctx.emit("evolution", ("n", "re", "im", "mass"),
                 [(n, c.real, c.imag, abs(c) ** 2)
                  for n, c in zip(uT.modes, uT.coeffs)],
                 meta=_pick(diag, "steps", "dt", "norm_drift",
                            "top_band_fraction"))
        path = ctx.emit_document("state", {
            **_pick(uT, "K", "s", "time"), "coeffs_re": uT.coeffs.real,
            "coeffs_im": uT.coeffs.imag})
        return {**summary, "state_json": path}, True
    s = p["s"]
    res = lab.schrodinger.trace_bound_experiment(
        p["curve"], s, V, T, K=p["K"], n_random=p["trials"], seed=ctx.seed)
    ctx.emit("trace_ratios", ("trial", "ratio"),
             zip(res.trial_names, res.ratios),
             meta={"T": T, "s": s,
                   **_pick(res, "V_sup", "max_ratio", "min_ratio")})
    return {**_pick(res, "max_ratio", "min_ratio"),
            "trials": len(res.ratios)}, True


# run_<subcommand with '-' written '_'> runs each subcommand of _PARAMS.
_RUNNERS = {name: globals()[f"run_{name.replace('-', '_')}"]
            for name in _PARAMS}


def execute(config: ExperimentConfig, dry=False):
    """Run one experiment; returns (summary, ok, ctx).  A dry run stops
    once the parameters and input documents have resolved."""
    if config.subcommand not in _RUNNERS:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    ctx = RunContext(config.out_dir, config.format, config.seed,
                     config.config_hash())
    params = _resolve(config.subcommand, config.parameters)
    if dry:
        return {}, True, ctx
    summary, ok = _RUNNERS[config.subcommand](params, ctx)
    return summary, ok, ctx


def run_batch(doc: dict, out_dir: str, fmt: str, dry=False):
    """Execute a {"experiments": [...]} batch document."""
    if "experiments" not in doc:
        raise ValueError("batch config needs an 'experiments' list")
    results, all_ok = [], True
    for i, entry in enumerate(doc["experiments"]):
        cfg = ExperimentConfig.from_dict(entry)
        if "out_dir" not in entry:
            cfg.out_dir = os.path.join(out_dir,
                                       f"{i:02d}_{cfg.subcommand}")
        if "format" not in entry:
            cfg.format = fmt
        summary, ok, ctx = execute(cfg, dry=dry)
        all_ok = all_ok and ok
        results.append({"subcommand": cfg.subcommand, "ok": ok,
                        "summary": tables.plain(summary),
                        "tables": list(ctx.written)})
    return results, all_ok


def _shown(default) -> str:
    if default is REQUIRED:
        return " (required)"
    if default is None:
        return ""
    if isinstance(default, dict):
        default = default["kind"]
    return f" (default {default})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inghamlab",
        description="Numerical experiments for exponential systems on "
                    "curved frequency patterns.")
    parser.add_argument("--version", action="version",
                        version=f"inghamlab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="random seed "
                        f"(default {DEFAULT_SEED:#x})")
    common.add_argument("--threads", type=int,
                        help="cap BLAS/OpenMP thread pools")
    common.add_argument("--out-dir", help="output directory "
                        f"(default {ExperimentConfig.out_dir})")
    common.add_argument("--format", choices=_FORMATS,
                        help=f"table format (default {ExperimentConfig.format})")
    common.add_argument("--dry-run", action="store_true",
                        help="validate inputs without computing")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, rows in _PARAMS.items():
        p = sub.add_parser(name, parents=[common])
        for key, kind, default, help_text in rows:
            # Only numbers are converted here; lists and paths stay the
            # typed string, which is what the config hash is taken over.
            flag = kind.file if isinstance(kind, _Document) else key
            p.add_argument(f"--{flag.replace('_', '-')}",
                           type={_int: int, _real: float}.get(kind, str),
                           help=help_text + _shown(default))
    sub.add_parser("run", parents=[common])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    try:
        config_doc = None if args.config is None else _load_json(args.config)
        base = ExperimentConfig(args.subcommand)    # the field defaults
        if args.subcommand == "run":
            if config_doc is None:
                raise ValueError("run requires --config")
            results, ok = run_batch(config_doc,
                                    args.out_dir or base.out_dir,
                                    args.format or base.format,
                                    dry=args.dry_run)
            print(json.dumps({"ok": ok, "experiments": results},
                             indent=1, sort_keys=True))
            return 0 if ok else 2

        if config_doc is not None:
            base = ExperimentConfig.from_dict(config_doc)
            if base.subcommand != args.subcommand:
                raise ValueError(
                    f"config is for {base.subcommand!r}, not "
                    f"{args.subcommand!r}")
        cli_params = {
            k: v for k, v in vars(args).items()
            if k not in ("subcommand", "config", "seed", "threads",
                         "out_dir", "format", "dry_run") and v is not None
        }
        config = ExperimentConfig(
            subcommand=args.subcommand,
            parameters={**base.parameters, **cli_params},
            seed=args.seed if args.seed is not None else base.seed,
            out_dir=args.out_dir or base.out_dir,
            format=args.format or base.format)
        summary, ok, ctx = execute(config, dry=args.dry_run)
        if args.dry_run:
            print(json.dumps({"dry_run": True, "ok": True,
                              "subcommand": args.subcommand},
                             sort_keys=True))
            return 0
        print(json.dumps({"ok": ok, "summary": tables.plain(summary),
                          "tables": list(ctx.written)},
                         indent=1, sort_keys=True))
        return 0 if ok else 2
    except (ArtifactError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
