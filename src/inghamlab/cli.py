"""Command line interface: every experiment as a subcommand.

Argument parsing happens before numpy is imported so that --threads can
pin the BLAS/OpenMP pool sizes of the numeric libraries.  Exit codes:
0 success, 1 error (bad input, tolerance failures, crashes), 2 when a
subcommand's mathematical assertion fails (monotonicity broken, fit
outside its window, acceptance batch red) so CI can distinguish
scientific regressions from plumbing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

from . import DEFAULT_SEED, __version__

_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------------------
# parameter parsers: each takes a CLI string or a JSON config value
# ---------------------------------------------------------------------------

def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _floats(value) -> list:
    if isinstance(value, str):
        value = [x for x in value.split(",") if x.strip()]
    out = [float(x) for x in value]
    if not out:
        raise ValueError("expected a non-empty list")
    return out


def _int(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _ints(value) -> list:
    return [_int(x) for x in _floats(value)]


def _pairs(value) -> list:
    pts = []
    for chunk in _text(value).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        t, x = (float(v) for v in chunk.split(","))
        pts.append((t, x))
    return pts


def _points(value) -> list:
    pts = _pairs(value)
    if len(pts) != 3:
        raise ValueError("need exactly three t,x pairs")
    return pts


def _coeffs(value) -> list:
    return [complex(re, im) for re, im in _pairs(value)]


def _branch(value) -> str:
    from . import classify
    if value != "all" and value not in classify.BRANCHES:
        raise ValueError(f"unknown branch {value!r}; "
                         f"choose from {classify.BRANCHES}")
    return value


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
    from . import curves
    return curves.curve_from_dict(doc)


def _measure(doc, p):
    from . import curves
    return curves.measure_from_dict(doc)


def _gamma(doc, p):
    from . import rigidity
    return rigidity.ObservationCurveGamma(doc["kind"], doc.get("params", {}))


def _potential(doc, p):
    from . import schrodinger
    return schrodinger.PotentialSpec(doc["kind"], doc.get("params", {}))


def _state(doc, p):
    from . import schrodinger
    import numpy as np
    coeffs = np.asarray(doc["coeffs_re"], dtype=float) \
        + 1j * np.asarray(doc.get("coeffs_im", 0.0), dtype=float)
    s = float(doc.get("s", 2.0 if p["s"] is None else p["s"]))
    K = int(doc.get("K", (len(coeffs) - 1) // 2))
    return schrodinger.TorusState(coeffs, float(doc.get("time", 0.0)), s, K)


def _system(doc, p):
    from . import rigidity
    import numpy as np
    coeffs = np.asarray(doc["coefficients_re"], dtype=float) \
        + 1j * np.asarray(doc.get("coefficients_im", 0.0), dtype=float)
    return rigidity.LowFreqSystem(int(doc["N"]), float(doc["s"]),
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
    ("s", float, REQUIRED, "temporal exponent"),
    ("N", _int, 10, "indices -N..N"),
    ("T", float, None, "curve horizon (required with a curve)"),
    ("tol", float, 1e-9, "entry tolerance"),
    ("weight", _text, "lebesgue", "lebesgue or arclength (curve systems)"),
]

_PARAMS = {
    "validate-curve": [
        ("curve", CURVE, REQUIRED, "curve JSON document"),
        ("T", float, 1.0, "time horizon"),
        ("grid", _int, 256, "validation grid size"),
    ],
    "integral": [
        ("n", _int, REQUIRED, "first index"),
        ("m", _int, REQUIRED, "second index"),
        ("s", float, REQUIRED, "temporal exponent"),
        ("curve", CURVE, REQUIRED, "curve JSON document"),
        ("T", float, REQUIRED, "upper integration limit"),
        ("tol", float, 1e-9, "absolute tolerance"),
    ],
    "classify": [
        ("s", float, REQUIRED, "temporal exponent"),
        ("tau", float, None, "threshold (computed from curve when omitted)"),
        ("N", _int, 50, "grid half-width"),
        ("curve", CURVE, None, "curve used to derive tau when not given"),
        ("T", float, 1.0, "horizon used to derive tau"),
        ("out_csv", _text, None, "grid CSV path override"),
        ("out_svg", _text, None, "region SVG path override"),
    ],
    "boundary": [
        ("branch", _branch, "all", "branch name or 'all'"),
        ("samples", _int, 250, "points per branch"),
        ("lo", float, None, "parameter range start override"),
        ("hi", float, None, "parameter range end override"),
        ("out_csv", _text, None, "CSV path override"),
    ],
    "lemma21": [
        ("gamma", float, REQUIRED, "denominator exponent"),
        ("s", float, REQUIRED, "temporal exponent"),
        ("N", _int, 10000, "truncation"),
    ],
    "tails": [
        ("gamma", float, REQUIRED, "pair-distance exponent"),
        ("delta", float, REQUIRED, "frequency-gap exponent"),
        ("s", float, REQUIRED, "temporal exponent"),
        ("Ngrid", _ints, "100,316,1000,3162,10000", "comma list of N values"),
        ("mset", _ints, "0,1,7,100,1000", "comma list of m values"),
        ("horizon", _int, None, "summation horizon override"),
    ],
    "gram": _GRAM,
    "riesz": _GRAM,
    "ingham-sweep": [
        ("curve", CURVE, REQUIRED, "curve JSON document"),
        ("s", float, REQUIRED, "temporal exponent"),
        ("N", _int, 20, "indices -N..N"),
        ("Tgrid", _floats, "0.25,0.5,1,2,4,8", "comma list of horizons"),
        ("tol", float, 1e-8, "Gram entry tolerance"),
    ],
    "minimal-time": [
        ("curve", CURVE, REQUIRED, "curve JSON document"),
        ("s", float, REQUIRED, "temporal exponent"),
        ("jgrid", _ints, "2,5,10,50,200", "comma list of mode indices"),
    ],
    "highfreq": [
        ("measure", MEASURE, REQUIRED, "measure JSON document"),
        ("s", float, None, "temporal exponent (required without --sgrid)"),
        ("Ngrid", _ints, "25,50,100,200",
         "comma list of window base frequencies"),
        ("window", _int, None, "window width (default 30; 10 with --sgrid)"),
        ("nodes_per_cycle", float, 16.0, "quadrature density"),
        ("sgrid", _floats, None,
         "run the dispersion sweep over these s instead"),
        ("N", _int, None, "window base frequency with --sgrid (default 2)"),
    ],
    "sharpness": [
        ("delta", float, 0.5, "decay exponent"),
        ("s", float, 1.5, "temporal exponent"),
        ("Ngrid", _ints, "32,64,128,256,512,1024", "comma list of N values"),
    ],
    "merged": [
        ("curve", CURVE, REQUIRED, "curve JSON document"),
        ("T", float, 1.0, "horizon"),
        ("sgrid", _floats, "1.6,2,2.5,3", "comma list of s values"),
        ("N", _int, 20, "indices -N..N"),
        ("tol", float, 1e-8, "Gram entry tolerance"),
    ],
    "wronskian": [
        ("gamma_curve", GAMMA, REQUIRED,
         "observation curve JSON {kind, params}"),
        ("samples", _int, 100, "sample count"),
        ("xmin", float, 0.05, "sample range start"),
        ("xmax", float, 2.0, "sample range end"),
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
        ("T", float, 1.0, "probe interval length"),
        ("grid", _int, 2048, "probe grid size"),
    ],
    "schrodinger": [
        ("u0", _Document("u0_file", _state), None,
         "initial state JSON (evolve mode)"),
        ("potential", _Document("V_file", _potential),
         {"kind": "Zero", "params": {}}, "potential JSON {kind, params}"),
        ("s", float, None, "dispersion exponent"),
        ("curve", CURVE, None, "curve JSON document"),
        ("T", float, REQUIRED, "final time"),
        ("dt", float, None, "time step override"),
        ("trials", _int, 8, "trace-ratio trial count (trial mode)"),
        ("K", _int, 8, "mode cutoff for trial mode"),
        ("out_csv", _text, None, "CSV path override"),
    ],
}


# Keys that one mode of a subcommand needs: (the key whose absence
# selects that mode, the keys it then needs).  Checked in _resolve, so a
# dry run checks them as well.
_MODE_NEEDS = {
    "gram": ("measure", ("curve", "T")),
    "riesz": ("measure", ("curve", "T")),
    "classify": ("tau", ("curve",)),
    "highfreq": ("sgrid", ("s",)),
    "schrodinger": ("u0", ("s", "curve")),
}


def _resolve(subcommand: str, given: dict) -> dict:
    """The typed parameters of one experiment, with documents loaded.
    Unknown keys, values the parser rejects and missing required values
    raise ValueError naming the key."""
    rows = _PARAMS[subcommand]
    known = {key for key, *_ in rows} | {
        kind.file for _, kind, *_ in rows if isinstance(kind, _Document)}
    unknown = sorted(set(given) - known)
    if unknown:
        raise ValueError(f"unknown parameter(s) for {subcommand}: "
                         f"{', '.join(unknown)}")
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
    mode, needs = _MODE_NEEDS.get(subcommand, (None, ()))
    if params.get(mode) is None:
        for key in needs:
            if params[key] is None:
                raise ValueError(f"missing required parameter '{key}'")
    return params


@dataclass
class ExperimentConfig:
    """One experiment: subcommand plus its parameter map.  Round-trips
    losslessly through JSON."""

    subcommand: str
    parameters: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    out_dir: str = "results"
    format: str = "csv"

    def __post_init__(self):
        self.parameters = dict(self.parameters)
        self.seed = int(self.seed)

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "parameters": self.parameters,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "format": self.format,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

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

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

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

    def provenance(self):
        from . import tables
        stamp = datetime.now(timezone.utc).isoformat()
        return tables.Provenance(__version__, self.config_hash, stamp)

    def table(self, name, columns, rows, meta=None):
        from . import tables
        return tables.ResultTable(name, columns, rows, self.provenance(),
                                  dict(meta or {}))

    def write(self, table, path: str | None = None) -> str:
        from . import tables
        os.makedirs(self.out_dir, exist_ok=True)
        if path is None:
            path = os.path.join(self.out_dir, f"{table.name}.{self.fmt}")
        if path.endswith(".json"):
            out = tables.write_json(table, path)
        else:
            out = tables.write_csv(table, path)
        self.written.append(out)
        return out

    def write_plot(self, table, kind, stem, **kwargs) -> list:
        from . import tables
        os.makedirs(self.out_dir, exist_ok=True)
        paths = tables.emit_plot_data(table, kind,
                                      os.path.join(self.out_dir, stem),
                                      **kwargs)
        self.written.extend(paths)
        return paths


def _py(obj):
    """Recursively convert numpy scalars/arrays to plain Python."""
    import numpy as np
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


# ---------------------------------------------------------------------------
# runners: each takes the resolved parameters and returns (summary, ok)
# ---------------------------------------------------------------------------

def run_validate_curve(p, ctx):
    import numpy as np
    from . import curves
    curve, T = p["curve"], p["T"]
    rep = curves.validate_H_alpha(curve, T, p["grid"])
    rows = [("passed", rep.passed),
            ("alpha", curve.alpha), ("c1", curve.c1), ("c2", curve.c2),
            ("c3", curve.c3),
            ("lower_ratio_min", rep.lower_ratio_min),
            ("upper_ratio_max", rep.upper_ratio_max),
            ("curvature_ratio_min", rep.curvature_ratio_min),
            ("sign_constant", rep.sign_constant)]
    ctx.write(ctx.table("curve_validation", ("field", "value"), rows))
    ts = np.linspace(T * 1e-3, T, 256)
    ps = curve.p(ts) - curve.p(np.zeros(1))[0]
    lower = curve.c1 / curve.alpha * ts ** curve.alpha
    upper = curve.c2 / curve.alpha * ts ** curve.alpha
    profile = ctx.table(
        "curve_profile", ("t", "p_shifted", "lower", "upper"),
        list(zip(ts.tolist(), ps.tolist(), lower.tolist(), upper.tolist())))
    ctx.write(profile)
    ctx.write_plot(profile, "curve", "curve_profile",
                   ys=["p_shifted", "lower", "upper"])
    return {"passed": rep.passed, "failures": list(rep.failures)}, rep.passed


def run_integral(p, ctx):
    from . import oscint
    n, m, s, T = p["n"], p["m"], p["s"], p["T"]
    r = oscint.oscillatory_integral(n, m, s, p["curve"], T, tol=p["tol"])
    summary = {
        "value_re": r.value.real, "value_im": r.value.imag,
        "modulus": abs(r.value), "abs_error_estimate": r.abs_error_estimate,
        "panels": r.panels, "stationary_points": list(r.stationary_points),
    }
    ctx.write(ctx.table(
        "integral",
        ("n", "m", "s", "T", "value_re", "value_im", "modulus",
         "abs_error_estimate", "panels"),
        [(n, m, s, T, r.value.real, r.value.imag, abs(r.value),
          r.abs_error_estimate, r.panels)]))
    return summary, True


def run_classify(p, ctx):
    from . import classify
    s, tau = p["s"], p["tau"]
    if tau is None:
        tau = float(classify.tau_threshold(p["curve"], p["T"]))
    grid = classify.region_grid(s, tau, p["N"])
    table = ctx.table("region_grid", ("n", "m", "tag", "ratio"),
                      list(grid.rows()),
                      meta={"s": s, "tau": tau,
                            **{f"count_{k}": int(v)
                               for k, v in sorted(grid.counts.items())}})
    ctx.write(table, p["out_csv"])
    svg = p["out_svg"]
    if svg is not None:
        os.makedirs(ctx.out_dir, exist_ok=True)
        from . import tables as _tables
        ctx.written.extend(_tables.emit_plot_data(
            table, "region-svg", svg[:-4] if svg.endswith(".svg") else svg))
    else:
        ctx.write_plot(table, "region-svg", "region_grid")
    return {"tau": tau, "counts": _py(grid.counts)}, True


def run_boundary(p, ctx):
    from . import classify
    branch = p["branch"]
    branches = classify.BRANCHES if branch == "all" else (branch,)
    rows, max_res = [], 0.0
    for b in branches:
        pts = classify.boundary_samples(b, p["samples"], p["lo"], p["hi"])
        for pt in pts:
            res = abs(pt.residual())
            max_res = max(max_res, res)
            rows.append((pt.branch, float(pt.parameter),
                         float(pt.point[0]), float(pt.point[1]), res))
    table = ctx.table("boundary", ("branch", "parameter", "x", "y",
                                   "residual"), rows,
                      meta={"max_residual": max_res})
    ctx.write(table, p["out_csv"])
    return {"max_residual": max_res, "points": len(rows)}, True


def run_lemma21(p, ctx):
    from . import sums
    gamma, s, N = p["gamma"], p["s"], p["N"]
    checkpoints = [n for n in (10, 31, 100, 316, 1000, 3162, 10000, 31623)
                   if n < N]
    scan = sums.sup_M(gamma, s, N, checkpoints=checkpoints)
    rows = [(int(n), float(v)) for n, v in scan.checkpoints]
    rows.append((N, scan.sup_value))
    meta = {"gamma": gamma, "s": s, "sup": scan.sup_value,
            "argmax_n": scan.argmax[0], "argmax_m": scan.argmax[1]}
    if scan.growth_fit is not None:
        meta["growth_fit"] = scan.growth_fit
    table = ctx.table("sup_scan", ("N", "sup"), rows, meta=meta)
    ctx.write(table)
    ctx.write_plot(table, "loglog-fit", "sup_scan")
    summary = {"sup": scan.sup_value, "argmax": list(scan.argmax),
               "growth_fit": scan.growth_fit}
    wit = sums.inf_witness(gamma, s, N)
    ctx.write(ctx.table("inf_witness", ("m", "ratio"),
                        [(int(m), float(r))
                         for m, r in zip(wit.ms, wit.ratios)],
                        meta={"family": wit.family,
                              "contracted": wit.contracted}))
    summary["witness_family"] = wit.family
    summary["witness_contracted"] = wit.contracted
    return summary, True


def run_tails(p, ctx):
    from . import sums
    fit = sums.tail_decay_fit(p["gamma"], p["delta"], p["s"], p["Ngrid"],
                              m_set=p["mset"], horizon=p["horizon"])
    rows = []
    for i, m in enumerate(fit.m_set):
        for j, N in enumerate(fit.N_grid):
            rows.append((int(N), int(m), float(fit.values[i, j])))
    ctx.write(ctx.table("tail_sums", ("N", "m", "S_m_N"), rows))
    fit_table = ctx.table(
        "tail_fit", ("N", "max_S"),
        [(int(N), float(v)) for N, v in zip(fit.N_grid, fit.max_per_N)],
        meta={"slope": fit.slope, "sigma_expected": fit.sigma_expected,
              "passes": fit.passes, "N0_empirical": fit.N0_empirical})
    ctx.write(fit_table)
    ctx.write_plot(fit_table, "loglog-fit", "tail_fit")
    summary = {"slope": fit.slope, "sigma_expected": fit.sigma_expected,
               "passes": fit.passes, "N0_empirical": fit.N0_empirical}
    return summary, bool(fit.passes)


def _gram(p):
    from . import riesz
    indices = range(-p["N"], p["N"] + 1)
    if p["measure"] is not None:
        system = riesz.measure_system(indices, p["s"], p["measure"])
    else:
        system = riesz.curve_system(indices, p["s"], p["curve"], p["T"],
                                    weight=p["weight"])
    return riesz.gram_matrix(system, tol=p["tol"])


def run_gram(p, ctx):
    from . import riesz
    G = _gram(p)
    os.makedirs(ctx.out_dir, exist_ok=True)
    path = os.path.join(ctx.out_dir, "gram.json")
    with open(path, "w", newline="\n") as fh:
        json.dump(riesz.gram_to_dict(G), fh, indent=1, sort_keys=True)
        fh.write("\n")
    ctx.written.append(path)
    rows = []
    for i, n in enumerate(G.indices):
        for j, m in enumerate(G.indices):
            rows.append((int(n), int(m), float(G.entries[i, j].real),
                         float(G.entries[i, j].imag)))
    ctx.write(ctx.table("gram_entries", ("n", "m", "re", "im"), rows,
                        meta={"dim": G.dim, "T_or_mass": G.T_or_mass}))
    return {"dim": G.dim, "gram_json": path}, True


def run_riesz(p, ctx):
    from . import riesz
    G = _gram(p)
    rep = riesz.riesz_bounds(G, seed=ctx.seed)
    ctx.write(ctx.table(
        "riesz_report",
        ("lambda_min", "lambda_max", "dim", "random_vector_checks"),
        [(rep.lambda_min, rep.lambda_max, G.dim, rep.random_vector_checks)]))
    summary = {"lambda_min": rep.lambda_min, "lambda_max": rep.lambda_max,
               "normalized": list(rep.normalized), "dim": G.dim}
    return summary, True


def run_ingham_sweep(p, ctx):
    from . import riesz
    s, N = p["s"], p["N"]
    res = riesz.ingham_sweep(p["curve"], s, N, p["Tgrid"], tol=p["tol"])
    rows = [(float(T), float(lo), float(hi), float(lo / T))
            for T, lo, hi in zip(res.T_grid, res.lambda_min, res.lambda_max)]
    table = ctx.table("ingham_sweep",
                      ("T", "lambda_min", "lambda_max", "ratio"), rows,
                      meta={"s": s, "N": N, "monotone": res.monotone,
                            "empirical_T": res.empirical_T})
    ctx.write(table)
    ctx.write_plot(table, "xy", "ingham_sweep", x="T", y="lambda_min")
    summary = {"monotone": res.monotone, "empirical_T": res.empirical_T,
               "lambda_min_final": res.lambda_min[-1]}
    return summary, bool(res.monotone)


def run_minimal_time(p, ctx):
    from . import riesz
    s = p["s"]
    res = riesz.minimal_time_counterexample(p["curve"], s, p["jgrid"])
    rows = [(int(j), float(T), float(r))
            for j, T, r in zip(res.j_grid, res.T_values, res.ratios)]
    ctx.write(ctx.table("minimal_time", ("j", "T_j", "ratio"), rows,
                        meta={"s": s, "eps": res.eps,
                              "decreasing": res.decreasing,
                              "c_norm_sq": res.c_norm_sq}))
    summary = {"eps": res.eps, "decreasing": res.decreasing,
               "first_ratio": res.ratios[0], "last_ratio": res.ratios[-1]}
    return summary, bool(res.decreasing)


def run_highfreq(p, ctx):
    from . import riesz
    measure = p["measure"]
    # Sizes left unset take the library's defaults, which differ by mode;
    # N sizes only the dispersion sweep.
    sizes = {key: p[key] for key in ("N", "window") if p[key] is not None}
    if p["sgrid"] is not None:
        res = riesz.highfreq_dispersion_sweep(
            measure, p["sgrid"], nodes_per_cycle=p["nodes_per_cycle"],
            **sizes)
        rows = [(float(s), float(lo), float(hi))
                for s, lo, hi in zip(res.s_grid, res.lambda_min,
                                     res.lambda_max)]
        ctx.write(ctx.table("dispersion_sweep",
                            ("s", "lambda_min", "lambda_max"), rows,
                            meta={"N": res.N, "window": res.window,
                                  "eta_hat": res.eta_hat,
                                  "lo_target": res.lo_target,
                                  "hi_target": res.hi_target}))
        summary = {"eta_hat": res.eta_hat, "lo_target": res.lo_target,
                   "hi_target": res.hi_target}
        return summary, True
    s = p["s"]
    sizes.pop("N", None)
    res = riesz.highfreq_bounds(measure, s, p["Ngrid"],
                                nodes_per_cycle=p["nodes_per_cycle"], **sizes)
    rows = [(int(N), float(lo), float(hi))
            for N, lo, hi in zip(res.N_grid, res.lambda_min, res.lambda_max)]
    table = ctx.table("highfreq_bounds",
                      ("N", "lambda_min", "lambda_max"), rows,
                      meta={"s": s, "window": res.window,
                            "N_star": -1 if res.N_star is None
                            else res.N_star,
                            "delta_hat": res.delta_hat,
                            "eta_hat": res.eta_hat})
    ctx.write(table)
    ctx.write_plot(table, "xy", "highfreq_bounds", x="N", y="lambda_min")
    summary = {"N_star": res.N_star, "delta_hat": res.delta_hat,
               "eta_hat": res.eta_hat}
    return summary, res.N_star is not None


def run_sharpness(p, ctx):
    from . import riesz
    delta, s = p["delta"], p["s"]
    res = riesz.sharpness_sum(delta, s, p["Ngrid"])
    rows = [(int(N), float(v)) for N, v in zip(res.N_grid, res.values)]
    table = ctx.table("sharpness_sum", ("N", "S_N"), rows,
                      meta={"delta": delta, "s": s, "slope": res.slope,
                            "expected_slope": res.expected_slope,
                            "passes": res.passes,
                            "exceeds_diagonal": res.exceeds_diagonal})
    ctx.write(table)
    ctx.write_plot(table, "loglog-fit", "sharpness_sum")
    summary = {"slope": res.slope, "expected_slope": res.expected_slope,
               "passes": res.passes,
               "exceeds_diagonal": res.exceeds_diagonal}
    return summary, bool(res.passes)


def run_merged(p, ctx):
    from . import riesz
    T, N = p["T"], p["N"]
    res = riesz.merged_bound_experiment(p["curve"], T, p["sgrid"], N=N,
                                        tol=p["tol"])
    rows = [(float(s), float(lo), float(c), float(pb))
            for s, lo, c, pb in zip(res.s_grid, res.lambda_min, res.coupling,
                                    res.product_bound_max)]
    ctx.write(ctx.table("merged_bound",
                        ("s", "lambda_min", "coupling", "product_bound_max"),
                        rows,
                        meta={"T": T, "N": N,
                              "coupling_decreasing":
                              res.coupling_decreasing}))
    summary = {"coupling_decreasing": res.coupling_decreasing,
               "coupling": [float(c) for c in res.coupling]}
    return summary, bool(res.coupling_decreasing)


def run_wronskian(p, ctx):
    import numpy as np
    from . import rigidity
    gamma = p["gamma_curve"]
    xs = np.linspace(p["xmin"], p["xmax"], p["samples"])
    w = rigidity.wronskian_n1(gamma, xs)
    rep = rigidity.n1_vanishing_classifier(gamma, xs)
    rows = [(float(x), float(z.real), float(z.imag), float(abs(z)))
            for x, z in zip(xs, w)]
    ctx.write(ctx.table("wronskian", ("x", "re", "im", "abs"), rows,
                        meta={"case": rep.case}))
    witness = [{"re": z.real, "im": z.imag} for z in rep.witness] \
        if rep.witness is not None else None
    summary = {"case": rep.case, "relation": rep.relation,
               "witness": witness, "detail": rep.detail}
    return summary, True


def run_threepoint(p, ctx):
    from . import rigidity
    from .errors import InadmissiblePoints
    try:
        rep = rigidity.three_point_test(p["points"], p["coeffs"])
    except InadmissiblePoints as exc:
        ctx.write(ctx.table("threepoint", ("field", "value"),
                            [("admissible", False), ("detail", str(exc))]))
        return {"admissible": False, "detail": str(exc)}, False
    rows = [("admissible", rep.admissible), ("rank", rep.rank)]
    for i, sv in enumerate(rep.singular_values):
        rows.append((f"sigma_{i + 1}", float(sv)))
    if rep.residual is not None:
        rows.append(("residual", rep.residual))
    ctx.write(ctx.table("threepoint", ("field", "value"), rows))
    summary = {"admissible": rep.admissible, "rank": rep.rank,
               "singular_values": [float(v) for v in rep.singular_values],
               "residual": rep.residual}
    return summary, bool(rep.admissible and rep.rank == 3)


def run_zeroprobe(p, ctx):
    from . import rigidity
    rep = rigidity.zero_set_probe(p["system"], p["gamma_curve"], p["T"],
                                  grid=p["grid"])
    rows = [(float(t),) for t in rep.zeros]
    ctx.write(ctx.table("zero_probe", ("t",), rows,
                        meta={"verdict": rep.verdict, "max_abs": rep.max_abs,
                              "coeff_norm": rep.coeff_norm}))
    summary = {"verdict": rep.verdict, "zeros": len(rows),
               "max_abs": rep.max_abs}
    return summary, rep.verdict != "SuspectedIdenticallyZero"


def run_schrodinger(p, ctx):
    from . import schrodinger
    V, T, u0 = p["potential"], p["T"], p["u0"]
    if u0 is not None:
        uT, diag = schrodinger.evolve(u0, V, T, dt=p["dt"])
        rows = [(int(n), float(c.real), float(c.imag), float(abs(c) ** 2))
                for n, c in zip(uT.modes, uT.coeffs)]
        table = ctx.table("evolution", ("n", "re", "im", "mass"), rows,
                          meta={"steps": diag.steps, "dt": diag.dt,
                                "norm_drift": diag.norm_drift,
                                "top_band_fraction":
                                diag.top_band_fraction})
        ctx.write(table, p["out_csv"])
        os.makedirs(ctx.out_dir, exist_ok=True)
        path = os.path.join(ctx.out_dir, "state.json")
        with open(path, "w", newline="\n") as fh:
            json.dump({"K": uT.K, "s": uT.s, "time": uT.time,
                       "coeffs_re": uT.coeffs.real.tolist(),
                       "coeffs_im": uT.coeffs.imag.tolist()},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        ctx.written.append(path)
        summary = {"steps": diag.steps, "norm_drift": diag.norm_drift,
                   "state_json": path}
        if p["curve"] is not None:
            summary["trace"] = schrodinger.evolve_trace(u0, V, p["curve"], T,
                                                        dt=p["dt"])
        return summary, True
    s = p["s"]
    res = schrodinger.trace_bound_experiment(p["curve"], s, V, T,
                                             K=p["K"], n_random=p["trials"],
                                             seed=ctx.seed)
    rows = [(name, float(r))
            for name, r in zip(res.trial_names, res.ratios)]
    table = ctx.table("trace_ratios", ("trial", "ratio"), rows,
                      meta={"T": T, "s": s, "V_sup": res.V_sup,
                            "max_ratio": res.max_ratio,
                            "min_ratio": res.min_ratio})
    ctx.write(table, p["out_csv"])
    summary = {"max_ratio": res.max_ratio, "min_ratio": res.min_ratio,
               "trials": len(rows)}
    return summary, True


_RUNNERS = {
    "validate-curve": run_validate_curve,
    "integral": run_integral,
    "classify": run_classify,
    "boundary": run_boundary,
    "lemma21": run_lemma21,
    "tails": run_tails,
    "gram": run_gram,
    "riesz": run_riesz,
    "ingham-sweep": run_ingham_sweep,
    "minimal-time": run_minimal_time,
    "highfreq": run_highfreq,
    "sharpness": run_sharpness,
    "merged": run_merged,
    "wronskian": run_wronskian,
    "threepoint": run_threepoint,
    "zeroprobe": run_zeroprobe,
    "schrodinger": run_schrodinger,
}


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
                        "summary": _py(summary),
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
    common.add_argument("--format", choices=("csv", "json"),
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
                           type={_int: int, float: float}.get(kind, str),
                           help=help_text + _shown(default))
    sub.add_parser("run", parents=[common])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    from .errors import ArtifactError
    try:
        config_doc = None
        if args.config is not None:
            config_doc = _load_json(args.config)

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
        print(json.dumps({"ok": ok, "summary": _py(summary),
                          "tables": list(ctx.written)},
                         indent=1, sort_keys=True))
        return 0 if ok else 2
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
