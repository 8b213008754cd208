"""End-to-end tests of the command line interface: config round trips,
hashing, exit codes, output artifacts, and run determinism."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from _oracles import curve_to_dict
from inghamlab import riesz
from inghamlab.cli import (_PARAMS, _RUNNERS, DEFAULT_SEED, ExperimentConfig,
                           build_parser, main, run_batch)
from inghamlab.curves import build_curve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def mono2_file(tmp_path):
    doc = curve_to_dict(build_curve("Monomial",
                                    {"a": 0.0, "b": 1.0, "alpha": 2.0}))
    path = tmp_path / "mono2.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _out(capsys):
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_config_round_trips_through_json():
    cfg = ExperimentConfig("classify", {"s": 2.0, "tau": 8.0, "N": 4},
                           seed=123, out_dir="elsewhere", format="json")
    doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert ExperimentConfig.from_dict(doc) == cfg


def test_config_rejects_unknown_and_missing_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({"subcommand": "classify", "extra": 1})
    with pytest.raises(ValueError, match="subcommand"):
        ExperimentConfig.from_dict({"parameters": {}})
    with pytest.raises(ValueError, match="parameters"):
        ExperimentConfig.from_dict({"subcommand": "gram", "parameters": [3]})


def test_config_defaults():
    cfg = ExperimentConfig.from_dict({"subcommand": "boundary"})
    assert cfg.seed == DEFAULT_SEED
    assert cfg.out_dir == "results"
    assert cfg.format == "csv"


def test_config_hash_ignores_destination_but_not_inputs():
    base = ExperimentConfig("classify", {"s": 2.0, "N": 4})
    moved = ExperimentConfig("classify", {"s": 2.0, "N": 4},
                             out_dir="other", format="json")
    assert base.config_hash() == moved.config_hash()
    assert base.config_hash() != ExperimentConfig(
        "classify", {"s": 2.5, "N": 4}).config_hash()
    assert base.config_hash() != ExperimentConfig(
        "classify", {"s": 2.0, "N": 4}, seed=1).config_hash()


def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# single subcommands
# ---------------------------------------------------------------------------

def test_boundary_subcommand_writes_table(tmp_path, capsys):
    out = str(tmp_path / "res")
    assert main(["boundary", "--samples", "40", "--out-dir", out]) == 0
    doc = _out(capsys)
    assert doc["ok"] is True
    assert doc["summary"]["max_residual"] <= 1e-9
    assert os.path.exists(os.path.join(out, "boundary.csv"))


def test_threepoint_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "res")
    code = main(["threepoint", "--points", "0,0.3;1,1.1;2.2,2.9",
                 "--out-dir", out])
    assert code == 0
    assert _out(capsys)["summary"]["rank"] == 3
    # x_j in a pi-progression: mathematically inadmissible, exit 2
    bad = f"0,0.2;1,{0.2 + np.pi};2,{0.2 + 2 * np.pi}"
    code = main(["threepoint", "--points", bad, "--out-dir", out])
    assert code == 2
    assert _out(capsys)["summary"]["admissible"] is False


def test_classify_writes_grid_and_svg(tmp_path, capsys):
    out = str(tmp_path / "res")
    code = main(["classify", "--s", "2", "--tau", "8", "--N", "4",
                 "--out-dir", out])
    assert code == 0
    doc = _out(capsys)
    assert doc["summary"]["counts"]["Diagonal"] == 9
    assert os.path.exists(os.path.join(out, "region_grid.csv"))
    assert os.path.exists(os.path.join(out, "region_grid.svg"))


def test_classify_runs_are_deterministic(tmp_path, capsys):
    args = ["classify", "--s", "2", "--tau", "8", "--N", "4"]
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(args + ["--out-dir", out1]) == 0
    assert main(args + ["--out-dir", out2]) == 0
    capsys.readouterr()

    def strip(path):
        return [ln for ln in open(path).read().splitlines()
                if not ln.startswith("# generated")]

    assert strip(os.path.join(out1, "region_grid.csv")) \
        == strip(os.path.join(out2, "region_grid.csv"))
    assert open(os.path.join(out1, "region_grid.svg")).read() \
        == open(os.path.join(out2, "region_grid.svg")).read()


def test_integral_subcommand(mono2_file, tmp_path, capsys):
    out = str(tmp_path / "res")
    code = main(["integral", "--n", "3", "--m", "-2", "--s", "2",
                 "--curve-file", mono2_file, "--T", "1", "--out-dir", out])
    assert code == 0
    doc = _out(capsys)
    assert doc["summary"]["modulus"] > 0
    assert doc["summary"]["abs_error_estimate"] <= 1e-9


def test_validate_curve_flags_flat_curve(tmp_path, capsys):
    flat = curve_to_dict(build_curve("Affine", {"slope": 1.0,
                                                "intercept": 0.0}))
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(flat))
    out = str(tmp_path / "res")
    code = main(["validate-curve", "--curve-file", str(path),
                 "--out-dir", out])
    assert code == 2  # admissibility fails on curvature: scientific red
    assert _out(capsys)["summary"]["passed"] is False


def test_zeroprobe_end_to_end(tmp_path, capsys):
    system = {"N": 1, "s": 2.0, "lambdas": [-1.0, 0.0, 1.0],
              "coefficients_re": [0.0, 1.0, 1.0]}
    gamma = {"kind": "Horizontal", "params": {"x0": 0.25}}
    sys_path = tmp_path / "system.json"
    gam_path = tmp_path / "gamma.json"
    sys_path.write_text(json.dumps(system))
    gam_path.write_text(json.dumps(gamma))
    out = str(tmp_path / "res")
    code = main(["zeroprobe", "--system-file", str(sys_path),
                 "--gamma-file", str(gam_path), "--T", "3",
                 "--out-dir", out])
    assert code == 0
    doc = _out(capsys)
    assert doc["summary"]["verdict"] == "IsolatedZerosOnly"
    assert doc["summary"]["zeros"] == 3


def test_schrodinger_evolve_mode(mono2_file, tmp_path, capsys):
    u0 = {"K": 4, "s": 2.0, "coeffs_re": [0, 0, 1, 0, 1, 0, 1, 0, 0]}
    u0_path = tmp_path / "u0.json"
    u0_path.write_text(json.dumps(u0))
    out = str(tmp_path / "res")
    code = main(["schrodinger", "--u0-file", str(u0_path), "--T", "0.2",
                 "--out-dir", out])
    assert code == 0
    doc = _out(capsys)
    assert doc["summary"]["norm_drift"] <= 1e-10
    assert os.path.exists(os.path.join(out, "evolution.csv"))
    # written like a JSON table: sorted keys, indent 1, final newline
    text = open(os.path.join(out, "state.json")).read()
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


def test_dry_run_validates_without_writing(tmp_path, capsys):
    out = str(tmp_path / "res")
    code = main(["classify", "--s", "2", "--tau", "8", "--N", "4",
                 "--out-dir", out, "--dry-run"])
    assert code == 0
    assert _out(capsys)["dry_run"] is True
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# config files and batches
# ---------------------------------------------------------------------------

def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = {"subcommand": "classify",
           "parameters": {"s": 2.0, "tau": 8.0, "N": 3}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "res")
    code = main(["classify", "--config", str(cfg_path), "--N", "4",
                 "--out-dir", out])
    assert code == 0
    assert _out(capsys)["summary"]["counts"]["Diagonal"] == 9  # N = 4 wins


def test_error_exit_codes(tmp_path, capsys):
    assert main(["integral", "--n", "3", "--m", "2", "--s", "2",
                 "--T", "1"]) == 1          # missing curve
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"subcommand": "classify", "junk": 1}))
    assert main(["classify", "--config", str(cfg_path)]) == 1
    cfg_path.write_text(json.dumps({"subcommand": "boundary"}))
    assert main(["classify", "--config", str(cfg_path)]) == 1  # mismatch
    assert main(["run"]) == 1               # run requires --config
    capsys.readouterr()


def test_batch_run(tmp_path, capsys):
    batch = {"experiments": [
        {"subcommand": "threepoint",
         "parameters": {"points": "0,0.3;1,1.1;2.2,2.9"}},
        {"subcommand": "boundary", "parameters": {"samples": 25}},
    ]}
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps(batch))
    out = str(tmp_path / "res")
    code = main(["run", "--config", str(cfg_path), "--out-dir", out])
    assert code == 0
    doc = _out(capsys)
    assert doc["ok"] is True
    assert [e["subcommand"] for e in doc["experiments"]] \
        == ["threepoint", "boundary"]
    assert os.path.isdir(os.path.join(out, "00_threepoint"))
    assert os.path.isdir(os.path.join(out, "01_boundary"))


def test_batch_document_guard(tmp_path):
    with pytest.raises(ValueError, match="experiments"):
        run_batch({"runs": []}, str(tmp_path), "csv")
    typo = {"experiments": [{"subcommand": "boundary",
                             "parameters": {"sampels": 10}}]}
    with pytest.raises(ValueError, match="sampels"):
        run_batch(typo, str(tmp_path), "csv")


# config_hash() of each experiments/acceptance.json entry, in order.  The
# hash labels every table a run writes, so a change to the config schema
# or to the hashing must not move it.
_ACCEPTANCE_HASHES = [
    "20cf2fc90c8d3226", "671ad6e45517350c", "c7e2178cda00c340",
    "b1611bd73ce13942", "5b45fceb10aa79f7", "ab010db79bccf3fa",
    "ae3d1118439daadf", "fb1827a8907a388f", "26599fdb3145e59f",
    "ebbc16accf149e15", "80d41eb92495d7ef", "82e3a55492dfda09",
    "665630bad9e1cbd8", "bf1a6664296ac308", "6a1ffd8c1acc5db9",
    "b5c9142808b6ce83", "a767e88f0ef7c2a8",
]


def test_acceptance_config_hashes_are_pinned():
    with open(os.path.join(ROOT, "experiments", "acceptance.json")) as fh:
        doc = json.load(fh)
    assert [ExperimentConfig.from_dict(entry).config_hash()
            for entry in doc["experiments"]] == _ACCEPTANCE_HASHES


def test_acceptance_batch_dry_run_accepts_every_key(tmp_path, capsys):
    out = str(tmp_path / "res")
    code = main(["run", "--config",
                 os.path.join(ROOT, "experiments", "acceptance.json"),
                 "--out-dir", out, "--dry-run"])
    assert code == 0
    doc = _out(capsys)
    assert len(doc["experiments"]) == 17
    assert all(e["tables"] == [] for e in doc["experiments"])
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# the parameter tables: explicit values, unknown keys, docs
# ---------------------------------------------------------------------------

@pytest.fixture
def docs(tmp_path, mono2_file):
    files = {"mono2": mono2_file}
    for name, doc in {
        "parabola": {"kind": "Polynomial", "params": {"coeffs": [0, 0, 1]}},
        "flat_no_x0": {"kind": "Horizontal", "params": {}},
        "cosine_no_amplitude": {"kind": "Cosine", "params": {"mode": 3}},
        "u0": {"K": 4, "s": 2.0, "coeffs_re": [0, 0, 1, 0, 1, 0, 1, 0, 0]},
        "quarter": {"kind": "ArcLengthOnCircle",
                    "params": {"radius": 1.0, "theta0": 0.0,
                               "theta1": float(np.pi / 2)},
                    "resolution": 1024},
        "tgird": {"subcommand": "ingham-sweep",
                  "parameters": {"curve_file": mono2_file, "s": 2.0, "N": 2,
                                 "Tgird": "1,2"}},
        "listN": {"subcommand": "gram",
                  "parameters": {"curve_file": mono2_file, "s": 2.0,
                                 "N": [3], "T": 1.0}},
        "halfN": {"subcommand": "gram",
                  "parameters": {"curve_file": mono2_file, "s": 2.0,
                                 "N": 2.5, "T": 1.0}},
        "highfreqN": {"subcommand": "highfreq",
                      "parameters": {"measure_file": str(tmp_path /
                                                         "quarter.json"),
                                     "s": 2.5, "N": 5}},
        "trueN": {"subcommand": "gram",
                  "parameters": {"curve_file": mono2_file, "s": 2.0,
                                 "N": True, "T": 1.0}},
        "trueS": {"subcommand": "gram",
                  "parameters": {"curve_file": mono2_file, "s": True,
                                 "N": 1, "T": 1.0}},
        "xmlFormat": {"subcommand": "boundary", "format": "xml"},
        "nanTgrid": {"subcommand": "ingham-sweep",
                     "parameters": {"curve_file": mono2_file, "s": 2.0,
                                    "Tgrid": [1.0, "nan"]}},
        "seedHalf": {"subcommand": "boundary", "seed": 1.5},
        "seedTrue": {"subcommand": "boundary", "seed": True},
        "seedNull": {"subcommand": "boundary", "seed": None},
        "seedList": {"subcommand": "boundary", "seed": [3]},
        "outDir5": {"subcommand": "boundary", "out_dir": 5},
        "negativeJ": {"subcommand": "minimal-time",
                      "parameters": {"curve_file": mono2_file, "s": 2.0,
                                     "jgrid": [-3, 2, 5]}},
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = str(path)
    return files


def _table(out, name):
    with open(os.path.join(out, f"{name}.json")) as fh:
        return json.load(fh)


# (argv, exit code, check): a check is a predicate on (summary, out dir,
# keyword arguments of each dispersion sweep) for exit 0, and the text
# the error message must name for exit 1.
_EXPLICIT_CASES = {
    "gram-N0": (["gram", "--curve-file", "{mono2}", "--s", "2", "--N", "0",
                 "--T", "1"], 0, lambda doc, out, sweeps: doc["dim"] == 1),
    "wronskian-xmin0": (["wronskian", "--gamma-file", "{parabola}",
                         "--xmin", "0", "--samples", "5"], 0,
                        lambda doc, out, sweeps:
                        _table(out, "wronskian")["rows"][0][0] == 0.0),
    "boundary-samples0": (["boundary", "--samples", "0"], 0,
                          lambda doc, out, sweeps: doc["points"] == 0),
    "integral-tol0": (["integral", "--n", "3", "--m", "-2", "--s", "2",
                       "--curve-file", "{mono2}", "--T", "1", "--tol", "0"],
                      1, "tol"),
    "validate-curve-T0": (["validate-curve", "--curve-file", "{mono2}",
                           "--T", "0"], 1, "T must"),
    "schrodinger-dt0": (["schrodinger", "--u0-file", "{u0}", "--T", "0.2",
                         "--dt", "0"], 1, "dt"),
    "schrodinger-trace-dt-above-cap": (["schrodinger", "--u0-file", "{u0}",
                                        "--curve-file", "{mono2}", "--T", "0.2",
                                        "--dt", "0.009"], 1,
                                       "dt must be at most min(0.01/(1+|V|), "
                                       "1/(48*omega)) = 1.120e-03"),
    "empty-grid": (["sharpness", "--Ngrid", ""], 1, "'Ngrid'"),
    "config-typo": (["ingham-sweep", "--config", "{tgird}"], 1, "Tgird"),
    "config-list-for-int": (["gram", "--config", "{listN}"], 1, "'N'"),
    "config-fraction-for-int": (["gram", "--config", "{halfN}"], 1, "'N'"),
    "merged-N0": (["merged", "--curve-file", "{mono2}", "--N", "0"], 1,
                  "N must be >= 2"),
    "wronskian-gamma-no-x0": (["wronskian", "--gamma-file", "{flat_no_x0}",
                               "--dry-run"], 1, "'x0'"),
    "schrodinger-cosine-no-amplitude": (["schrodinger", "--u0-file", "{u0}",
                                         "--V-file", "{cosine_no_amplitude}",
                                         "--T", "0.2", "--dry-run"],
                                        1, "'amplitude'"),
    "highfreq-sgrid-N-npc": (["highfreq", "--measure-file", "{quarter}",
                              "--sgrid", "2.5", "--N", "3", "--window", "4"],
                             0, lambda doc, out, sweeps:
                             _table(out, "dispersion_sweep")["meta"]["N"] == 3
                             and sweeps == [{"N": 3, "window": 4}]),
    "highfreq-sgrid-defaults": (["highfreq", "--measure-file", "{quarter}",
                                 "--sgrid", "2.5"], 0,
                                lambda doc, out, sweeps:
                                [_table(out, "dispersion_sweep")["meta"][k]
                                 for k in ("N", "window")] == [2, 10]
                                and sweeps == [{}]),
    "minimal-time-j0": (["minimal-time", "--curve-file", "{mono2}", "--s", "2",
                         "--jgrid", "0,2,5"], 1,
                        "j_grid modes must be >= 1, got [0, 2, 5]"),
    "minimal-time-config-j-negative": (["minimal-time", "--config",
                                        "{negativeJ}"], 1,
                                       "j_grid modes must be >= 1, "
                                       "got [-3, 2, 5]"),
    "minimal-time-one-j": (["minimal-time", "--curve-file", "{mono2}",
                            "--s", "2", "--jgrid", "5"], 1,
                           "j_grid needs two distinct modes to compare, "
                           "got [5]"),
    "merged-one-s": (["merged", "--curve-file", "{mono2}", "--sgrid", "2",
                      "--N", "2"], 1,
                     "s_grid needs two distinct values to compare, "
                     "got [2.0]"),
    "ingham-sweep-one-T": (["ingham-sweep", "--curve-file", "{mono2}",
                            "--s", "2", "--N", "2", "--Tgrid", "1,1"], 1,
                           "T_grid needs two distinct times to compare, "
                           "got [1.0, 1.0]"),
}


@pytest.mark.parametrize("argv, code, check", _EXPLICIT_CASES.values(),
                         ids=_EXPLICIT_CASES.keys())
def test_explicit_values_are_honoured_and_bad_keys_exit_1(
        argv, code, check, docs, tmp_path, capsys, monkeypatch):
    sweeps = []
    real_sweep = riesz.highfreq_dispersion_sweep

    def spy(*args, **kwargs):
        sweeps.append(kwargs)
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(riesz, "highfreq_dispersion_sweep", spy)
    out = str(tmp_path / "res")
    argv = [a.format(**docs) for a in argv]
    assert main(argv + ["--out-dir", out, "--format", "json"]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert check(json.loads(captured.out)["summary"], out, sweeps)
    else:
        assert check in captured.err


def _missing(key):
    return f"missing required parameter '{key}'"


def _unread(key, word, mode):
    return f"parameter '{key}' is not read {word} '{mode}'"


# Input that exits 1 in dry and real runs alike, most of it keys that
# depend on the mode, needed or never read: (argv, the error).
_MODE_CASES = {
    "classify-s-nan": (["classify", "--s", "nan", "--tau", "2", "--N", "3"],
                       "parameter 's': expected a finite number, got nan"),
    "gram-config-N-true": (["gram", "--config", "{trueN}"],
                           "parameter 'N': expected a number, got True"),
    "gram-config-s-true": (["gram", "--config", "{trueS}"],
                           "parameter 's': expected a number, got True"),
    "boundary-config-format-xml": (["boundary", "--config", "{xmlFormat}"],
                                   "format must be csv or json, got 'xml'"),
    "boundary-config-seed-fraction": (["boundary", "--config", "{seedHalf}"],
                                      "config field 'seed': expected an "
                                      "integer, got 1.5"),
    "boundary-config-seed-true": (["boundary", "--config", "{seedTrue}"],
                                  "config field 'seed': expected a number, "
                                  "got True"),
    "boundary-config-seed-null": (["boundary", "--config", "{seedNull}"],
                                  "config field 'seed': expected a number, "
                                  "got None"),
    "boundary-config-seed-list": (["boundary", "--config", "{seedList}"],
                                  "config field 'seed': expected a number, "
                                  "got [3]"),
    "boundary-config-out-dir-number": (["boundary", "--config", "{outDir5}"],
                                       "config field 'out_dir': expected a "
                                       "string, got 5"),
    "threepoint-points-nan": (["threepoint", "--points",
                               "0,nan;1,1.1;2.2,2.9"],
                              "parameter 'points': expected a finite number, "
                              "got 'nan'"),
    "ingham-sweep-config-Tgrid-nan": (["ingham-sweep", "--config",
                                       "{nanTgrid}"],
                                      "parameter 'Tgrid': expected a finite "
                                      "number, got 'nan'"),
    "gram-no-curve": (["gram", "--s", "2"], _missing("curve")),
    "gram-curve-no-T": (["gram", "--curve-file", "{mono2}", "--s", "2"],
                        _missing("T")),
    "riesz-no-curve": (["riesz", "--s", "2", "--N", "1"], _missing("curve")),
    "classify-no-tau-no-curve": (["classify", "--s", "2"], _missing("curve")),
    "highfreq-no-s": (["highfreq", "--measure-file", "{quarter}"],
                      _missing("s")),
    "schrodinger-trials-no-s": (["schrodinger", "--T", "0.2",
                                 "--curve-file", "{mono2}"], _missing("s")),
    "schrodinger-trials-no-curve": (["schrodinger", "--T", "0.2", "--s", "2"],
                                    _missing("curve")),
    "highfreq-N-no-sgrid": (["highfreq", "--measure-file", "{quarter}",
                             "--s", "2.5", "--N", "5"],
                            _unread("N", "without", "sgrid")),
    "highfreq-config-N-no-sgrid": (["highfreq", "--config", "{highfreqN}"],
                                   _unread("N", "without", "sgrid")),
    "highfreq-sgrid-s": (["highfreq", "--measure-file", "{quarter}",
                          "--sgrid", "2.5", "--s", "2"],
                         _unread("s", "with", "sgrid")),
    "highfreq-sgrid-Ngrid": (["highfreq", "--measure-file", "{quarter}",
                              "--sgrid", "2.5", "--Ngrid", "6,10"],
                             _unread("Ngrid", "with", "sgrid")),
    "gram-measure-T": (["gram", "--measure-file", "{quarter}", "--s", "2",
                        "--T", "1"], _unread("T", "with", "measure")),
    "riesz-measure-weight": (["riesz", "--measure-file", "{quarter}",
                              "--s", "2", "--weight", "arclength"],
                             _unread("weight", "with", "measure")),
    "gram-measure-curve": (["gram", "--measure-file", "{quarter}", "--s", "2",
                            "--curve-file", "{mono2}"],
                           _unread("curve", "with", "measure")),
    "classify-tau-curve": (["classify", "--s", "2", "--tau", "8",
                            "--curve-file", "{mono2}"],
                           _unread("curve", "with", "tau")),
    "classify-tau-T": (["classify", "--s", "2", "--tau", "8", "--T", "1"],
                       _unread("T", "with", "tau")),
    "schrodinger-trials-dt": (["schrodinger", "--T", "0.2", "--s", "2",
                               "--curve-file", "{mono2}", "--dt", "1e-3"],
                              _unread("dt", "without", "u0")),
    "schrodinger-evolve-K": (["schrodinger", "--u0-file", "{u0}", "--T", "0.2",
                              "--K", "4"], _unread("K", "with", "u0")),
    "schrodinger-evolve-trials": (["schrodinger", "--u0-file", "{u0}",
                                   "--T", "0.2", "--trials", "2"],
                                  _unread("trials", "with", "u0")),
}


@pytest.mark.parametrize("argv, message", _MODE_CASES.values(),
                         ids=_MODE_CASES.keys())
def test_dry_run_checks_mode_requirements_like_the_real_run(
        argv, message, docs, tmp_path, capsys):
    argv = [a.format(**docs) for a in argv] + ["--out-dir", str(tmp_path / "res")]
    errors = []
    for extra in (["--dry-run"], []):
        assert main(argv + extra) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: {message}\n"
    assert not os.path.exists(tmp_path / "res")


# Keys that no subcommand reads: a config that names one exits 1, and
# there is no such flag.
_REMOVED_KEYS = [
    ("classify", "out_csv"), ("classify", "out_svg"), ("boundary", "branch"),
    ("boundary", "lo"), ("boundary", "hi"), ("boundary", "out_csv"),
    ("tails", "horizon"), ("highfreq", "nodes_per_cycle"),
    ("zeroprobe", "grid"), ("schrodinger", "out_csv"),
]


@pytest.mark.parametrize("subcommand, key", _REMOVED_KEYS,
                         ids=[f"{sub}-{key}" for sub, key in _REMOVED_KEYS])
def test_removed_keys_are_unknown(subcommand, key, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"subcommand": subcommand,
                                    "parameters": {key: 1}}))
    assert main([subcommand, "--config", str(cfg_path), "--dry-run"]) == 1
    assert capsys.readouterr().err == (f"error: unknown parameter(s) for "
                                       f"{subcommand}: {key}\n")
    with pytest.raises(SystemExit) as exc:
        main([subcommand, f"--{key.replace('_', '-')}", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def _readme_examples() -> list:
    """The argv of every `inghamlab <subcommand>` line in README.md."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        return [shlex.split(ln.strip())[1:] for ln in fh
                if re.match(r"\s*inghamlab [a-z]", ln)]


def test_readme_examples_parse_and_tables_match_runners():
    examples = _readme_examples()
    assert len(examples) >= 18
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)
    assert set(_PARAMS) == set(_RUNNERS)


# Run in a fresh interpreter: records the OPENBLAS_NUM_THREADS value
# that numpy would see at its first import, after parsing every README
# example and after one run with --threads 1.
_THREAD_PIN_SCRIPT = """
import importlib.abc, json, os, sys

seen = []

class FirstNumpyImport(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, FirstNumpyImport())
from inghamlab.cli import build_parser, main

parser = build_parser()
for argv in json.loads(sys.argv[1]):
    parser.parse_args(argv)
parsed_without_numpy = "numpy" not in sys.modules
code = main(["boundary", "--samples", "5", "--threads", "1",
             "--out-dir", sys.argv[2]])
print(json.dumps({"parsed_without_numpy": parsed_without_numpy,
                  "code": code, "seen": seen}))
"""


def test_numpy_loads_after_threads_are_pinned(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_PIN_SCRIPT,
         json.dumps(_readme_examples()), str(tmp_path / "res")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record == {"parsed_without_numpy": True, "code": 0, "seen": ["1"]}
