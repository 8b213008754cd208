"""Acceptance gate: one test per numbered criterion.

Each test evaluates its criterion at the stated tolerance and runtime
ceiling, prints a single human-readable [PASS]/[FAIL] line (bypassing
capture so the verdicts are visible in any pytest run), and then asserts
the same condition so regressions keep the suite red.

Run just this gate with

    pytest tests/test_acceptance.py -q
"""

import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from _oracles import (classify_pair, free_evolution, quadratic_form_quadrature,
                      simpson_pair_oracle, tail_m_decay, wronskian_n1_fd)
from inghamlab import classify, cli, oscint, rigidity, riesz, schrodinger, sums

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. adaptive oscillatory quadrature vs dense Simpson oracle
# ---------------------------------------------------------------------------

def test_criterion_01_oscillatory_oracle(mono2, mono3, capsys):
    idx = range(-12, 13)
    pairs = [(n, m) for n in idx for m in idx]
    combos = list(itertools.product((mono2, mono3), (0.5, 1.0, 2.0)))
    worst = 0.0
    # The six oracle runs share nothing, so two threads take them; numpy
    # releases the GIL in their array passes.  oracle_s is wall time.
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        oracles = list(pool.map(
            lambda combo: simpson_pair_oracle(combo[0].p, (1.6, 2.0, 2.5),
                                              combo[1], pairs), combos))
    t1 = time.perf_counter()
    for (curve, T), oracle in zip(combos, oracles):
        for (s, n, m), ref in oracle.items():
            got = oscint.oscillatory_integral(n, m, s, curve, T, tol=1e-9).value
            err = abs(got - ref)
            if err > worst:
                worst = err
    oracle_s, library_s = t1 - t0, time.perf_counter() - t1
    elapsed = oracle_s + library_s
    ok = worst <= 1e-7 and elapsed <= 120.0
    _report(capsys, 1, "adaptive integral vs 1e6-node Simpson", ok,
            f"worst abs err {worst:.3e} (tol 1e-07) over 18 (curve,s,T) "
            f"combos x 625 pairs, {elapsed:.1f}s (limit 120s: oracle "
            f"{oracle_s:.1f}s, library {library_s:.1f}s)")


# ---------------------------------------------------------------------------
# 2. diagonal pairs integrate to exactly T
# ---------------------------------------------------------------------------

def test_criterion_02_diagonal_exactness(mono2, mono3, capsys):
    rng = np.random.default_rng(0x1CEB00DA)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(-1000, 1001))
        T = float(rng.uniform(0.05, 4.0))
        s = float(rng.choice([1.6, 2.0, 2.5]))
        curve = mono2 if k % 2 == 0 else mono3
        val = oscint.oscillatory_integral(n, n, s, curve, T, tol=1e-9).value
        worst = max(worst, abs(val - T))
    # The diagonal integrand is identically 1; feed the same (d, e) =
    # (0, 0) phase through the adaptive quadrature as a cross-check of
    # the short-circuited path.
    for T in (0.5, 1.3, 2.7):
        val = oscint.phase_integral(0.0, 0.0, mono2, T, tol=1e-9).value
        worst = max(worst, abs(val - T))
    ok = worst <= 1e-12
    _report(capsys, 2, "I_(n,n)(T) = T", ok,
            f"worst abs err {worst:.3e} (tol 1e-12) over 50 random (n, T) "
            f"plus 3 quadrature cross-checks")


# ---------------------------------------------------------------------------
# 3. separation-ratio supremum: bounded regime anchor + divergent growth
# ---------------------------------------------------------------------------

def test_criterion_03_ratio_sup_anchor(capsys):
    t0 = time.perf_counter()
    bounded = sums.sup_M(1.0, 2.0, 10_000, checkpoints=[100, 1_000, 10_000])
    divergent = sums.sup_M(1.0, 1.5, 10_000, checkpoints=[100, 1_000, 10_000])
    elapsed = time.perf_counter() - t0
    sup = bounded.sup_value
    fit = divergent.growth_fit
    ok = (abs(sup - 1.0) <= 1e-12 and sup <= 4.0
          and fit is not None and abs(fit - 0.5) <= 0.07
          and elapsed <= 60.0)
    _report(capsys, 3, "separation-ratio supremum", ok,
            f"gamma=1, s=2: sup {sup:.12f} (exact 1, bound 4); "
            f"gamma=1, s=1.5: growth exponent {fit:.4f} (0.5 +/- 0.07); "
            f"{elapsed:.1f}s (limit 60s)")


# ---------------------------------------------------------------------------
# 4. truncation-tail sums decay at the predicted power of N and in |m|
# ---------------------------------------------------------------------------

TAIL_TRIPLES = ((0.0, 1.0, 2.0), (0.0, 0.5, 2.5), (0.25, 0.25, 5.0))


def test_criterion_04_tail_sum_decay(capsys):
    t0 = time.perf_counter()
    grid = [100, 316, 1000, 3163]
    bits, ok = [], True
    for gamma, delta, s in TAIL_TRIPLES:
        fit = sums.tail_decay_fit(gamma, delta, s, grid, m_set=(0, 1, 7, 100, 1000))
        _, _, decays = tail_m_decay(gamma, delta, s)
        ok = ok and fit.passes and decays
        bits.append(f"({gamma:g},{delta:g},{s:g}) slope {fit.slope:.3f} "
                    f"<= {-fit.sigma_expected + 0.15:.2f}, m-decay {decays}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 120.0
    _report(capsys, 4, "tail sums S_m(N)", ok,
            "; ".join(bits) + f"; {elapsed:.1f}s (limit 120s)")


# ---------------------------------------------------------------------------
# 5. Gram eigenvalue sweep in T plus the two independent cross-checks
# ---------------------------------------------------------------------------

def test_criterion_05_gram_ingham_sweep(mono2, capsys):
    t0 = time.perf_counter()
    sweep = riesz.ingham_sweep(mono2, 2.0, 20, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
                               tol=1e-8)
    normalized = sweep.lambda_min[-1] / 8.0
    system = riesz.curve_system(range(-20, 21), 2.0, mono2, 2.0)
    G = riesz.gram_matrix(system, tol=1e-8)
    rep = riesz.riesz_bounds(G)  # random-vector sandwich runs inside
    rng = np.random.default_rng(0x1CEB00DA)
    c = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    want = float(np.real(c.conj() @ G.entries @ c))
    got = quadratic_form_quadrature(system, c)
    rel = abs(got - want) / abs(want)
    elapsed = time.perf_counter() - t0
    ok = (sweep.monotone and normalized > 1e-6
          and rep.random_vector_checks > 0 and rel <= 1e-6
          and elapsed <= 300.0)
    _report(capsys, 5, "N=20 eigenvalue sweep", ok,
            f"lambda_min nondecreasing {sweep.monotone}, "
            f"lambda_min(8)/8 = {normalized:.3e} > 1e-06, "
            f"{rep.random_vector_checks} sandwich vectors, "
            f"trace-vs-Gram rel {rel:.2e} (tol 1e-06); "
            f"{elapsed:.1f}s (limit 300s)")


# ---------------------------------------------------------------------------
# 6. short-time two-mode failure family collapses
# ---------------------------------------------------------------------------

def test_criterion_06_short_time_collapse(mono2, capsys):
    t0 = time.perf_counter()
    res = riesz.minimal_time_counterexample(mono2, 2.0, [2, 5, 10, 50, 200])
    elapsed = time.perf_counter() - t0
    ok = (res.decreasing and res.ratios[-1] < 0.05 * res.ratios[0]
          and elapsed <= 60.0)
    _report(capsys, 6, "two-mode energy collapse", ok,
            f"ratios decreasing {res.decreasing}, ratio(200)/ratio(2) = "
            f"{res.ratios[-1] / res.ratios[0]:.4f} < 0.05; "
            f"{elapsed:.1f}s (limit 60s)")


# ---------------------------------------------------------------------------
# 7. high-frequency window on the quarter circle reaches [0.45, 1.55]
# ---------------------------------------------------------------------------

def test_criterion_07_high_frequency_window(quarter_circle, capsys):
    t0 = time.perf_counter()
    res = riesz.highfreq_bounds(quarter_circle, 2.5, [25, 50, 100, 200],
                                window=30)
    elapsed = time.perf_counter() - t0
    ok = res.N_star is not None and res.N_star <= 200 and elapsed <= 600.0
    detail = "no grid N reached the target band"
    if res.N_star is not None:
        i = res.N_grid.index(res.N_star)
        lo, hi = res.lambda_min[i], res.lambda_max[i]
        ok = ok and lo >= 0.45 and hi <= 1.55
        detail = (f"N* = {res.N_star}, lambda_min {lo:.3f} >= 0.45, "
                  f"lambda_max {hi:.3f} <= 1.55")
    _report(capsys, 7, "quarter-circle tail window", ok,
            detail + f"; {elapsed:.1f}s (limit 600s)")


# ---------------------------------------------------------------------------
# 8. off-diagonal sum growth exponent 2 - delta*s in the sharp regime
# ---------------------------------------------------------------------------

def test_criterion_08_sharpness_slope(capsys):
    t0 = time.perf_counter()
    res = riesz.sharpness_sum(0.5, 1.5, [32, 64, 128, 256, 512, 1024])
    elapsed = time.perf_counter() - t0
    ok = (res.passes and abs(res.slope - res.expected_slope) <= 0.1
          and elapsed <= 60.0)
    _report(capsys, 8, "decay-hypothesis sharpness", ok,
            f"S_N slope {res.slope:.4f} vs 2 - delta*s = "
            f"{res.expected_slope:g} (+/- 0.1); {elapsed:.1f}s (limit 60s)")


# ---------------------------------------------------------------------------
# 9. explicit bad-region boundary and integer-pair consistency
# ---------------------------------------------------------------------------

def test_criterion_09_bad_region_boundary(capsys):
    s, tau = 1.5, 4.0
    worst = 0.0
    for branch in classify.BRANCHES:
        pts = classify.boundary_samples(branch, 1000)
        worst = max(worst, max(abs(p.residual()) for p in pts))
    residual_ok = worst <= 1e-9

    # every integer pair with negative ratio must land on the side of
    # the boundary that its signed defect R = |n|^s - |m|^s + tau(n - m)
    # dictates: R(n - m) <= 0 is GoodMinus, otherwise Bad
    mismatches, checked = 0, 0
    powers = dict(zip(range(-50, 51), classify.abs_pow(np.arange(-50, 51), s)))
    for n in range(-50, 51):
        for m in range(-50, 51):
            if n == m or n == -m:
                continue
            num = powers[n] - powers[m]
            if num / (n - m) >= 0.0:
                continue
            checked += 1
            expect = ("GoodMinus" if (num + tau * (n - m)) * (n - m) <= 0.0
                      else "Bad")
            if classify_pair(n, m, s, tau).tag != expect:
                mismatches += 1

    # radial scaling moves boundary points strictly across: the ratio of
    # (lam x, lam y) is lam^(s-1) times the boundary value -tau
    sides_ok = True
    for branch in classify.BRANCHES:
        for p in classify.boundary_samples(branch, 40):
            x, y = p.point
            outer = classify_pair(1.05 * x, 1.05 * y, s, tau).tag
            inner = classify_pair(0.95 * x, 0.95 * y, s, tau).tag
            sides_ok = sides_ok and outer == "GoodMinus" and inner == "Bad"

    ok = residual_ok and mismatches == 0 and sides_ok
    _report(capsys, 9, "bad-region boundary", ok,
            f"worst residual {worst:.2e} (tol 1e-09) over 4x1000 samples; "
            f"{mismatches}/{checked} integer-pair mismatches; "
            f"radial side test {sides_ok}")


# ---------------------------------------------------------------------------
# 10. low-frequency rigidity toolkit
# ---------------------------------------------------------------------------

def test_criterion_10_rigidity(capsys):
    # (a) closed-form Wronskian vs finite-difference determinant
    rng = np.random.default_rng(2026)
    worst = 0.0
    for k in range(100):
        if k % 2 == 0:
            deg = int(rng.integers(3, 5))
            gamma = rigidity.ObservationCurveGamma(
                "Polynomial", {"coeffs": list(rng.uniform(-1.5, 1.5, deg))})
        else:
            gamma = rigidity.ObservationCurveGamma(
                "Rational",
                {"num": list(rng.uniform(-1.5, 1.5, 3)),
                 "den": [1.0, 0.0, float(rng.uniform(0.1, 0.5))]})
        x = float(rng.uniform(-2.0, 2.0))
        (exact,) = rigidity.wronskian_n1(gamma, np.array([x]))
        approx = wronskian_n1_fd(gamma, x)
        worst = max(worst, abs(approx - exact) / max(abs(exact), 1e-30))
    fd_ok = worst <= 1e-4

    # (b) the four vanishing cases, witnesses verified by substitution
    ts = np.linspace(-3.0, 3.0, 257)
    samples = np.linspace(0.0, 2.0, 9)
    cases_ok = True
    for kind, params, case in (
            ("Horizontal", {"x0": 0.3}, "HorizontalCase"),
            ("Affine", {"beta": 0.7, "slope": 1.0}, "SlopePlusOneCase"),
            ("Affine", {"beta": -0.2, "slope": -1.0}, "SlopeMinusOneCase")):
        gamma = rigidity.ObservationCurveGamma(kind, params)
        rep = rigidity.n1_vanishing_classifier(gamma, samples)
        g = gamma.gamma(ts)
        cols = np.stack([np.exp(2j * np.pi * (ts - g)),
                         np.ones_like(ts, dtype=complex),
                         np.exp(2j * np.pi * (ts + g))], axis=1)
        resid = float(np.abs(cols @ np.asarray(rep.witness)).max())
        cases_ok = cases_ok and rep.case == case and resid < 1e-12
    generic = rigidity.n1_vanishing_classifier(
        rigidity.ObservationCurveGamma("Polynomial", {"coeffs": [0, 0, 1.0]}),
        samples)
    cases_ok = cases_ok and generic.case == "OnlyTrivial" \
        and generic.witness is None

    # (c) the admissible point triple has full rank
    triple = rigidity.three_point_test(((0.0, 0.3), (1.0, 1.1), (2.2, 2.9)), c=None)
    rank_ok = triple.rank == 3 and triple.admissible

    # (d) the zero probe never cries identically-zero on random systems
    rng = np.random.default_rng(17)
    flags = 0
    for _ in range(100):
        N = int(rng.integers(1, 3))
        K = 2 * N + 1
        lams = np.sort(rng.uniform(-3.0, 3.0, K))
        while np.diff(lams).min() < 1e-3:
            lams = np.sort(rng.uniform(-3.0, 3.0, K))
        c = rng.normal(size=K) + 1j * rng.normal(size=K)
        system = rigidity.LowFreqSystem(N, float(rng.uniform(1.0, 2.5)),
                                        tuple(lams), tuple(c))
        kind = ["Horizontal", "Affine", "Polynomial"][int(rng.integers(0, 3))]
        if kind == "Horizontal":
            gamma = rigidity.ObservationCurveGamma(
                kind, {"x0": float(rng.uniform(-1, 1))})
        elif kind == "Affine":
            gamma = rigidity.ObservationCurveGamma(
                kind, {"beta": float(rng.uniform(-1, 1)),
                       "slope": float(rng.uniform(-2, 2))})
        else:
            gamma = rigidity.ObservationCurveGamma(
                kind, {"coeffs": list(rng.uniform(-1, 1, 3))})
        rep = rigidity.zero_set_probe(system, gamma, 2.0)
        flags += rep.verdict == "SuspectedIdenticallyZero"
    probe_ok = flags == 0

    ok = fd_ok and cases_ok and rank_ok and probe_ok
    _report(capsys, 10, "low-frequency rigidity", ok,
            f"Wronskian FD rel {worst:.2e} (tol 1e-04); witness cases "
            f"{cases_ok}; triple rank {triple.rank}; {flags}/100 false "
            f"identically-zero flags")


# ---------------------------------------------------------------------------
# 11. Schrodinger solver identities
# ---------------------------------------------------------------------------

def test_criterion_11_schrodinger(mono2, capsys):
    zero = schrodinger.PotentialSpec("Zero", {})

    # (a) V = 0 evolution equals the closed-form series
    rng = np.random.default_rng(7)
    c = np.zeros(17, dtype=complex)
    c[4:13] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    u0 = schrodinger.TorusState(c, 0.0, 2.0, 8)
    final, _ = schrodinger.evolve(u0, zero, 0.5, dt=None)
    closed = free_evolution(u0, 0.5)
    free_err = float(np.abs(final.coeffs - closed.coeffs).max())

    # (b) unitarity under a genuine potential
    rng = np.random.default_rng(11)
    c = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    c[:8] = 0.0
    c[-8:] = 0.0
    u0 = schrodinger.TorusState(c, 0.0, 2.0, 16)
    cosine = schrodinger.PotentialSpec("Cosine", {"amplitude": 0.8, "mode": 3})
    _, diag = schrodinger.evolve(u0, cosine, 1.0, dt=None)
    drift = diag.norm_drift

    # (c) Strang splitting converges at second order (>= 1.9 required)
    t = 0.1
    ref, _ = schrodinger.evolve(u0, cosine, t, dt=t / 2048)
    errs = []
    for steps in (20, 40, 80):
        out, _ = schrodinger.evolve(u0, cosine, t, dt=t / steps)
        errs.append(float(np.abs(out.coeffs - ref.coeffs).max()))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]

    # (d) V = 0 trace along the curve equals the Gram quadratic form
    rng = np.random.default_rng(3)
    K, half = 6, 3
    c = np.zeros(2 * K + 1, dtype=complex)
    c[K - half:K + half + 1] = (rng.standard_normal(2 * half + 1)
                                + 1j * rng.standard_normal(2 * half + 1))
    u0 = schrodinger.TorusState(c, 0.0, 2.0, K)
    T = 1.5
    trace, _ = schrodinger.evolve_trace(u0, zero, mono2, T)
    system = riesz.curve_system(range(-half, half + 1), 2.0, mono2, T)
    G = riesz.gram_matrix(system, tol=1e-9)
    active = c[K - half:K + half + 1]
    qf = float(np.real(active @ (G.entries @ np.conj(active))))
    trace_rel = abs(trace - qf) / abs(qf)

    ok = (free_err <= 1e-12 and drift <= 1e-10 and min(orders) >= 1.9
          and trace_rel <= 1e-6)
    _report(capsys, 11, "Schrodinger identities", ok,
            f"V=0 vs closed form {free_err:.2e} (tol 1e-12); norm drift "
            f"{drift:.2e} (tol 1e-10); splitting orders "
            f"{', '.join(f'{o:.2f}' for o in orders)} (>= 1.9); "
            f"trace-vs-Gram rel {trace_rel:.2e} (tol 1e-06)")


# ---------------------------------------------------------------------------
# 12. two identical batch runs produce identical tables
# ---------------------------------------------------------------------------

def _tree_files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = full
    return out


def _stable_bytes(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith((".csv", ".dat")):
        lines = [ln for ln in data.split(b"\n")
                 if not ln.startswith(b"# generated")]
        return b"\n".join(lines)
    return data


def test_criterion_12_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    batch = os.path.join(ROOT, "experiments", "acceptance.json")
    runs = []
    oks = []
    for sub in ("run1", "run2"):
        with open(batch) as fh:
            doc = json.load(fh)
        results, all_ok = cli.run_batch(doc, str(tmp_path / sub), "csv")
        runs.append(_tree_files(tmp_path / sub))
        oks.append(all_ok)
    same_names = sorted(runs[0]) == sorted(runs[1])
    diffs = []
    if same_names:
        diffs = [rel for rel in sorted(runs[0])
                 if _stable_bytes(runs[0][rel]) != _stable_bytes(runs[1][rel])]
    elapsed = time.perf_counter() - t0
    ok = all(oks) and same_names and not diffs
    _report(capsys, 12, "batch determinism", ok,
            f"2 runs x {len(runs[0])} files, all experiments ok "
            f"{all(oks)}, byte-identical modulo generation stamps "
            f"(diffs: {diffs if diffs else 'none'}); {elapsed:.1f}s")
