"""Gram matrices, two-sided Riesz bounds, and the four experiments."""

import json
import warnings

import numpy as np
import pytest
from scipy import special

from _oracles import gram_from_dict, measure_quadratic_form, quadratic_form_quadrature
from test_curves import TENSOR_MEASURES
from inghamlab import curves, oscint, quad, riesz
from inghamlab.errors import (DecayTooWeak, InsufficientDecay, NotHermitian,
                              ToleranceNotMet)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------

def test_system_validation(mono2, full_circle):
    with pytest.raises(ValueError):
        riesz.curve_system([1, 1, 2], 2.0, mono2, 1.0)
    with pytest.raises(ValueError):
        riesz.curve_system([2, 1], 2.0, mono2, 1.0)
    with pytest.raises(ValueError):
        riesz.curve_system([0, 1], 2.0, mono2, 0.0)
    with pytest.raises(ValueError):
        riesz.curve_system([0, 1], 2.0, mono2, 1.0, weight="gaussian")
    with pytest.raises(ValueError):
        riesz.ExpSystem((0, 1), 2.0, curve=mono2, T=1.0, measure=full_circle)
    with pytest.raises(ValueError):
        riesz.ExpSystem((0, 1), 2.0)
    with pytest.raises(ValueError, match="index set is empty"):
        riesz.curve_system(range(1, 0), 2.0, mono2, 1.0)
    with pytest.raises(ValueError, match="index set is empty"):
        riesz.measure_system(range(1, 0), 2.0, full_circle)
    sys = riesz.curve_system([-2, 0, 3], 2.5, mono2, 1.0)
    assert len(sys.indices) == 3


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

_TAB_T = np.linspace(0.0, 2.0, 41)
_GRAM_CURVES = {
    "mono2": ("Monomial", {"a": 0.0, "b": 1.0, "alpha": 2.0}),
    "muntz-sqrt": ("Muntz", {"coefficients": [[1.0, 0.5], [1.0, 2.5]], "t0": 0.0}),
    "tabulated": ("UserTabulated", {"t": _TAB_T, "p": _TAB_T ** 2,
                                    "dp": 2.0 * _TAB_T, "d2p": 2.0 + 0.0 * _TAB_T}),
    "mono1.5": ("Monomial", {"a": 0.0, "b": 1.0, "alpha": 1.5}),
    "decreasing": ("Monomial", {"a": 0.0, "b": -1.0, "alpha": 2.0}),
}


@pytest.mark.parametrize("weight", ["lebesgue", "arclength"])
@pytest.mark.parametrize("name", list(_GRAM_CURVES))
def test_curve_gram_structure(name, weight):
    curve = curves.build_curve(*_GRAM_CURVES[name])
    idx, T, tol = tuple(range(-3, 4)), 1.5, 1e-9
    system = riesz.curve_system(idx, 2.0, curve, T, weight=weight)
    G = riesz.gram_matrix(system, tol=tol)
    H = G.entries
    assert np.abs(H - H.conj().T).max() < 1e-12
    w = None
    if weight == "lebesgue":
        np.testing.assert_allclose(np.diag(H).real, T, rtol=0, atol=1e-14)
        assert G.T_or_mass == T
    else:
        w = lambda t: np.sqrt(1.0 + curve.dp(t) ** 2)
        assert G.T_or_mass == H[0, 0].real
    # Entries are the pair integrals with d = n - m, e = |n|^s - |m|^s.
    for i, n in enumerate(idx):
        for j, m in enumerate(idx[i:], start=i):
            if w is None:
                want = oscint.oscillatory_integral(n, m, 2.0, curve, T, tol=1e-12)
            else:
                want = oscint.phase_integral(n - m, abs(n) ** 2.0 - abs(m) ** 2.0,
                                             curve, T, tol=1e-12, weight=w)
            assert abs(H[i, j] - want.value) < tol, (n, m)
    assert np.linalg.eigvalsh(H).min() > -1e-10


def test_curve_gram_makes_one_adaptive_integral(mono2, monkeypatch):
    calls = []
    real = riesz.phase_integral

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(riesz, "phase_integral", counted)
    riesz.gram_matrix(riesz.curve_system(range(-4, 5), 2.0, mono2, 2.0))
    # One integral, of the fastest pair: d = 8 (= 4 - (-4)), e = 4^2 - 0.
    assert calls == [(8.0, pytest.approx(16.0, rel=1e-15))]


# Non-monotone curves, on which the envelope pair's panels do not bound
# every pair's phase speed: the first Gauss/Kronrod certificate misses
# tol/J = 1e-9/21 (2.0e-6 on the sine, 2.0e-9 on the Muntz parabola) and
# one halving of every panel meets it.
_SINE_T = np.linspace(0.0, 2.0, 81)
_HALVING_CASES = {
    "tabulated-sine": (("UserTabulated", {
        "t": _SINE_T, "p": 0.5 * np.sin(TWO_PI * _SINE_T),
        "dp": np.pi * np.cos(TWO_PI * _SINE_T),
        "d2p": -2.0 * np.pi ** 2 * np.sin(TWO_PI * _SINE_T)}), 2.0, 1.5),
    "muntz-parabola": (("Muntz", {"coefficients": [[-1.0, 1.0], [1.0, 2.0]],
                                  "t0": 0.0}), 1.6, 3.0),
}


@pytest.fixture
def gram_products(monkeypatch):
    """The certificate max |K21 - G10| of each _gram_product call."""
    certificates = []
    real = riesz._gram_product

    def spy(*args, **kwargs):
        G, G10 = real(*args, **kwargs)
        certificates.append(float(np.abs(G - G10).max()))
        return G, G10

    monkeypatch.setattr(riesz, "_gram_product", spy)
    return certificates


@pytest.mark.parametrize("curve_args, s, T", _HALVING_CASES.values(),
                         ids=_HALVING_CASES.keys())
def test_curve_gram_halves_its_panels_once(curve_args, s, T, gram_products):
    curve = curves.build_curve(*curve_args)
    system = riesz.curve_system(range(-10, 11), s, curve, T)
    G = riesz.gram_matrix(system).entries
    bound = 1e-9 / len(system.indices)
    assert len(gram_products) == 2
    assert gram_products[0] > bound >= gram_products[1]
    idx = system.indices
    for i in range(0, len(idx), 3):
        for j in range(i + 1, len(idx), 3):
            want = oscint.oscillatory_integral(idx[i], idx[j], s, curve, T, tol=1e-11)
            assert abs(G[i, j] - want.value) < 5e-14, (idx[i], idx[j])


@pytest.mark.parametrize("curve_args, s, T", _HALVING_CASES.values(),
                         ids=_HALVING_CASES.keys())
def test_curve_gram_without_halvings_raises(curve_args, s, T, monkeypatch):
    monkeypatch.setattr(riesz, "_MAX_HALVINGS", 0)
    system = riesz.curve_system(range(-10, 11), s, curves.build_curve(*curve_args), T)
    with pytest.raises(ToleranceNotMet, match=r"max \|K21 - G10\|"):
        riesz.gram_matrix(system)


def test_curve_gram_checks_the_panel_budget_before_each_pass(monkeypatch):
    # The tabulated sine's passes take 150 and then 300 panels.
    curve_args, s, T = _HALVING_CASES["tabulated-sine"]
    monkeypatch.setattr(quad, "PANEL_BUDGET", 150)
    system = riesz.curve_system(range(-10, 11), s, curves.build_curve(*curve_args), T)
    with pytest.raises(ToleranceNotMet, match="curve Gram at T = 1.5: 300 panels "
                                              "exceed the panel budget 150"):
        riesz.gram_matrix(system)


def test_measure_gram_matches_transform(full_circle):
    idx = (-2, 0, 1, 3)
    system = riesz.measure_system(idx, 2.5, full_circle)
    G = riesz.gram_matrix(system).entries
    phi = np.stack([np.array([abs(n) ** 2.5 for n in idx], dtype=float),
                    np.array(idx, dtype=float)], axis=1)
    diffs = phi[None, :, :] - phi[:, None, :]
    transform = curves.mu_hat_grid(full_circle, diffs.reshape(-1, 2)).reshape(4, 4)
    for i in range(4):
        for j in range(4):
            assert abs(G[i, j] - transform[i, j]) < 1e-12
            bessel = special.j0(TWO_PI * np.hypot(*(phi[j] - phi[i])))
            assert abs(G[i, j] - bessel) < 1e-8


# TENSOR_MEASURES and one measure of each curve-like kind
MEASURES = dict(TENSOR_MEASURES, **{
    "graph": ("ArcLengthOnGraph", {"curve": {"kind": "Monomial",
                                             "params": {"b": 1.0, "alpha": 2.0}},
                                   "T": 0.8}, 2048),
    "circle-arc": ("ArcLengthOnCircle", {"radius": 0.7, "theta0": 0.5, "theta1": 3.5},
                   2048),
})


@pytest.mark.parametrize("kind, params, resolution", MEASURES.values(),
                         ids=MEASURES.keys())
def test_tensor_measure_gram_matches_the_cloud_sum(kind, params, resolution):
    # The Hadamard product of the factor Grams against one plain sum over
    # the node cloud read from the measure, per entry.
    m = curves.build_measure(kind, params, resolution=resolution)
    idx = tuple(_window(4, 4))
    G = riesz.gram_matrix(riesz.measure_system(idx, 2.5, m))
    phi = np.column_stack([np.abs(idx) ** 2.5, idx]).astype(float)
    diff = (phi[:, None, :] - phi[None, :, :]).reshape(-1, 2)
    want = (np.exp(2j * np.pi * (m.nodes @ diff.T)).T @ m.weights).reshape(G.dim, G.dim)
    assert np.abs(G.entries - want).max() <= 1e-13
    assert np.array_equal(G.entries, G.entries.conj().T)
    assert G.T_or_mass == pytest.approx(m.weights.sum(), abs=1e-15)


def test_measure_gram_and_transform_never_build_the_cloud(monkeypatch):
    measures = [curves.build_measure(*args) for args in MEASURES.values()]

    def cloud(self):
        raise AssertionError("the node cloud was built")

    for name in ("nodes", "weights"):
        monkeypatch.setattr(curves.MeasureSpec, name, property(cloud), raising=False)
    xis = np.random.default_rng(3).uniform(-20.0, 20.0, size=(5, 2))
    for m in measures:
        riesz.gram_matrix(riesz.measure_system(_window(4, 4), 2.5, m))
        curves.mu_hat_grid(m, xis)


def _direct_gram(nodes, wts, taus, lams):
    """E^H W E with one np.exp per entry of E."""
    E = np.exp(-2j * np.pi * (np.outer(nodes[:, 0], taus)
                              + np.outer(nodes[:, 1], lams)))
    return E.conj().T @ (wts[:, None] * E)


def _window(N, w):
    return np.r_[np.arange(-(N + w), -N + 1), np.arange(N, N + w + 1)]


# name: (node count, t range, temporal frequencies, spatial frequencies)
_KERNEL_CASES = {
    "symmetric-window": (3000, 1.0, np.abs(_window(7, 5)) ** 2.5,
                         _window(7, 5)),
    "unsorted-gapped-integers": (2500, 1.0, np.array([1.0, 8.5, 0.25, 4.0, 30.0, 2.0]),
                                 np.array([5, -3, 12, 0, -11, 4])),
    "non-integer": (2500, 1.0, np.array([0.0, 1.5, 2.75, 9.0]),
                    np.array([0.5, -1.25, 3.3, 7.0])),
    "half-steps": (2500, 1.0, np.abs(_window(7, 5)) ** 2.5,
                   0.5 * _window(7, 5)),
    "irregular-wide": (2500, 0.25, np.linspace(0.0, 4e4, 41),
                       np.random.default_rng(9).uniform(-200.0, 200.0, 41)),
    "J1": (1000, 1.0, np.array([2.0]), np.array([3])),
    "J121": (5000, 0.25, np.abs(np.arange(-60, 61)) ** 2.0, np.arange(-60, 61)),
    "several-blocks": (3 * 4096 + 17, 1.0, np.abs(_window(3, 4)) ** 3.0,
                       _window(3, 4)),
}


@pytest.mark.parametrize("count, t_max, taus, lams", _KERNEL_CASES.values(),
                         ids=_KERNEL_CASES.keys())
def test_gram_product_matches_direct_exponentials(count, t_max, taus, lams):
    # One-node panels: the nodes are a cloud, as for a measure.
    rng = np.random.default_rng(count)
    nodes = np.column_stack([rng.uniform(0.0, t_max, count),
                             rng.uniform(-1.0, 1.0, count)])
    wts = rng.uniform(0.0, 1.0, count)
    phi = np.column_stack([taus, lams]).astype(float)
    G = riesz._gram_product(nodes[:, 0], nodes[:, 1], wts, phi)
    want = _direct_gram(nodes, wts, phi[:, 0], phi[:, 1])
    assert np.abs(G - want).max() <= 1e-12 * wts.sum()
    assert np.array_equal(G, G.conj().T)


# name: (half-widths of the panels, temporal frequencies, spatial frequencies)
_PANEL_CASES = {
    # 600 panels of 21 nodes span four blocks; two widths, as from bisection
    "repeated-widths": (np.repeat([0.01, 0.005], 300), np.abs(_window(7, 5)) ** 2.5,
                        _window(7, 5)),
    "distinct-widths": (np.random.default_rng(4).uniform(1e-4, 0.02, 450),
                        np.abs(_window(3, 4)) ** 3.0, _window(3, 4)),
    "mixed-non-integer": (np.tile([0.004, 0.004, 0.013, 0.001, 0.0025], 90),
                          np.array([0.0, 1.5, 2.75, 9.0, 40.0]),
                          np.array([0.5, -1.25, 3.3, 7.0, -20.0])),
    "one-panel": (np.array([0.3]), np.array([2.0, 0.0]), np.array([3.0, 0.0])),
}


@pytest.mark.parametrize("halves, taus, lams", _PANEL_CASES.values(),
                         ids=_PANEL_CASES.keys())
def test_gram_product_panels_match_direct_exponentials(halves, taus, lams):
    # Panel form, t = mid + half * offset on the Gauss-Kronrod offsets, with
    # the Gauss sub-Gram against a direct sum over the 10 Gauss nodes.
    r, wk, wg = quad.gauss_kronrod21()
    rng = np.random.default_rng(halves.size)
    mids = rng.uniform(0.0, 2.0, halves.size)
    t = mids[:, None] + halves[:, None] * r
    x = np.sin(3.0 * t) + rng.uniform(-1.0, 1.0, t.shape)
    wts = halves[:, None] * wk * rng.uniform(0.5, 1.5, t.shape)
    phi = np.column_stack([taus, lams]).astype(float)
    scale = np.sqrt(wg / wk[:10])
    G, G_sub = riesz._gram_product(mids, x, wts, phi, panels=(halves, r, scale))
    nodes = np.column_stack([t.ravel(), x.ravel()])
    want = _direct_gram(nodes, wts.ravel(), phi[:, 0], phi[:, 1])
    assert np.abs(G - want).max() <= 1e-12 * wts.sum()
    assert np.array_equal(G, G.conj().T)
    sub = np.column_stack([t[:, :10].ravel(), x[:, :10].ravel()])
    sub_w = (wts[:, :10] * scale ** 2).ravel()
    want = _direct_gram(sub, sub_w, phi[:, 0], phi[:, 1])
    assert np.abs(G_sub - want).max() <= 1e-12 * sub_w.sum()
    assert np.array_equal(G_sub, G_sub.conj().T)


def test_gram_product_rejects_a_negative_weight():
    wts = np.array([0.2, 0.2, -0.1, 0.2, 0.2])
    with pytest.raises(ValueError, match="weight 2 is -1.000e-01"):
        riesz._gram_product(np.zeros(5), np.zeros(5), wts,
                            np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_gram_round_trips_through_json(mono2):
    G = riesz.gram_matrix(riesz.curve_system(range(-2, 3), 2.0, mono2, 1.0))
    doc = json.loads(json.dumps(riesz.gram_to_dict(G)))
    back = gram_from_dict(doc)
    assert back.indices == G.indices
    assert back.T_or_mass == G.T_or_mass
    np.testing.assert_allclose(back.entries, G.entries, rtol=0, atol=1e-16)


# ---------------------------------------------------------------------------
# Riesz bounds
# ---------------------------------------------------------------------------

def _synthetic_gram(eigs, seed=5):
    rng = np.random.default_rng(seed)
    dim = len(eigs)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    H = Q @ np.diag(eigs) @ Q.conj().T
    H = 0.5 * (H + H.conj().T)
    return riesz.GramMatrix(H, tuple(range(dim)), 1.0, 1e-9)


def test_riesz_bounds_recover_known_spectrum():
    G = _synthetic_gram([1.0, 2.0, 5.0])
    rep = riesz.riesz_bounds(G)
    assert rep.lambda_min == pytest.approx(1.0, abs=1e-10)
    assert rep.lambda_max == pytest.approx(5.0, abs=1e-10)
    assert rep.normalized == pytest.approx((1.0, 5.0), abs=1e-10)
    assert rep.random_vector_checks == 64
    big = _synthetic_gram(np.linspace(0.5, 3.0, 12).tolist())
    rep = riesz.riesz_bounds(big)
    eigs = np.linalg.eigvalsh(big.entries)
    assert rep.lambda_min == pytest.approx(eigs[0], abs=1e-12)
    assert rep.lambda_max == pytest.approx(eigs[-1], abs=1e-12)


def test_riesz_bounds_reject_non_hermitian():
    H = np.array([[1.0, 0.5j], [0.4j, 1.0]])
    with pytest.raises(NotHermitian):
        riesz.riesz_bounds(riesz.GramMatrix(H, (0, 1), 1.0, 1e-9))


def test_quadratic_form_closes_the_loop(mono2, mono3, full_circle):
    rng = np.random.default_rng(21)
    # (system, Gram tol, relative tolerance of the form)
    cases = [
        (riesz.curve_system(range(-3, 4), 2.0, mono2, 1.0), 1e-10, 1e-6),
        (riesz.curve_system(range(-3, 4), 2.0, mono2, 1.0, weight="arclength"),
         1e-10, 1e-6),
        (riesz.measure_system((-2, 0, 1, 3), 2.5, full_circle), 1e-10, 1e-6),
        # |u|^2 oscillates at pair differences, up to twice as fast as the
        # fastest single wave that sets the node density.
        (riesz.curve_system(range(-4, 5), 1.6, mono3, 2.0), 1e-12, 1e-12),
    ]
    for system, tol, rel in cases:
        dim = len(system.indices)
        c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        G = riesz.gram_matrix(system, tol=tol)
        want = float(np.real(c.conj() @ G.entries @ c))
        if system.measure is None:
            got = quadratic_form_quadrature(system, c)
        else:
            got = measure_quadratic_form(system, c)
        assert got == pytest.approx(want, rel=rel)
        assert got >= 0.0
    with pytest.raises(ValueError):
        quadratic_form_quadrature(cases[0][0], np.ones(3))
    with pytest.raises(ValueError, match="measure 'ArcLengthOnCircle'"):
        quadratic_form_quadrature(cases[2][0], np.ones(4))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_ingham_sweep_lambda_min_is_monotone(mono2):
    sweep = riesz.ingham_sweep(mono2, 2.0, 4, [0.5, 1.0, 2.0], tol=1e-8)
    assert sweep.monotone
    assert sweep.lambda_min == sorted(sweep.lambda_min)
    assert sweep.lambda_min[-1] > 0.0
    assert sweep.empirical_T == 1.0
    with pytest.raises(ValueError):
        riesz.ingham_sweep(mono2, 2.0, 80, [0.5, 1.0], tol=1e-8)
    with pytest.raises(ValueError):
        riesz.ingham_sweep(mono2, 2.0, 4, [1.0], tol=1e-8)


def test_minimal_time_family_collapses(mono2):
    res = riesz.minimal_time_counterexample(mono2, 2.0, [2, 5, 10, 50])
    assert res.decreasing
    assert res.eps == pytest.approx(0.75)
    assert res.c_norm_sq == 2.0
    assert res.T_values == sorted(res.T_values, reverse=True)
    assert res.ratios[-1] < 0.05 * res.ratios[0]


def test_minimal_time_ratios_are_gram_forms(mono2, arctan3):
    # ratio_j is the trace of c_0 = 1, c_j = -exp(-2 pi i j p(0)) over
    # [0, T_j] divided by T_j: the Gram form at conj(c) over T_j.
    for curve in (mono2, arctan3):
        res = riesz.minimal_time_counterexample(curve, 2.0, [2, 5, 10, 50, 200])
        p0 = float(curve.p(0.0))
        for j, Tj, ratio in zip(res.j_grid, res.T_values, res.ratios):
            G = riesz.gram_matrix(riesz.curve_system((0, j), 2.0, curve, Tj),
                                  tol=1e-12 * Tj)
            c = np.array([1.0, -np.exp(2j * np.pi * j * p0)])
            form = float(np.real(c.conj() @ G.entries @ c))
            assert form / Tj == pytest.approx(ratio, rel=1e-12)


def test_highfreq_tail_bounds_close(quarter_circle):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DecayTooWeak)
        hf = riesz.highfreq_bounds(quarter_circle, 2.5, [2, 6, 10, 14],
                                   window=10)
    assert hf.N_star == 6
    assert hf.delta_hat == pytest.approx(0.53, abs=0.1)
    i = hf.N_grid.index(hf.N_star)
    assert hf.lambda_min[i] >= 0.45 and hf.lambda_max[i] <= 1.55
    # Larger N only tightens the two-sided bounds on this geometry.
    assert hf.lambda_min == sorted(hf.lambda_min)
    assert hf.lambda_max == sorted(hf.lambda_max, reverse=True)


def test_highfreq_warns_when_decay_is_too_weak(quarter_circle):
    with pytest.warns(DecayTooWeak):
        riesz.highfreq_bounds(quarter_circle, 1.5, [2], window=4)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "aliased: the decay fit resolves radius 100 with 70 nodes per axis, "
    "where sup |mu_hat| bottoms out near R = 27 and rises to 0.055 at R = 100"))
def test_smooth_bump_decay_fit_is_rapid_on_the_benchmark_radii():
    # The first SmoothBump of the seed-1 measure-window pool, on the
    # benchmark's 8 radii over [1, 100]; delta_hat comes out -3.66.
    bump = curves.build_measure(
        "SmoothBump", {"box": [0.0, 0.6395, 0.0, 0.6724], "order": 3},
        resolution=1024)
    fit = riesz._decay_fit(bump, np.geomspace(1.0, 100.0, 8))
    assert fit.delta_hat >= 2.0


@pytest.fixture
def fit_calls(monkeypatch):
    """An empty decay-fit cache, and the list of measures that
    fit_fourier_decay is called on from here on."""
    riesz._fit_document.cache_clear()
    calls = []
    real = riesz.fit_fourier_decay

    def spy(measure, radii):
        calls.append(measure)
        return real(measure, radii)

    monkeypatch.setattr(riesz, "fit_fourier_decay", spy)
    yield calls
    riesz._fit_document.cache_clear()


def test_highfreq_results_are_bit_identical_cold_and_warm(quarter_circle, fit_calls):
    runs = [(riesz.highfreq_bounds(quarter_circle, 2.5, [2, 6], window=4),
             riesz.highfreq_dispersion_sweep(quarter_circle, [2.0, 3.0], N=2, window=4))
            for _ in range(2)]
    # One fit for both experiments, which share the default radii.
    assert len(fit_calls) == 1
    (hf_cold, sweep_cold), (hf_warm, sweep_warm) = runs
    assert repr(hf_warm) == repr(hf_cold)
    assert repr(sweep_warm) == repr(sweep_cold)


def test_decay_too_weak_warns_on_every_call(quarter_circle, fit_calls):
    for _ in range(2):
        with pytest.warns(DecayTooWeak):
            riesz.highfreq_bounds(quarter_circle, 1.5, [2], window=4)
    assert len(fit_calls) == 1


def test_insufficient_decay_raises_on_every_call(fit_calls):
    # A circle of radius 1e-5 keeps |mu_hat| above 0.99 out to |xi| = 200.
    speck = curves.build_measure("ArcLengthOnCircle", {"radius": 1e-5},
                                 resolution=1024)
    for _ in range(2):
        with pytest.raises(InsufficientDecay):
            riesz.highfreq_bounds(speck, 2.5, [2], window=4)
    assert len(fit_calls) == 2
    assert riesz._fit_document.cache_info().currsize == 0


def test_decay_fits_share_no_entry_across_documents_and_radii(mono2, mono3, fit_calls):
    arc = {"radius": 1.0, "theta0": 0.0, "theta1": 1.5}
    arc_ulp = dict(arc, theta1=float(np.nextafter(1.5, 2.0)))
    base = np.geomspace(1.0, 100.0, 8)

    def build(kind, params):
        return curves.build_measure(kind, params, resolution=1024)

    fits = [
        (build("ArcLengthOnCircle", arc), base),
        (build("ArcLengthOnCircle", arc_ulp), base),
        (build("ArcLengthOnGraph", {"curve": mono2, "T": 0.8}), base),
        (build("ArcLengthOnGraph", {"curve": mono3, "T": 0.8}), base),
        # two radius grids with the same resolution ...
        (build("ArcLengthOnCircle", arc), np.geomspace(1.0, 100.0, 9)),
        # ... and two resolutions: 16 * 300 and 16 * 400 nodes across radius 1
        (build("ArcLengthOnCircle", arc), np.geomspace(3.0, 300.0, 8)),
        (build("ArcLengthOnCircle", arc), np.geomspace(4.0, 400.0, 8)),
    ]
    results = [riesz._decay_fit(m, radii) for m, radii in fits]
    assert len(fit_calls) == len(fits)
    assert riesz._fit_document.cache_info().currsize == len(fits)
    assert fit_calls[4].resolution == fit_calls[0].resolution
    assert fit_calls[5].resolution != fit_calls[6].resolution
    # Each fit is the uncached fit of its own measure and radii.
    for (m, radii), got, built in zip(fits, results, fit_calls):
        assert built.resolution == m.resolution_for(float(radii.max()))
        want = curves.fit_fourier_decay(m.with_resolution(built.resolution), radii)
        assert (got.delta_hat, got.eta_hat) == (want.delta_hat, want.eta_hat)
        assert np.array_equal(got.sup_values, want.sup_values)


def test_a_cached_decay_fit_is_read_only(quarter_circle, fit_calls):
    radii = np.geomspace(1.0, 100.0, 8)
    fit = riesz._decay_fit(quarter_circle, radii)
    for values in (fit.radii, fit.sup_values, fit.fit_radii):
        with pytest.raises(ValueError):
            values[0] = 0.0
    with pytest.raises(AttributeError):
        fit.delta_hat = 0.0
    radii[0] = 1.0   # the caller's array stays writable
    assert riesz._decay_fit(quarter_circle, radii) is fit


def test_sharpness_sum_grows_at_the_predicted_rate():
    res = riesz.sharpness_sum(0.5, 1.5, [32, 64, 128, 256, 512, 1024])
    assert res.passes
    assert res.slope == pytest.approx(2.0 - 0.5 * 1.5, abs=0.1)
    assert res.exceeds_diagonal
    with pytest.raises(ValueError):
        riesz.sharpness_sum(0.9, 2.0, [32, 64])



def test_sharpness_sum_caps_its_tables_before_allocating(monkeypatch):
    # The cap is checked before any table exists: with numpy gone from the
    # module, the call still raises the ValueError.
    assert riesz._MAX_SHARPNESS_N == 4096
    monkeypatch.setattr(riesz, "np", None)
    with pytest.raises(ValueError, match="at most 4096, got 10000000"):
        riesz.sharpness_sum(0.5, 1.5, [32, 10_000_000])
    with pytest.raises(ValueError, match="at most 4096, got 4097"):
        riesz.sharpness_sum(0.5, 1.5, [32, 4097])

@pytest.mark.parametrize("call, name", [
    (lambda c: riesz.sharpness_sum(0.5, 1.5, []), "N_grid"),
    (lambda c: riesz.sharpness_sum(0.5, 1.5, [5]), "N_grid"),
    (lambda c: riesz.sharpness_sum(0.5, 1.5, [5, 5]), "N_grid"),
    (lambda c: riesz.sharpness_sum(0.5, 1.5, [0, 5]), "N_grid"),
    (lambda c: riesz.sharpness_sum(0.5, 1.5, [1, 2]), "N_grid"),
    (lambda c: riesz.merged_bound_experiment(c, 0.5, [2.0, 2.5], N=1,
                                             tol=1e-8), "N must"),
    (lambda c: riesz.merged_bound_experiment(c, 0.5, [2.0, 2.5], N=0,
                                             tol=1e-8), "N must"),
], ids=["sharpness-empty", "sharpness-one-size", "sharpness-repeated-size",
        "sharpness-zero-size", "sharpness-size-one", "merged-N1", "merged-N0"])
def test_degenerate_sizes_name_the_parameter(call, name, mono2):
    with pytest.raises(ValueError, match=name):
        call(mono2)


def test_merged_bound_coupling_decays_in_s(mono2):
    res = riesz.merged_bound_experiment(mono2, 0.5, [1.6, 2.0, 2.5], N=8, tol=1e-8)
    assert res.coupling_decreasing
    assert res.coupling == sorted(res.coupling, reverse=True)
    assert all(v > 0 for v in res.lambda_min)
    assert len(res.product_bound_max) == 3
    with pytest.raises(ValueError):
        riesz.merged_bound_experiment(mono2, 0.5, [2.0, 2.5], N=40, tol=1e-8)
