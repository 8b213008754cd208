"""Tests for the fractional split-step solver and curve-trace tools:
state plumbing, potential evaluation, exactness for V = 0 and constant
V, unitarity, second-order self-convergence, the Duhamel cross-check;
and the exact trace against expm at every node, against the Strang
trace as dt halves, and against the Gram quadratic form."""

import re

import numpy as np
import pytest
from scipy.linalg import expm

from _oracles import (free_evolution, pad_spectrum, picard_iterate,
                      quadratic_form_quadrature, simpson_weights, truncate_spectrum)
from inghamlab import DEFAULT_SEED, quad, schrodinger
from inghamlab.classify import abs_pow
from inghamlab.curves import build_curve
from inghamlab.errors import ResolutionExceeded, ToleranceNotMet
from inghamlab.riesz import curve_system, gram_matrix
from inghamlab.schrodinger import (
    EvolveDiagnostics,
    PotentialSpec,
    TorusState,
    _step_matrix,
    evolve,
    evolve_trace,
    trace_along_curve,
    trace_bound_experiment,
)


def _random_state(K, active, s=2.0, seed=11):
    rng = np.random.default_rng(seed)
    c = np.zeros(2 * K + 1, dtype=complex)
    band = np.arange(-active, active + 1)
    c[K + band] = rng.standard_normal(band.size) + 1j * rng.standard_normal(band.size)
    return TorusState(c, 0.0, s, K)


# ---------------------------------------------------------------------------
# states and potentials
# ---------------------------------------------------------------------------

def test_state_shape_guard_and_accessors():
    with pytest.raises(ValueError):
        TorusState(np.ones(4), 0.0, 2.0, 2)
    state = _random_state(6, 3)
    assert schrodinger._max_active_mode(state.coeffs) == 3
    assert state.norm_sq() == pytest.approx(
        float((np.abs(state.coeffs) ** 2).sum()), rel=1e-15)
    np.testing.assert_array_equal(state.modes, np.arange(-6, 7))
    empty = TorusState(np.zeros(13, dtype=complex), 0.0, 2.0, 6)
    assert schrodinger._max_active_mode(empty.coeffs) == 0


def test_potential_values_and_sup_norm():
    with pytest.raises(ValueError):
        PotentialSpec("Staircase", {})
    zero = PotentialSpec("Zero", {})
    np.testing.assert_array_equal(zero.values(8), np.zeros(8))
    assert zero.sup_norm == 0.0
    const = PotentialSpec("Constant", {"v0": -0.4})
    np.testing.assert_array_equal(const.values(4), np.full(4, -0.4))
    assert const.sup_norm == 0.4
    cos = PotentialSpec("Cosine", {"amplitude": 0.8, "mode": 3})
    x = np.arange(16) / 16
    np.testing.assert_allclose(cos.values(16),
                               0.8 * np.cos(2.0 * np.pi * 3 * x), atol=1e-15)
    assert cos.sup_norm == 0.8
    tab = PotentialSpec("Tabulated", {"values": [0.0, 1.0, 0.0, -1.0]})
    np.testing.assert_allclose(
        tab.values(8), [0.0, 0.5, 1.0, 0.5, 0.0, -0.5, -1.0, -0.5], atol=1e-15)
    assert tab.sup_norm == 1.0


def test_pad_truncate_round_trip():
    rng = np.random.default_rng(5)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert np.array_equal(truncate_spectrum(pad_spectrum(c, 4, 20), 4), c)


@pytest.mark.parametrize("kind, params, name", [
    ("Cosine", {"amplitude": 0.5, "mode": 1.5}, "mode"),
    ("Cosine", {"amplitude": 0.5, "mode": float("nan")}, "mode"),
    ("Cosine", {"amplitude": float("nan"), "mode": 1}, "amplitude"),
    ("Constant", {"v0": float("inf")}, "v0"),
    ("Constant", {"v0": float("nan")}, "v0"),
    ("Tabulated", {"values": []}, "values"),
    ("Tabulated", {"values": [0.0, float("nan"), 1.0]}, "values"),
    ("Tabulated", {"values": [0.0, float("-inf")]}, "values"),
], ids=["cosine-mode-fraction", "cosine-mode-nan", "cosine-amplitude-nan",
        "constant-v0-inf", "constant-v0-nan", "tabulated-empty",
        "tabulated-nan", "tabulated-inf"])
def test_bad_potentials_name_the_parameter(kind, params, name):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        PotentialSpec(kind, params)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _fft_step_matrix(K, s, V, h):
    """The identity rows pushed through one Strang step of zero-padded
    FFT half steps, built from the oracle's pad and truncate."""
    M = 4 * K + 4
    half = np.exp(-2j * np.pi * V.values(M) * (h / 2.0))
    free = np.exp(2j * np.pi * abs_pow(np.arange(-K, K + 1), s) * h)
    c = np.eye(2 * K + 1, dtype=complex)
    for kick in (free, 1.0):
        vals = np.fft.ifft(pad_spectrum(c, K, M)) * M
        c = truncate_spectrum(np.fft.fft(vals * half) / M, K) * kick
    return c


_COSINE = PotentialSpec("Cosine", {"amplitude": 0.1, "mode": 1})
_STEP_POTENTIALS = [
    PotentialSpec("Cosine", {"amplitude": 0.8, "mode": 3}),
    PotentialSpec("Tabulated", {"values": [0.0, 1.0, 0.3, -1.0, -0.2]}),
    PotentialSpec("Constant", {"v0": -0.4}),
]


@pytest.mark.parametrize("h", [1e-4, 5e-3])
@pytest.mark.parametrize("V", _STEP_POTENTIALS, ids=lambda V: V.kind)
def test_step_matrix_matches_the_fft_half_steps(V, h):
    # The Toeplitz form of a half phase is exact, not an approximation:
    # B must agree with the FFT step to rounding at every K.
    for K in range(3, 33):
        for s in (2.0, 1.5):
            err = np.abs(_step_matrix(K, s, V, h)
                         - _fft_step_matrix(K, s, V, h)).max()
            assert err <= 1e-14, (K, s, err)


def test_strang_steps_make_one_fft_per_call(monkeypatch):
    # The step matrix is built from one FFT; no step makes another.
    calls = []
    for name in np.fft.__all__:
        real = getattr(np.fft, name)
        if callable(real):
            monkeypatch.setattr(np.fft, name, lambda *a, _f=real, _n=name,
                                **k: calls.append(_n) or _f(*a, **k))
    _, diag = evolve(_random_state(8, 3), _COSINE, 50e-4, dt=1e-4)
    assert diag.steps == 50
    assert calls == ["fft"]


def test_evolve_steps_are_products_with_the_step_matrix():
    # k steps of h must equal, bit for bit, k products of the state with
    # the step matrix, and the top-band share must be the largest of
    # energy in the top tenth over energy after each of them.
    u0 = _random_state(8, 3)
    V = PotentialSpec("Cosine", {"amplitude": 0.3, "mode": 1})
    h = 2.0 ** -8     # k h / k == h exactly, and h is below the dt cap
    B = _step_matrix(8, u0.s, V, h)
    top = np.abs(u0.modes) >= 8
    for k in range(1, 7):
        final, diag = evolve(u0, V, k * h, dt=h)
        assert diag.steps == k and diag.dt == h
        c, frac = u0.coeffs, 0.0
        for _ in range(k):
            c = c @ B
            frac = max(frac, float((np.abs(c[top]) ** 2).sum())
                       / float(np.vdot(c, c).real))
        assert np.array_equal(final.coeffs, c)
        assert diag.top_band_fraction == frac


def test_free_evolution_phases_and_norm():
    u0 = _random_state(5, 5)
    t = 0.37
    out = free_evolution(u0, t)
    n = u0.modes
    expected = u0.coeffs * np.exp(2j * np.pi * np.abs(n) ** 2.0 * t)
    np.testing.assert_allclose(out.coeffs, expected, rtol=1e-14)
    assert out.time == t
    assert out.norm_sq() == pytest.approx(u0.norm_sq(), rel=1e-14)


def test_evolve_argument_guards():
    u0 = _random_state(8, 4)
    V = PotentialSpec("Zero", {})
    with pytest.raises(ValueError):
        evolve(u0, V, -0.1, dt=None)
    with pytest.raises(ValueError):
        evolve(u0, V, 1.0, dt=0.02)
    narrow = _random_state(4, 3)
    with pytest.raises(ValueError):
        evolve(narrow, V, 1.0, dt=None)
    same, diag = evolve(u0, V, 0.0, dt=None)
    assert diag.steps == 0
    np.testing.assert_array_equal(same.coeffs, u0.coeffs)


def test_zero_potential_matches_closed_form():
    u0 = _random_state(16, 8)
    final, diag = evolve(u0, PotentialSpec("Zero", {}), 0.5, dt=None)
    ref = free_evolution(u0, 0.5)
    assert float(np.abs(final.coeffs - ref.coeffs).max()) <= 1e-12
    assert diag.steps == 50


def test_unitarity_under_cosine_potential():
    u0 = _random_state(16, 8)
    V = PotentialSpec("Cosine", {"amplitude": 0.8, "mode": 3})
    final, diag = evolve(u0, V, 1.0, dt=None)
    assert isinstance(diag, EvolveDiagnostics)
    assert abs(final.norm_sq() - u0.norm_sq()) <= 1e-10
    assert diag.norm_drift <= 1e-10
    assert diag.top_band_fraction <= 1e-8


def test_constant_potential_is_global_phase():
    u0 = _random_state(16, 8)
    v0, t = 0.4, 0.7
    final, _ = evolve(u0, PotentialSpec("Constant", {"v0": v0}), t, dt=None)
    ref = free_evolution(u0, t).coeffs * np.exp(-2j * np.pi * v0 * t)
    assert float(np.abs(final.coeffs - ref).max()) <= 1e-12


def test_splitting_is_second_order():
    u0 = _random_state(16, 8)
    V = PotentialSpec("Cosine", {"amplitude": 0.8, "mode": 3})
    t_final = 0.1
    ref, _ = evolve(u0, V, t_final, dt=t_final / 2048)
    errs = []
    for steps in (20, 40, 80):
        st, _ = evolve(u0, V, t_final, dt=t_final / steps)
        errs.append(float(np.linalg.norm(st.coeffs - ref.coeffs)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9
    assert max(orders) <= 2.3


def test_band_saturation_raises(mono2):
    c = np.zeros(9, dtype=complex)
    c[2:7] = 1.0  # active modes |n| <= 2 with K = 4: no spectral headroom
    u0 = TorusState(c, 0.0, 2.0, 4)
    V = PotentialSpec("Cosine", {"amplitude": 2.0, "mode": 3})
    with pytest.raises(ResolutionExceeded, match=r"^step \d+: .*top mode band"):
        evolve(u0, V, 1.0, dt=None)
    with pytest.raises(ResolutionExceeded, match=r"^t [\d.e-]+: .*top mode band"):
        evolve_trace(u0, V, mono2, 1.0)
    # Of a stack, only the row without headroom saturates, and the error
    # names it with the earliest node time at which its run alone
    # crossed 1e-8.
    weak = PotentialSpec("Cosine", {"amplitude": 0.05, "mode": 3})
    calm = np.zeros(9, dtype=complex)
    calm[4] = 1.0
    with pytest.raises(ResolutionExceeded) as alone:
        evolve_trace(u0, weak, mono2, 1.0)
    t = re.match(r"t ([\d.e-]+):", str(alone.value)).group(1)
    with pytest.raises(ResolutionExceeded,
                       match=rf"^t {re.escape(t)}, row 1: .*top mode band"):
        schrodinger._curve_traces(np.stack([calm, c]), 2.0, weak, mono2, 1.0)


def test_a_zero_initial_state_is_rejected_by_name(mono2):
    # ||c||^2 divides every band share: zero data must stop before it.
    zero = TorusState(np.zeros(9), 0.0, 2.0, 4)
    for run in (lambda: evolve(zero, _COSINE, 0.1, dt=None),
                lambda: evolve_trace(zero, _COSINE, mono2, 0.5)):
        with pytest.raises(ValueError, match="^the initial state is zero"):
            run()
    calm = np.zeros(9, dtype=complex)
    calm[4] = 1.0
    with pytest.raises(ValueError, match="^row 1 of the initial states is zero"):
        schrodinger._curve_traces(np.stack([calm, zero.coeffs]), 2.0, _COSINE,
                                  mono2, 0.5)


def test_a_non_finite_coefficient_is_rejected_by_name(mono2):
    # A NaN state would evolve into NaN with a norm drift of 0.0.
    bad = TorusState([0, 0, 1, 0, np.nan, 0, 1, 0, 0], 0.0, 2.0, 4)
    for run in (lambda: evolve(bad, _COSINE, 0.1, dt=None),
                lambda: evolve_trace(bad, _COSINE, mono2, 0.5)):
        with pytest.raises(ValueError, match=r"^the initial state has the "
                           r"non-finite coefficient \(nan\+0j\) at mode 0$"):
            run()
    calm = np.zeros(9, dtype=complex)
    calm[4] = 1.0
    inf = calm.copy()
    inf[6] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match=r"^row 1 of the initial states has the "
                       r"non-finite coefficient infj at mode 2$"):
        schrodinger._curve_traces(np.stack([calm, inf]), 2.0, _COSINE, mono2, 0.5)


def test_evolve_past_the_step_budget_raises_before_the_step_matrix(monkeypatch):
    u0 = _random_state(4, 2)
    budget = schrodinger._MAX_STEPS
    monkeypatch.setattr(schrodinger, "_MAX_STEPS", 4)
    assert evolve(u0, _ZERO, 0.02, dt=0.005)[1].steps == 4

    def forbidden(*args, **kwargs):
        raise AssertionError("step matrix built past the step budget")

    monkeypatch.setattr(schrodinger, "_step_matrix", forbidden)
    with pytest.raises(ValueError, match=r"^T = 0\.025 at dt = 5\.000e-03 takes 5 "
                       r"steps, more than the step budget 4$"):
        evolve(u0, _ZERO, 0.025, dt=0.005)
    monkeypatch.setattr(schrodinger, "_MAX_STEPS", budget)
    with pytest.raises(ValueError, match=rf"^T = 1e\+300 at dt = 9\.091e-03 takes "
                       rf"1\.1e\+302 steps, more than the step budget {budget}$"):
        evolve(u0, _COSINE, 1e300, dt=None)


def test_picard_cross_checks_strang():
    u0 = _random_state(16, 8)
    V = PotentialSpec("Cosine", {"amplitude": 0.2, "mode": 2})
    pic = picard_iterate(u0, V, 0.4, n_iter=4)
    st, _ = evolve(u0, V, 0.4, dt=0.4 / 512)
    rel = float(np.abs(pic.coeffs - st.coeffs).max()) / np.linalg.norm(u0.coeffs)
    assert rel <= 2e-5
    with pytest.raises(ValueError):
        picard_iterate(u0, PotentialSpec("Constant", {"v0": 1.0}), 0.2)


# ---------------------------------------------------------------------------
# traces along curves
# ---------------------------------------------------------------------------

_ZERO = PotentialSpec("Zero", {})
# Asymmetric samples: vhat is complex, so a transposed Vhat is a
# different generator.
_TILTED = PotentialSpec("Tabulated", {"values": [0.0, 0.1, 0.03, -0.1, -0.02]})


def _galerkin_generator(K, s, V):
    """L of the flow c(t) = c expm(2 pi i t L) on modes -K..K, row k the
    coefficients of |n|^s e_k - V e_k: each product is taken on the
    M = 4K + 4 grid through the oracle's pad and truncate, not read off
    a Toeplitz table."""
    M = 4 * K + 4
    vals = np.fft.ifft(pad_spectrum(np.eye(2 * K + 1), K, M)) * M
    vhat = truncate_spectrum(np.fft.fft(vals * V.values(M)) / M, K)
    return np.diag(abs_pow(np.arange(-K, K + 1), s)) - vhat


def _expm_trace(c, s, V, curve, edges):
    """integral |u(t, p(t))|^2 dt from edges[0] to edges[-1] with c(t) =
    c expm(2 pi i t L) at every node of numpy's 20-point Gauss-Legendre
    rule on the panels between edges."""
    K = c.size // 2
    L = _galerkin_generator(K, s, V)
    x, w = np.polynomial.legendre.leggauss(20)
    half = 0.5 * np.diff(edges)
    total = 0.0
    for mid, h in zip(0.5 * (edges[:-1] + edges[1:]), half):
        for xj, wj in zip(x, w):
            t = mid + h * xj
            u = (c @ expm(2j * np.pi * t * L)) @ np.exp(
                2j * np.pi * np.arange(-K, K + 1) * float(curve.p(t)))
            total += h * wj * abs(u) ** 2
    return total


def _strang_simpson_trace(c, s, V, curve, T, steps):
    """The trace sampled at the Strang step times and integrated by
    composite Simpson, as the stepper alone would give it."""
    K = c.size // 2
    times = np.linspace(0.0, T, steps + 1)
    waves = np.exp(2j * np.pi * np.outer(np.mod(curve.p(times), 1.0),
                                         np.arange(-K, K + 1)))
    B = _step_matrix(K, s, V, T / steps)
    states = [c]
    for _ in range(steps):
        states.append(states[-1] @ B)
    samples = [abs(waves[k] @ states[k]) ** 2 for k in range(steps + 1)]
    return float(simpson_weights(steps + 1, T / steps) @ samples)


@pytest.mark.parametrize("V", [_TILTED, PotentialSpec("Cosine", {"amplitude": 0.3,
                                                                 "mode": 1})],
                         ids=lambda V: V.kind)
def test_exact_trace_matches_expm_at_every_node(mono2, V):
    # The oracle builds its generator from FFT products and takes expm at
    # each node of its own rule: no eigh, no panels, no Kronrod.
    u0 = _random_state(8, 2)
    T = 0.4
    trace, err = evolve_trace(u0, V, mono2, T)
    want = _expm_trace(u0.coeffs, u0.s, V, mono2, np.linspace(0.0, T, 41))
    assert abs(trace - want) <= 1e-12 * want
    assert 0.0 <= err <= 1e-12 * u0.norm_sq() * T


def test_trace_along_a_tabulated_curve_breaks_panels_at_its_knots():
    # p is piecewise linear between the samples: |u|^2 has a kink at
    # each knot, which a panel must not straddle.
    t = np.linspace(0.0, 1.0, 11)
    curve = build_curve("UserTabulated", {"t": list(t), "p": list(t ** 2),
                                          "dp": list(2 * t), "d2p": [2.0] * 11})
    u0 = _random_state(8, 2)
    V = PotentialSpec("Cosine", {"amplitude": 0.3, "mode": 1})
    T = 0.75
    trace, _ = evolve_trace(u0, V, curve, T)
    edges = np.union1d(np.linspace(0.0, T, 31), t[t < T])
    want = _expm_trace(u0.coeffs, u0.s, V, curve, edges)
    assert abs(trace - want) <= 1e-12 * want


def test_panels_taken_in_blocks_give_the_same_trace(mono2, monkeypatch):
    u0 = _random_state(8, 2)
    whole, _ = evolve_trace(u0, _TILTED, mono2, 0.4)
    monkeypatch.setattr(schrodinger, "_BLOCK", 1)     # one panel per block
    split, _ = evolve_trace(u0, _TILTED, mono2, 0.4)
    assert abs(split - whole) <= 1e-14 * whole


def test_strang_trace_converges_to_the_exact_trace_at_second_order(mono2):
    # The step-sampled Simpson trace carries the O(dt^2) Strang error of
    # its states; as dt halves it must close on the exact trace at that
    # order.
    u0 = _random_state(6, 3)
    V = PotentialSpec("Cosine", {"amplitude": 0.3, "mode": 1})
    T = 0.5
    exact, _ = evolve_trace(u0, V, mono2, T)
    errs = [abs(_strang_simpson_trace(u0.coeffs, u0.s, V, mono2, T, steps) - exact)
            for steps in (200, 400, 800, 1600)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert errs[0] <= 1e-5 * exact
    assert all(1.9 <= o <= 2.1 for o in orders), orders


def test_free_trace_equals_gram_quadratic_form(mono2):
    rng = np.random.default_rng(3)
    K, s, T = 3, 2.0, 1.5
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    u0 = TorusState(c, 0.0, s, K)
    system = curve_system(range(-K, K + 1), s, mono2, T)
    G = gram_matrix(system, tol=1e-10)
    # the Gram quadratic form at conj(c) synthesizes exactly this trace
    qf = float(np.real(c @ (G.entries @ np.conj(c))))
    tr, err = trace_along_curve(u0, mono2, T)
    assert abs(tr - qf) <= 1e-6 * qf
    assert abs(tr - quadratic_form_quadrature(system, np.conj(c))) <= 1e-12 * tr
    assert 0.0 <= err <= 1e-12 * u0.norm_sq() * T


def test_evolve_trace_zero_potential_matches_free_trace(mono2):
    rng = np.random.default_rng(3)
    K, s, T = 6, 2.0, 1.5
    c = np.zeros(2 * K + 1, dtype=complex)
    c[K - 3:K + 4] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    u0 = TorusState(c, 0.0, s, K)
    free_tr, _ = trace_along_curve(u0, mono2, T)
    split_tr, _ = evolve_trace(u0, _ZERO, mono2, T)
    assert abs(split_tr - free_tr) <= 1e-8 * free_tr


def test_constant_potential_leaves_the_trace_unchanged(mono2):
    # A constant V only turns the phase of the whole state.
    u0 = _random_state(8, 4)
    T = 0.7
    free_tr, _ = evolve_trace(u0, _ZERO, mono2, T)
    const_tr, _ = evolve_trace(u0, PotentialSpec("Constant", {"v0": 0.4}),
                               mono2, T)
    assert abs(const_tr - free_tr) <= 1e-13 * free_tr


def test_translated_curve_matches_modulated_data(mono2):
    rng = np.random.default_rng(3)
    K, s, T, a = 3, 2.0, 1.5, 0.3
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    u0 = TorusState(c, 0.0, s, K)
    shifted = TorusState(c * np.exp(2j * np.pi * u0.modes * a), 0.0, s, K)
    raised = build_curve("Monomial", {"a": a, "b": 1.0, "alpha": 2.0})
    tr_path, _ = trace_along_curve(u0, raised, T)
    tr_data, _ = trace_along_curve(shifted, mono2, T)
    assert abs(tr_path - tr_data) <= 1e-12 * tr_data


def test_stacked_trace_samples_match_a_scalar_loop(mono2, monkeypatch):
    # Each row of a stack must keep the bits, trace and error, of
    # evolve_trace run on it alone.  The tolerance is set at the median
    # of the rows' first-pass errors, so some rows finish on the first
    # panels and the rest on halved ones, taken as a smaller stack.
    rng = np.random.default_rng(2)
    K, R, T = 6, 200, 0.3
    stack = np.zeros((R, 2 * K + 1), dtype=complex)
    stack[:, K - 3:K + 4] = (rng.standard_normal((R, 7))
                             + 1j * rng.standard_normal((R, 7)))
    V = PotentialSpec("Cosine", {"amplitude": 0.3, "mode": 1})
    monkeypatch.setattr(schrodinger, "_CYCLES_PER_PANEL", 6.0)
    monkeypatch.setattr(schrodinger, "_TRACE_TOL", 1.0)
    _, first = schrodinger._curve_traces(stack, 2.0, V, mono2, T)
    mass = (np.abs(stack) ** 2).sum(axis=1)
    monkeypatch.setattr(schrodinger, "_TRACE_TOL",
                        float(np.median(np.array(first) / (mass * T))))
    passes = []
    real = schrodinger._panel_sums

    def spy(a, *args):
        passes.append(len(a))
        return real(a, *args)

    monkeypatch.setattr(schrodinger, "_panel_sums", spy)
    traces, errs = schrodinger._curve_traces(stack, 2.0, V, mono2, T)
    assert passes[0] == R and 0 < passes[1] < R
    passes.clear()
    alone = [evolve_trace(TorusState(row, 0.0, 2.0, K), V, mono2, T)
             for row in stack]
    assert set(passes) == {1}
    assert traces == [tr for tr, _ in alone]
    assert errs == [err for _, err in alone]


def test_trace_error_counts_every_panel(mono2, monkeypatch):
    # Below the tolerance on every pass, the trace raises and names T, K
    # and the error it reached.
    monkeypatch.setattr(schrodinger, "_TRACE_TOL", 0.0)
    with pytest.raises(ToleranceNotMet,
                       match=r"^trace at T = 0\.3, K = 8: quadrature error "):
        evolve_trace(_random_state(8, 3), _COSINE, mono2, 0.3)


def test_a_curve_with_an_infinite_slope_is_rejected_before_anything_is_built(
        monkeypatch):
    # p = t^(1/2) + t^(5/2) has p'(0) infinite, so no panel count bounds
    # the phase speed of a trace.
    def forbidden(*args, **kwargs):
        raise AssertionError("built for a curve without a finite slope")

    for name in ("_generator", "gram_matrix"):
        monkeypatch.setattr(schrodinger, name, forbidden)
    muntz = build_curve("Muntz", {"coefficients": [[1.0, 0.5], [1.0, 2.5]],
                                  "t0": 0.0})
    message = (r"^a trace needs a finite p' on \[0, T\]; the Muntz curve's "
               r"p' is not finite on \[0, 0\.5\]$")
    with pytest.raises(ValueError, match=message):
        trace_bound_experiment(muntz, 2.0, _ZERO, 0.5, K=3, n_random=1,
                               seed=DEFAULT_SEED)
    with pytest.raises(ValueError, match=message):
        evolve_trace(_random_state(6, 3), _COSINE, muntz, 0.5)


def test_a_trace_past_the_panel_budget_raises_before_its_edges(mono2, monkeypatch):
    # The first pass of a long trace along a parabola needs about
    # (2K T)^2 / 2 panels: past the budget it must stop before building
    # a panel.  So must a halving pass that would cross the budget.
    def forbidden(*args, **kwargs):
        raise AssertionError("panels built past the budget")

    u0 = _random_state(8, 3)
    real = schrodinger._panel_sums
    monkeypatch.setattr(schrodinger, "_panel_sums", forbidden)
    with pytest.raises(ToleranceNotMet, match=r"^trace at T = 300\.0, K = 8: "
                       r"\d+ panels exceed the panel budget 1048576$"):
        evolve_trace(u0, _COSINE, mono2, 300.0)
    passes = []

    def spy(a, lam, Q, mass, curve, edges, rows):
        passes.append(edges.size - 1)
        return real(a, lam, Q, mass, curve, edges, rows)

    monkeypatch.setattr(schrodinger, "_panel_sums", spy)
    monkeypatch.setattr(schrodinger, "_TRACE_TOL", 0.0)   # every pass halves
    with pytest.raises(ToleranceNotMet, match="after 4 panel halvings$"):
        evolve_trace(u0, _COSINE, mono2, 0.3)
    first = passes[0]
    passes.clear()
    monkeypatch.setattr(quad, "PANEL_BUDGET", 2 * first - 1)
    with pytest.raises(ToleranceNotMet, match=rf"^trace at T = 0\.3, K = 8: "
                       rf"{2 * first} panels exceed the panel budget "
                       rf"{2 * first - 1}$"):
        evolve_trace(u0, _COSINE, mono2, 0.3)
    assert passes == [first]


def test_trace_argument_guards(mono2):
    u0 = _random_state(6, 3)
    for T in (0.0, float("nan")):
        with pytest.raises(ValueError, match="^T must be positive"):
            trace_along_curve(u0, mono2, T)
    narrow = _random_state(4, 3)
    with pytest.raises(ValueError):
        evolve_trace(narrow, _ZERO, mono2, 1.0)


def test_band_cap_is_checked_before_anything_is_built(mono2, monkeypatch):
    # No step matrix, generator, eigh or Gram may run past the cap.
    def forbidden(*args, **kwargs):
        raise AssertionError("built past the band cap")

    for name in ("_step_matrix", "_generator", "gram_matrix"):
        monkeypatch.setattr(schrodinger, name, forbidden)
    monkeypatch.setattr(schrodinger.np.linalg, "eigh", forbidden)
    cap = schrodinger._MAX_BAND
    wide = TorusState(np.zeros(2 * cap + 3, dtype=complex), 0.0, 2.0, cap + 1)
    for run in (lambda: evolve(wide, _COSINE, 0.1, dt=None),
                lambda: evolve_trace(wide, _COSINE, mono2, 0.1)):
        with pytest.raises(ValueError, match=rf"^K must be at most {cap}, "
                                             rf"got {cap + 1}$"):
            run()
    with pytest.raises(ValueError, match=rf"^K must be at most {cap // 2}: "
                                         rf".* capped at {cap}; got {cap // 2 + 1}$"):
        trace_bound_experiment(mono2, 2.0, _COSINE, 0.5, K=cap // 2 + 1,
                               n_random=0, seed=DEFAULT_SEED)


@pytest.mark.parametrize("call, name", [
    (lambda c: evolve(_random_state(8, 4), _ZERO, 0.1, dt=0.0), "dt"),
    (lambda c: evolve_trace(_random_state(8, 0), _COSINE, c, 0.0), "T"),
    (lambda c: evolve_trace(_random_state(8, 0), _COSINE, c, -0.5), "T"),
    (lambda c: trace_bound_experiment(c, 2.0, _ZERO, 0.5,
                                      K=1, n_random=1, seed=DEFAULT_SEED), "K"),
    (lambda c: trace_bound_experiment(c, 2.0, _COSINE, 0.5, K=3,
                                      n_random=-3, seed=DEFAULT_SEED), "n_random"),
], ids=["evolve-dt0", "evolve_trace-T0", "evolve_trace-T-negative",
        "trace_bound-K1", "trace_bound-n_random-negative"])
def test_degenerate_arguments_name_the_parameter(mono2, call, name):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        call(mono2)


def test_trace_bound_experiment_free_case(mono2):
    result = trace_bound_experiment(mono2, 2.0, _ZERO, 1.0,
                                    K=4, n_random=2, seed=7)
    assert result.trial_names == ["mode_0", "mode_3", "mode_4", "two_mode_j2",
                                  "two_mode_j4", "gram_min_vec", "random_0",
                                  "random_1"]
    assert all(r > 0 for r in result.ratios)
    assert result.min_ratio <= result.max_ratio
    assert result.max_ratio == max(result.ratios)
    assert result.V_sup == 0.0
    # a single mode has |u|^2 = 1 along any curve
    assert abs(result.ratios[0] - 1.0) <= 1e-14
    assert 0.0 <= result.trace_err <= 1e-12


def test_trace_bound_experiment_with_potential(mono2, monkeypatch):
    # The trials advance together in one stack; each ratio and its error
    # must keep the bits of evolve_trace run alone on that trial's padded
    # state.
    stacks = []
    real = schrodinger._curve_traces

    def spy(coeffs, *args):
        stacks.append(coeffs.copy())
        return real(coeffs, *args)

    monkeypatch.setattr(schrodinger, "_curve_traces", spy)
    V = PotentialSpec("Cosine", {"amplitude": 0.3, "mode": 1})
    result = trace_bound_experiment(mono2, 2.0, V, 0.5, K=3, n_random=1, seed=7)
    assert result.V_sup == 0.3
    assert len(result.trial_names) == len(result.ratios)
    assert all(r > 0 for r in result.ratios)
    assert result.min_ratio <= result.max_ratio
    assert stacks[0].shape == (len(result.ratios), 13)
    errs = []
    for row, ratio in zip(stacks[0], result.ratios):
        u0 = TorusState(row, 0.0, 2.0, 6)
        trace, err = evolve_trace(u0, V, mono2, 0.5)
        assert ratio == trace / u0.norm_sq()
        errs.append(err / u0.norm_sq())
    assert result.trace_err == max(errs)
