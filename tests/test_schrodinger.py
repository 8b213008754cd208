"""Tests for the fractional split-step solver and curve-trace tools:
state plumbing, potential evaluation, exactness for V = 0 and constant
V, unitarity, second-order self-convergence, the Duhamel cross-check,
and the trace identities against the Gram quadratic form."""

import re

import numpy as np
import pytest
from scipy.integrate import simpson

from _oracles import free_evolution, pad_spectrum, picard_iterate, truncate_spectrum
from inghamlab import DEFAULT_SEED, schrodinger
from inghamlab.classify import abs_pow
from inghamlab.curves import build_curve
from inghamlab.errors import ResolutionExceeded
from inghamlab.riesz import curve_system, gram_matrix
from inghamlab.schrodinger import (
    EvolveDiagnostics,
    PotentialSpec,
    TorusState,
    _step_matrix,
    _strang_steps,
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
    u0 = _random_state(8, 3)
    for coeffs in (u0.coeffs, np.stack([u0.coeffs, u0.coeffs[::-1]])):
        calls.clear()
        assert len(list(_strang_steps(coeffs, u0.s, _COSINE, 1e-4,
                                      steps=50))) == 50
        assert calls == ["fft"]


def test_strang_steps_match_fresh_arrays_and_keep_each_yield():
    # Every yielded array must keep its value through later steps and
    # equal, bit for bit, a step that multiplies a new array by the step
    # matrix.  A stack of states advances through one product per row:
    # each of its rows must equal, bit for bit, the run of that state
    # alone.
    u0 = _random_state(8, 3)
    V = PotentialSpec("Cosine", {"amplitude": 0.8, "mode": 3})
    h = 0.01
    B = _step_matrix(8, u0.s, V, h)
    kept = list(_strang_steps(u0.coeffs, u0.s, V, h, 6))
    top = np.abs(u0.modes) >= 8
    c = u0.coeffs
    for got, frac in kept:
        c = c @ B
        assert np.array_equal(got, c)
        assert frac == (float((np.abs(c[top]) ** 2).sum())
                        / float(np.vdot(c, c).real))
    other = _random_state(8, 4, seed=12)
    stack = np.stack([other.coeffs, u0.coeffs])
    alone = [list(_strang_steps(row, u0.s, V, h, 6)) for row in stack]
    for k, (rows, fracs) in enumerate(_strang_steps(stack, u0.s, V, h, 6)):
        for r in range(2):
            assert np.array_equal(rows[r], alone[r][k][0])
            assert fracs[r] == alone[r][k][1]


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
    for run in (lambda: evolve(u0, V, 1.0, dt=None),
                lambda: evolve_trace(u0, V, mono2, 1.0, dt=None)):
        with pytest.raises(ResolutionExceeded,
                           match=r"^step \d+: .*top mode band"):
            run()
    # Of a stack, only the row without headroom saturates, and the error
    # names it with the step at which its run alone crossed 1e-8.
    weak = PotentialSpec("Cosine", {"amplitude": 0.05, "mode": 3})
    with pytest.raises(ResolutionExceeded) as alone:
        for _ in _strang_steps(c, 2.0, weak, 2e-4, 100):
            pass
    step = int(re.match(r"step (\d+):", str(alone.value)).group(1))
    assert step > 1
    calm = np.zeros(9, dtype=complex)
    calm[4] = 1.0
    with pytest.raises(ResolutionExceeded,
                       match=rf"^step {step}, row 1: .*top mode band"):
        for _ in _strang_steps(np.stack([calm, c]), 2.0, weak, 2e-4, 100):
            pass


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

def test_free_trace_equals_gram_quadratic_form(mono2):
    rng = np.random.default_rng(3)
    K, s, T = 3, 2.0, 1.5
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    u0 = TorusState(c, 0.0, s, K)
    G = gram_matrix(curve_system(range(-K, K + 1), s, mono2, T), tol=1e-10)
    # the Gram quadratic form at conj(c) synthesizes exactly this trace
    qf = float(np.real(c @ (G.entries @ np.conj(c))))
    tr = trace_along_curve(u0, mono2, T)
    assert abs(tr - qf) <= 1e-6 * qf


def test_evolve_trace_zero_potential_matches_free_trace(mono2):
    rng = np.random.default_rng(3)
    K, s, T = 6, 2.0, 1.5
    c = np.zeros(2 * K + 1, dtype=complex)
    c[K - 3:K + 4] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    u0 = TorusState(c, 0.0, s, K)
    free_tr = trace_along_curve(u0, mono2, T)
    split_tr = evolve_trace(u0, PotentialSpec("Zero", {}), mono2, T, dt=None)
    assert abs(split_tr - free_tr) <= 1e-8 * free_tr


def test_translated_curve_matches_modulated_data(mono2):
    rng = np.random.default_rng(3)
    K, s, T, a = 3, 2.0, 1.5, 0.3
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    u0 = TorusState(c, 0.0, s, K)
    shifted = TorusState(c * np.exp(2j * np.pi * u0.modes * a), 0.0, s, K)
    raised = build_curve("Monomial", {"a": a, "b": 1.0, "alpha": 2.0})
    tr_path = trace_along_curve(u0, raised, T)
    tr_data = trace_along_curve(shifted, mono2, T)
    assert abs(tr_path - tr_data) <= 1e-12 * tr_data


def test_stacked_trace_samples_match_a_scalar_loop(mono2):
    # The trace samples every row of its stack at once; each trace must
    # keep the bits of the scalar abs(phases[k] @ c) ** 2 per row and
    # step, integrated row by row.  Two steps keep each sample's last bit
    # visible in the Simpson sum, and 4,000 rows let a rounding that
    # differs in one sample of a thousand show.
    rng = np.random.default_rng(2)
    K, R = 6, 4000
    stack = np.zeros((R, 2 * K + 1), dtype=complex)
    stack[:, K - 3:K + 4] = (rng.standard_normal((R, 7))
                             + 1j * rng.standard_normal((R, 7)))
    V = PotentialSpec("Cosine", {"amplitude": 0.3, "mode": 1})
    T, steps = 0.001, 2
    times = np.linspace(0.0, T, steps + 1)
    phases = np.exp(2j * np.pi * np.outer(np.mod(mono2.p(times), 1.0),
                                          np.arange(-K, K + 1)))
    states = [stack] + [c for c, _ in _strang_steps(
        stack, 2.0, V, times[1] - times[0], steps)]
    want = [float(simpson([abs(phases[k] @ states[k][r]) ** 2
                           for k in range(steps + 1)], x=times))
            for r in range(R)]
    got = schrodinger._curve_traces(stack, 2.0, V, mono2, T, dt=T / steps)
    assert got == want


def test_trace_argument_guards(mono2):
    u0 = _random_state(6, 3)
    for T in (0.0, float("nan")):
        with pytest.raises(ValueError, match="T > 0"):
            trace_along_curve(u0, mono2, T)
    narrow = _random_state(4, 3)
    with pytest.raises(ValueError):
        evolve_trace(narrow, PotentialSpec("Zero", {}), mono2, 1.0, dt=None)


@pytest.mark.parametrize("call, name", [
    (lambda c: evolve(_random_state(8, 4), PotentialSpec("Zero", {}), 0.1,
                      dt=0.0), "dt"),
    (lambda c: evolve_trace(_random_state(8, 4), PotentialSpec("Zero", {}),
                            c, 0.1, dt=0.0), "dt"),
    (lambda c: evolve_trace(_random_state(8, 4), PotentialSpec("Zero", {}),
                            c, 0.1, dt=0.009), "dt"),
    (lambda c: evolve_trace(_random_state(8, 0), _COSINE, c, 0.0, dt=None), "T"),
    (lambda c: evolve_trace(_random_state(8, 0), _COSINE, c, -0.5, dt=None), "T"),
    (lambda c: trace_bound_experiment(c, 2.0, PotentialSpec("Zero", {}), 0.5,
                                      K=1, n_random=1, seed=DEFAULT_SEED), "K"),
    (lambda c: trace_bound_experiment(c, 2.0, _COSINE, 0.5, K=3,
                                      n_random=-3, seed=DEFAULT_SEED), "n_random"),
], ids=["evolve-dt0", "evolve_trace-dt0", "evolve_trace-dt-above-cap",
        "evolve_trace-T0", "evolve_trace-T-negative", "trace_bound-K1",
        "trace_bound-n_random-negative"])
def test_degenerate_arguments_name_the_parameter(mono2, call, name):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        call(mono2)


def test_trace_bound_experiment_free_case(mono2):
    result = trace_bound_experiment(mono2, 2.0, PotentialSpec("Zero", {}), 1.0,
                                    K=4, n_random=2, seed=7)
    assert result.trial_names == ["mode_0", "mode_3", "mode_4", "two_mode_j2",
                                  "two_mode_j4", "gram_min_vec", "random_0",
                                  "random_1"]
    assert all(r > 0 for r in result.ratios)
    assert result.min_ratio <= result.max_ratio
    assert result.max_ratio == max(result.ratios)
    assert result.V_sup == 0.0


def test_trace_bound_experiment_with_potential(mono2, monkeypatch):
    # The trials advance together in one stack; each ratio must keep the
    # bits of evolve_trace run alone on that trial's padded state.
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
    for row, ratio in zip(stacks[0], result.ratios):
        u0 = TorusState(row, 0.0, 2.0, 6)
        assert ratio == evolve_trace(u0, V, mono2, 0.5, dt=None) / u0.norm_sq()
