"""The embedded 10/21-point Gauss-Kronrod rule against an independent
30-digit construction, and the bracket bisection that every root search
shares."""

import mpmath
import numpy as np

from inghamlab import oscint, quad


def _legendre_coefficients(n):
    """Coefficients of P_n, lowest degree first, as exact mpf values."""
    c = [mpmath.mpf(0)] * (n + 1)
    for k in range(n // 2 + 1):
        c[n - 2 * k] = ((-1) ** k * mpmath.binomial(n, k)
                        * mpmath.binomial(2 * n - 2 * k, n) / mpmath.mpf(2) ** n)
    return c


def _moment(k):
    """integral_{-1}^{1} x^k dx."""
    return mpmath.mpf(2) / (k + 1) if k % 2 == 0 else mpmath.mpf(0)


def _kronrod21_mpmath():
    """The 21-point Kronrod extension of the 10-point Gauss rule: the
    Gauss nodes (roots of P_10), the roots of the monic degree-11
    Stieltjes polynomial E, whose product with P_10 is orthogonal to
    x^0 .. x^10, and the weights that integrate P_0 .. P_20 exactly."""
    with mpmath.workdps(40):
        p10 = _legendre_coefficients(10)

        def pe_moment(k):   # integral of P_10(x) x^k
            return mpmath.fsum(c * _moment(i + k) for i, c in enumerate(p10))

        A = mpmath.matrix(11, 11)
        rhs = mpmath.matrix(11, 1)
        for k in range(11):
            for i in range(11):
                A[k, i] = pe_moment(k + i)
            rhs[k] = -pe_moment(k + 11)
        e = mpmath.lu_solve(A, rhs)
        stieltjes = [mpmath.mpf(1)] + [e[i] for i in range(10, -1, -1)]
        kronrod = sorted(mpmath.re(r) for r in mpmath.polyroots(
            stieltjes, maxsteps=400, extraprec=200))
        gauss = sorted(mpmath.re(r) for r in mpmath.polyroots(
            p10[::-1], maxsteps=400, extraprec=200))
        nodes = gauss + kronrod
        V = mpmath.matrix(21, 21)
        b = mpmath.matrix(21, 1)
        for k in range(21):
            for j, x in enumerate(nodes):
                V[k, j] = mpmath.legendre(k, x)
            b[k] = 2 if k == 0 else 0
        w = mpmath.lu_solve(V, b)
        return (np.array([float(x) for x in nodes]),
                np.array([float(w[j]) for j in range(21)]))


def test_kronrod21_matches_an_independent_30_digit_construction():
    x, wk, wg = quad.gauss_kronrod21()
    want_x, want_w = _kronrod21_mpmath()
    assert np.abs(x - want_x).max() <= 1e-14
    assert np.abs(wk - want_w).max() <= 1e-14


def test_kronrod21_is_exact_to_degree_31_and_embeds_gauss10():
    x, wk, wg = quad.gauss_kronrod21()
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(wk @ x ** k - exact) <= 1e-14, k
    assert abs(wk @ x ** 32 - 2.0 / 33) > 1e-12   # and no further
    gx, gw = np.polynomial.legendre.leggauss(10)
    assert np.array_equal(x[:10], gx)
    assert np.array_equal(wg, gw)
    # the 11 Kronrod nodes interlace the Gauss nodes strictly
    merged = np.sort(x)
    assert np.all(np.diff(merged) > 0)
    assert np.array_equal(merged[1::2], gx)


def test_gl_grid_covers_the_interval_with_order_10_panels():
    t, w = quad.gl_grid(0.5, 2.5, 4)
    assert t.shape == w.shape == (40,)
    assert 0.5 < t.min() and t.max() < 2.5
    assert abs(w.sum() - 2.0) <= 1e-14
    assert abs(w @ t ** 19 - (2.5 ** 20 - 0.5 ** 20) / 20) <= 1e-9


def _counted(f, limit=200):
    """f with a call counter that raises past `limit` calls, so that a
    bisection which cannot stop fails instead of hanging."""
    calls = []

    def g(t):
        calls.append(t)
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} evaluations")
        return f(t)
    return g, calls


def test_bisect_stops_when_no_float_lies_inside_the_bracket():
    # Past t = 512 adjacent floats are 1.14e-13 apart, so a 1e-13 width is
    # never reached and only the float-spacing test can stop the loop.
    step = 700.3123456789
    f, calls = _counted(lambda t: -1.0 if t < step else 1.0)
    root = quad.bisect(f, 0.0, 1400.0, -1.0, lambda hi: 1e-13)
    assert abs(root - step) <= 2 * np.spacing(step)
    assert len(calls) < 60


def test_sign_change_roots_terminate_past_t_512():
    step = 700.3123456789
    f, _ = _counted(lambda t: np.where(t < step, -1.0, 1.0), limit=1000)
    roots = oscint._sign_change_roots(f, 1400.0)
    assert len(roots) == 1 and abs(roots[0] - step) <= 2 * np.spacing(step)


def test_bisect_stops_at_the_requested_width():
    f, calls = _counted(lambda t: t - 0.3)
    root = quad.bisect(f, 0.0, 1.0, -0.3, lambda hi: 1e-3)
    assert abs(root - 0.3) <= 0.5e-3
    assert len(calls) == 10          # 2^-10 < 1e-3 < 2^-9


def test_bisect_returns_an_exact_zero_at_a_midpoint():
    f, calls = _counted(lambda t: t - 0.75)
    assert quad.bisect(f, 0.5, 1.0, -0.25, lambda hi: 1e-15) == 0.75
    assert calls == [0.75]
