import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from radialmasa.algebra import chi_support_size, radial_moment_exact
from radialmasa.errors import QuadratureError
from radialmasa.spectral import (
    SpectralParams,
    chi_eval_recurrence,
    chi_table,
    kesten_density,
    lambda_rule,
    quad_lambda,
    trig_sum,
    trig_sum_partial,
)

P2 = SpectralParams(2)
P3 = SpectralParams(3)


# ---------------------------------------------------------------- params


def test_derived_constants():
    assert P2.degree == 4
    assert P2.branching == 3
    assert P2.halfwidth == pytest.approx(2 * math.sqrt(3))
    assert P2.halfwidth**2 == pytest.approx(4 * P2.branching)
    assert 0 < P2.branching / P2.degree < 1
    with pytest.raises(ValueError):
        SpectralParams(1)


# ---------------------------------------------------------------- recurrence evaluation


def symbolic_chi_coeffs(n, rank):
    """Exact coefficient expansion of the recurrence; independent oracle."""
    p_prev = [Fraction(1)]
    if n == 0:
        return p_prev
    p_cur = [Fraction(0), Fraction(1)]
    for k in range(1, n):
        coeff = 2 * rank if k == 1 else 2 * rank - 1
        shifted = [Fraction(0)] + p_cur
        nxt = [
            shifted[i] - (coeff * p_prev[i] if i < len(p_prev) else 0)
            for i in range(len(shifted))
        ]
        p_prev, p_cur = p_cur, nxt
    return p_cur


def test_symbolic_cubic():
    for rank in (2, 3, 5):
        coeffs = symbolic_chi_coeffs(3, rank)
        assert coeffs == [0, -(4 * rank - 1), 0, 1]


def test_recurrence_against_symbolic():
    for rank in (2, 3):
        params = SpectralParams(rank)
        ts = np.linspace(-params.halfwidth, params.halfwidth, 31)
        for n in range(9):
            coeffs = symbolic_chi_coeffs(n, rank)
            for t in ts:
                direct = sum(float(c) * t**i for i, c in enumerate(coeffs))
                assert chi_eval_recurrence(n, t, params) == pytest.approx(
                    direct, abs=1e-9, rel=1e-12
                )


def test_recurrence_point_values():
    assert chi_eval_recurrence(2, 0.0, P2) == -4.0
    assert chi_eval_recurrence(0, 1.0, P2) == 1.0
    assert chi_eval_recurrence(1, 0.7, P2) == pytest.approx(0.7)


def test_recurrence_vectorized():
    ts = np.linspace(-1, 1, 5)
    vals = chi_eval_recurrence(3, ts, P2)
    assert vals.shape == ts.shape
    assert vals[2] == 0.0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_recurrence_returns_a_fresh_array(n):
    ts = np.linspace(-1.0, 1.0, 5)
    before = ts.copy()
    vals = chi_eval_recurrence(n, ts, P2)
    vals += 1.0
    assert np.array_equal(ts, before)


def test_out_of_spectrum_warns():
    with pytest.warns(UserWarning):
        chi_eval_recurrence(2, P2.halfwidth + 1.0, P2)
    with pytest.warns(UserWarning):
        chi_eval_recurrence(2, np.array([0.0, math.nan]), P2)


def p_loop(n, t, params):
    """p_n(t) by chi_eval_recurrence's own loop before chi_table."""
    t = np.array(t, dtype=float)
    ones = np.ones_like(t)
    if n == 0:
        return ones
    prev, cur = ones, t
    for k in range(1, n):
        coeff = params.degree if k == 1 else params.branching
        prev, cur = cur, t * cur - coeff * prev
    return cur


def g_loop(t, max_n, params):
    """g_0..g_max_n by the density series' own loop before chi_table."""
    t = np.asarray(t, dtype=float)
    out = np.empty((max_n + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if max_n >= 1:
        out[1] = t / params.degree
    b = float(params.branching)
    for k in range(1, max_n):
        out[k + 1] = (t * out[k] - out[k - 1]) / b
    return out


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
@pytest.mark.parametrize("max_n", [0, 1, 2, 61])
def test_chi_table_has_the_bits_of_both_loops(rank, max_n):
    params = SpectralParams(rank)
    a = params.halfwidth
    inputs = [lambda_rule(32, rank)[0],
              -a + (np.arange(33) + 0.5) * (2.0 * a / 33),
              np.array([a, -a, 0.0, -0.0]),
              a, -a, 0.0, -0.0, np.array(0.3), np.float64(-1.25)]
    for t in inputs:
        p = chi_table(t, max_n, params)
        g = chi_table(t, max_n, params, normalized=True)
        p_ref = np.stack([p_loop(n, t, params) for n in range(max_n + 1)])
        assert p.shape == g.shape == p_ref.shape == (max_n + 1,) + np.shape(t)
        assert np.array_equal(p.view(np.int64), p_ref.view(np.int64))
        assert np.array_equal(g.view(np.int64), g_loop(t, max_n, params).view(np.int64))


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 61])
def test_recurrence_has_the_bits_of_the_table_row(rank, n):
    params = SpectralParams(rank)
    a = params.halfwidth
    for t in [lambda_rule(32, rank)[0], np.array([a, -a, 0.0, -0.0]), a, -0.0, np.array(0.3)]:
        p_n = np.asarray(chi_eval_recurrence(n, t, params))
        assert np.array_equal(p_n.view(np.int64), chi_table(t, n, params)[n].view(np.int64))


def test_recurrence_keeps_only_the_latest_rows():
    # the whole 201-row table of 100,000 points would hold 160.8 MB
    t = np.linspace(-P3.halfwidth, P3.halfwidth, 100_000)
    tracemalloc.start()
    try:
        chi_eval_recurrence(200, t, P3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


class QuadraticInteger:
    """Exact p + q*sqrt(b) arithmetic; the oracle for endpoint evaluation."""

    def __init__(self, b, p, q):
        self.b, self.p, self.q = b, Fraction(p), Fraction(q)

    def times_halfwidth(self):
        # multiply by 2*sqrt(b)
        return QuadraticInteger(self.b, 2 * self.b * self.q, 2 * self.p)

    def minus_scaled(self, other, scalar):
        return QuadraticInteger(self.b, self.p - scalar * other.p, self.q - scalar * other.q)

    def is_positive(self):
        if self.p >= 0 and self.q >= 0:
            return self.p > 0 or self.q > 0
        if self.p < 0 and self.q < 0:
            return False
        if self.q > 0:
            return self.q**2 * self.b > self.p**2
        return self.p**2 > self.q**2 * self.b


def test_endpoint_positivity_exact():
    # evaluate the recurrence at t = 2*sqrt(2N-1) in exact arithmetic
    for rank in (2, 3):
        b = 2 * rank - 1
        prev = QuadraticInteger(b, 1, 0)
        cur = QuadraticInteger(b, 0, 2)  # t itself
        assert cur.is_positive()
        for k in range(1, 12):
            coeff = 2 * rank if k == 1 else 2 * rank - 1
            nxt = cur.times_halfwidth().minus_scaled(prev, coeff)
            prev, cur = cur, nxt
            assert cur.is_positive(), f"rank {rank}, degree {k + 1}"


def test_amplitude_bound():
    # |p_n(t)| / |p_n|^2 <= 3 n b^(-n/2) across the spectrum
    for params in (P2, P3):
        ts = np.linspace(-params.halfwidth, params.halfwidth, 257)
        for n in range(1, 31):
            bound = 3.0 * n * params.branching ** (-n / 2.0)
            vals = np.abs(chi_eval_recurrence(n, ts, params)) / chi_support_size(n, params.rank)
            assert float(vals.max()) <= bound * (1 + 1e-12)


# ---------------------------------------------------------------- Kesten density


def test_density_domain():
    with pytest.raises(ValueError):
        kesten_density(P2.halfwidth + 0.2, P2)
    with pytest.raises(ValueError):
        kesten_density(np.array([0.0, math.nan]), P2)
    assert kesten_density(P2.halfwidth * (1 + 1e-13), P2) == 0.0
    assert kesten_density(P2.halfwidth, P2) == 0.0
    assert kesten_density(-P2.halfwidth, P2) == 0.0
    assert kesten_density(0.0, P2) > 0


def test_density_normalizes_scipy():
    # independent adaptive quadrature of the density itself
    for params in (P2, P3):
        total, err = scipy_quad(
            lambda t: kesten_density(t, params),
            -params.halfwidth,
            params.halfwidth,
            limit=200,
        )
        assert abs(total - 1.0) <= max(1e-10, 10 * err)


def test_density_moments_scipy_vs_walk_counts():
    # validates the density formula independently of the in-package rule
    for params in (P2, P3):
        for k in (2, 4, 6):
            exact = radial_moment_exact(k, params.rank)
            val, err = scipy_quad(
                lambda t: t**k * kesten_density(t, params),
                -params.halfwidth,
                params.halfwidth,
                limit=200,
            )
            assert abs(val - exact) <= max(1e-8, 20 * err)


@pytest.mark.parametrize("rank, top", [(2, 16), (3, 16), (4, 16), (5, 12)])
def test_jacobi_moments_are_walk_counts(rank, top):
    # the recurrence chi_1 chi_k = chi_{k+1} + beta_k chi_{k-1} of _chi_rows as an
    # integer Jacobi matrix J, 1 below the diagonal and beta_k above it: e_0' J^k e_0
    # is then the chi_0 coefficient of chi_1^k, the number of closed walks, exactly
    params = SpectralParams(rank)
    size = top // 2 + 1
    jacobi = np.zeros((size, size), dtype=object)
    for k in range(1, size):
        jacobi[k, k - 1] = 1
        jacobi[k - 1, k] = params.degree if k == 1 else params.branching
    column = np.zeros(size, dtype=object)
    column[0] = 1
    for k in range(top + 1):
        assert column[0] == radial_moment_exact(k, rank), k
        column = jacobi.dot(column)


# ---------------------------------------------------------------- quadrature


def test_quad_constant():
    assert quad_lambda(lambda t: np.ones_like(t), P2) == pytest.approx(1.0, abs=1e-12)


def test_quad_orthogonality_examples():
    val = quad_lambda(
        lambda t: chi_eval_recurrence(1, t, P2) * chi_eval_recurrence(3, t, P2), P2
    )
    assert abs(val) <= 1e-10
    val = quad_lambda(lambda t: chi_eval_recurrence(2, t, P2) ** 2, P2)
    assert val == pytest.approx(12.0, abs=1e-8)


def test_quad_moments_match_exact():
    for params in (P2, P3):
        for k in range(11):
            exact = radial_moment_exact(k, params.rank)
            assert quad_lambda(lambda t: t**k, params, tol=1e-10) == pytest.approx(
                float(exact), abs=1e-8
            )


def test_gram_matrix():
    for params in (P2, P3):
        for n in range(9):
            for m in range(9):
                val = quad_lambda(
                    lambda t: chi_eval_recurrence(n, t, params)
                    * chi_eval_recurrence(m, t, params),
                    params,
                    tol=1e-10,
                )
                expected = chi_support_size(n, params.rank) if n == m else 0
                assert abs(val - expected) <= 1e-8, (n, m, params.rank)


def test_quad_rule_weights():
    t, w = lambda_rule(64, 2)
    assert t.shape == w.shape == (64,)
    assert np.all(np.abs(t) <= P2.halfwidth)
    assert np.all(w >= 0)
    assert math.fsum(w.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_quad_nonconvergence_raises():
    rng = np.random.default_rng(0)

    def noisy(t):
        return rng.normal(size=np.shape(t))

    with pytest.raises(QuadratureError):
        quad_lambda(noisy, P2, tol=1e-14)


# ---------------------------------------------------------------- geometric sine sum


def test_trig_sum_theta_zero():
    for x, phi, r in [(0.5, 1.1, 3), (-0.7, 2.0, -2), (0.9, 0.3, 0)]:
        assert trig_sum(x, 0.0, phi, r) == pytest.approx(0.0, abs=1e-14)


def test_trig_sum_x_zero():
    assert trig_sum(0.0, 1.0, 1.1, 3) == 0.0


def test_trig_sum_requires_contraction():
    with pytest.raises(ValueError):
        trig_sum(1.0, 0.5, 0.5, 1)
    for x in (1.0, -1.0, 1.5, np.array([0.5, 1.0])):
        for r in (0, 1, 2, 3):
            with pytest.raises(ValueError, match="geometric ratio"):
                trig_sum(x, np.linspace(0.1, 3.0, 7), 0.5, r)


@given(
    st.floats(-0.95, 0.95),
    st.floats(0, math.pi),
    st.floats(0, math.pi),
    st.integers(-8, 8),
)
@settings(max_examples=400, deadline=None)
def test_trig_sum_against_partial_sums(x, theta, phi, r):
    closed = trig_sum(x, theta, phi, r)
    partial = trig_sum_partial(x, theta, phi, r, terms=200)
    bound = abs(x) ** 201 / (1 - abs(x)) + 1e-12
    assert abs(closed - partial) <= bound


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_trig_sum_vectorized():
    thetas = np.linspace(0.1, 3.0, 7)
    vals = trig_sum(0.3, thetas, 1.0, 2)
    assert vals.shape == thetas.shape
    singles = [trig_sum(0.3, th, 1.0, 2) for th in thetas]
    assert vals == pytest.approx(singles)
    # on a theta (k, 1) and a phi (1, m) axis, every value is the bits of
    # the elementwise scalar call
    thetas = np.concatenate([[0.0, math.pi], np.random.default_rng(2).uniform(0, math.pi, 40)])
    phis = np.linspace(0.0, math.pi, 23)
    for x in (0.2, -0.6):
        for r in (-1, 0, 1, 2, 3, 4):
            grid = trig_sum(x, thetas[:, None], phis[None, :], r)
            assert grid.shape == (len(thetas), len(phis))
            singles = [[trig_sum(x, th, ph, r) for ph in phis] for th in thetas]
            assert np.array_equal(bits(grid), bits(singles))


@pytest.mark.parametrize("x", [0.2, 1 / 3, -0.8])
def test_trig_sums_swapped_against_partial_sums(x):
    rng = np.random.default_rng(6)
    theta = rng.uniform(0, math.pi, (25, 1))
    phi = rng.uniform(0, math.pi, (1, 15))
    bound = abs(x) ** 201 / (1 - abs(x)) + 1e-12
    for first, second in ((theta, phi), (phi, theta)):
        for r in range(4):
            closed = trig_sum(x, first, second, r)
            partial = trig_sum_partial(x, first, second, r, terms=200)
            assert float(np.abs(closed - partial).max()) <= bound
