import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from radialmasa.algebra import chi_support_size, radial_moment_exact
from radialmasa.errors import QuadratureError
from radialmasa.spectral import (
    AngleCoordinate,
    SpectralParams,
    chi_eval_recurrence,
    chi_eval_trig,
    kesten_density,
    lambda_rule,
    quad_lambda,
    trig_sum,
    trig_sum_partial,
    trig_sums,
)

P2 = SpectralParams(2)
P3 = SpectralParams(3)


# ---------------------------------------------------------------- params


def test_derived_constants():
    assert P2.degree == 4
    assert P2.branching == 3
    assert P2.halfwidth == pytest.approx(2 * math.sqrt(3))
    assert P2.halfwidth**2 == pytest.approx(4 * P2.branching)
    assert 0 < P2.branching_ratio < 1
    with pytest.raises(ValueError):
        SpectralParams(1)


def test_angle_coordinate_consistency():
    for t in np.linspace(-P2.halfwidth, P2.halfwidth, 17):
        ang = AngleCoordinate.from_t(t, P2)
        assert math.cos(ang.theta) == pytest.approx(t / P2.halfwidth, abs=1e-12)
        assert math.sin(ang.theta) == pytest.approx(
            math.sqrt(P2.halfwidth**2 - t * t) / P2.halfwidth, abs=1e-12
        )
    with pytest.raises(ValueError):
        AngleCoordinate.from_t(P2.halfwidth + 0.1, P2)
    with pytest.raises(ValueError):
        AngleCoordinate.from_t(math.nan, P2)
    with pytest.raises(ValueError):
        AngleCoordinate.from_theta(-0.1, P2)


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


# ---------------------------------------------------------------- trig evaluation


def test_trig_linear_is_t():
    for theta in np.linspace(0, math.pi, 21):
        ang = AngleCoordinate.from_theta(theta, P2)
        assert chi_eval_trig(1, ang, P2) == pytest.approx(ang.t, abs=1e-12)


def test_trig_quadratic_at_zero():
    ang = AngleCoordinate.from_theta(math.pi / 2, P2)
    assert chi_eval_trig(2, ang, P2) == pytest.approx(-4.0, abs=1e-12)


def test_trig_matches_recurrence_grid():
    # 10^3-point grid including the endpoint-limit branch
    for params in (P2, P3):
        thetas = np.linspace(0.0, math.pi, 1000)
        for n in range(1, 11):
            for theta in thetas:
                ang = AngleCoordinate.from_theta(theta, params)
                trig = chi_eval_trig(n, ang, params)
                rec = chi_eval_recurrence(n, ang.t, params)
                assert abs(trig - rec) <= 1e-9 * max(1.0, abs(rec))


def test_trig_endpoint_branch():
    for params in (P2, P3):
        for n in range(1, 13):
            lo = chi_eval_trig(n, AngleCoordinate.from_theta(0.0, params), params)
            hi = chi_eval_trig(n, AngleCoordinate.from_theta(math.pi, params), params)
            assert lo == pytest.approx(chi_eval_recurrence(n, params.halfwidth, params), rel=1e-12)
            assert hi == pytest.approx(chi_eval_recurrence(n, -params.halfwidth, params), rel=1e-12)


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
    # one check per call, whatever shifts it is asked for
    for x in (1.0, -1.0, 1.5, np.array([0.5, 1.0])):
        for rs in ((), (0, 1, 2, 3)):
            with pytest.raises(ValueError, match="geometric ratio"):
                trig_sums(x, np.linspace(0.1, 3.0, 7), 0.5, rs)


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
    rs = (-1, 0, 1, 2, 3, 4)
    for x in (0.2, -0.6):
        for r, grid in zip(rs, trig_sums(x, thetas[:, None], phis[None, :], rs), strict=True):
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
        for r, closed in enumerate(trig_sums(x, first, second, range(4))):
            partial = trig_sum_partial(x, first, second, r, terms=200)
            assert float(np.abs(closed - partial).max()) <= bound
