import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from radialmasa.density import (
    CLOSED_FORM_GUARD,
    GUARD_SERIES_ORDER,
    _normalized_chi_table,
    density_closed_grid,
    density_normalization,
    density_series_grid,
    interior_grid,
    pairing_exact,
    pairing_sweep,
    series_tail_bound,
    zero_scan,
)
from radialmasa import density, identities
from radialmasa.algebra import GradedVector, chi, inner_product, multiply
from radialmasa.identities import pairing_closed
from radialmasa.spectral import SpectralParams, lambda_rule

P2 = SpectralParams(2)
P3 = SpectralParams(3)


def grid_points(params, n=60):
    pts = interior_grid(n, params)
    return pts[:, None], pts[None, :]


# ---------------------------------------------------------------- tail bound


def test_tail_bound_decreases():
    bounds = [series_tail_bound(k, P2) for k in range(2, 40)]
    assert all(b > 0 for b in bounds)
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_tail_bound_closed_form_sums_the_series():
    # the closed form is exactly sum_{n>trunc} 36 n^2 x^n; check by brute sum
    x = 1.0 / P2.branching
    for trunc in (5, 10, 20):
        direct = sum(36.0 * n * n * x**n for n in range(trunc + 1, 2000))
        assert series_tail_bound(trunc, P2) == pytest.approx(direct, rel=1e-12)


def test_tail_bound_valid_against_refinement():
    tt, ss = grid_points(P2, 40)
    for trunc in (10, 15, 20):
        coarse, bound = density_series_grid(tt, ss, trunc, P2)
        fine, _ = density_series_grid(tt, ss, 2 * trunc, P2)
        assert float(np.abs(coarse - fine).max()) <= bound


# ---------------------------------------------------------------- series evaluation


def test_series_symmetric_exactly():
    rng = np.random.default_rng(3)
    a = P2.halfwidth
    ts = rng.uniform(-a, a, 100)
    ss = rng.uniform(-a, a, 100)
    v1, _ = density_series_grid(ts, ss, 40, P2)
    v2, _ = density_series_grid(ss, ts, 40, P2)
    assert np.array_equal(v1, v2)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_series_on_axes_equals_full_grid(rank):
    params = SpectralParams(rank)
    pts = interior_grid(33, params)
    tt, ss = np.broadcast_arrays(pts[:, None], pts[None, :])
    for truncation in (2, 60):
        on_axes, tail = density_series_grid(pts[:, None], pts[None, :], truncation, params)
        on_grid, grid_tail = density_series_grid(tt, ss, truncation, params)
        assert np.array_equal(on_axes, on_grid)
        assert tail == grid_tail


def bits(values):
    """The bits of each value, so -0.0 differs from 0.0 and NaNs compare."""
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("block_points", [1, 7, 5 * 33])
def test_blocked_grids_equal_one_block(block_points, monkeypatch):
    # a wide guard band sends many points to the 1-D series fallback
    monkeypatch.setattr(density, "CLOSED_FORM_GUARD", 0.5)
    a = P3.halfwidth
    pts = interior_grid(33, P3)
    nodes, _ = lambda_rule(32, 3)
    cases = [
        (pts[:, None], pts[None, :]),
        (pts[None, :], pts[:, None]),
        tuple(np.broadcast_arrays(pts[:, None], pts[None, :])),
        (nodes[:, None], nodes[None, :]),
        (pts, -pts),
        (np.array([-a, -0.0, a]), 0.0),
        (0.3 * a, -0.7 * a),
        (a, 0.0),
    ]

    def evaluate():
        out = []
        for t, s in cases:
            values, guarded = density_closed_grid(t, s, P3)
            assert np.array_equal(bits(values), bits(closed_reference(t, s, P3)))
            out += [bits(values), guarded, bits(density_series_grid(t, s, 60, P3)[0])]
        return out

    monkeypatch.setattr(density, "BLOCK_POINTS", 1 << 30)
    whole = evaluate()
    assert any(guarded.any() and not guarded.all() for guarded in whole[1::3])
    monkeypatch.setattr(density, "BLOCK_POINTS", block_points)
    for got, want in zip(evaluate(), whole, strict=True):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def series_reference(t, s, truncation, params):
    """The series as one explicit loop over n, with its coefficients written
    out: the head 1 + g_1 g_1 - g_2 - g_2, then
    2 g_n g_n - (g_{n-1} g_{n+1} + g_{n+1} g_{n-1}) for each n >= 2."""
    gt = _normalized_chi_table(t, truncation + 1, params)
    gs = _normalized_chi_table(s, truncation + 1, params)
    total = 1.0 + gt[1] * gs[1] - (gt[2] + gs[2])
    for n in range(2, truncation + 1):
        total = total + (2.0 * gt[n] * gs[n] - (gt[n - 1] * gs[n + 1] + gt[n + 1] * gs[n - 1]))
    return total


def five_cosine_trig_sum(x, theta, phi, r):
    """sum_{n>=0} x^n sin(n theta) sin((n+r) phi), with all five cosines of
    its closed form computed afresh."""
    num_minus = np.cos(r * phi) - x * np.cos(theta + (r - 1) * phi)
    den_minus = 1.0 - 2.0 * x * np.cos(theta - phi) + x * x
    num_plus = np.cos(r * phi) - x * np.cos(theta - (r - 1) * phi)
    den_plus = 1.0 - 2.0 * x * np.cos(theta + phi) + x * x
    return 0.5 * (num_minus / den_minus) - 0.5 * (num_plus / den_plus)


def closed_reference(t, s, params):
    """The closed form on the broadcast grid: seven separate trig sums on the
    flattened points outside the guard band, and the order-60 series
    (``series_reference``) inside it."""
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    a = params.halfwidth
    theta = np.arccos(np.clip(t / a, -1.0, 1.0))
    phi = np.arccos(np.clip(s / a, -1.0, 1.0))
    guard = np.abs(np.sin(theta) * np.sin(phi)) < density.CLOSED_FORM_GUARD
    safe = ~guard
    theta, phi = theta[safe], phi[safe]

    b = float(params.branching)
    x = 1.0 / b
    d2 = 2.0 * params.branching_ratio
    cos_t, cos_p = np.cos(theta), np.cos(phi)
    sin_t, sin_p = np.sin(theta), np.sin(phi)
    ct, cp = d2 * cos_t, d2 * cos_p
    t0 = five_cosine_trig_sum(x, theta, phi, 0)
    t1 = five_cosine_trig_sum(x, theta, phi, 1)
    t1r = five_cosine_trig_sum(x, phi, theta, 1)
    t2 = five_cosine_trig_sum(x, theta, phi, 2)
    t2r = five_cosine_trig_sum(x, phi, theta, 2)
    t3 = five_cosine_trig_sum(x, theta, phi, 3)
    t3r = five_cosine_trig_sum(x, phi, theta, 3)
    diag = ct * cp * (t0 - x * sin_t * sin_p) - ct * x * t1r - cp * x * t1 + x * t0
    cross = ct * cp * x * t2 - ct * x * t1 - cp * x * x * t3 + x * x * t2
    cross_m = cp * ct * x * t2r - cp * x * t1r - ct * x * x * t3r + x * x * t2r
    tt = a * cos_t
    ss = a * cos_p
    g1t, g1s = tt / params.degree, ss / params.degree
    norm2 = params.degree * b
    g2t = (tt * tt - params.degree) / norm2
    g2s = (ss * ss - params.degree) / norm2
    head = 1.0 + g1t * g1s - g2t - g2s

    values = np.empty(t.shape)
    values[safe] = head + (2.0 * diag - cross - cross_m) / (sin_t * sin_p)
    values[guard] = series_reference(t[guard], s[guard], GUARD_SERIES_ORDER, params)
    return values


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
@pytest.mark.parametrize("grid_n", [7, 33, 512])
def test_closed_matches_reference_bitwise(rank, grid_n):
    params = SpectralParams(rank)
    a = params.halfwidth
    pts = interior_grid(grid_n, params)
    ends = np.linspace(-a, a, grid_n)
    rng = np.random.default_rng(rank)
    cases = [
        (pts[:, None], pts[None, :]),
        (ends[:, None], ends[None, :]),
        (pts[None, :], ends[:, None]),
        (rng.uniform(-a, a, grid_n), rng.uniform(-a, a, grid_n)),
        (pts, 0.25 * a),
        (0.3 * a, -0.7 * a),
        (np.float64(-a), 0.1 * a),
    ]
    for t, s in cases:
        got, guarded = density_closed_grid(t, s, params)
        want = closed_reference(t, s, params)
        assert np.shape(got) == np.shape(want) == np.shape(guarded)
        assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_closed_guard_edges(rank):
    # sin(theta) = 0 exactly at t = +-a, where the closed form divides by
    # zero: no warning may escape, and the series must replace every such value
    params = SpectralParams(rank)
    a = params.halfwidth
    axis = np.linspace(-a, a, 11)
    assert axis[0] == -a and axis[-1] == a
    cases = [
        (axis[:, None], axis[None, :]),
        (axis[[0, -1]][:, None], axis[None, :]),  # a block of endpoint rows only
        (axis, axis[::-1]),
    ]
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        for t, s in cases:
            values, guarded = density_closed_grid(t, s, params)
            t, s = np.broadcast_arrays(t, s)
            edge = (np.abs(t) == a) | (np.abs(s) == a)
            assert np.array_equal(guarded, edge)
            series, _ = density_series_grid(t[edge], s[edge], GUARD_SERIES_ORDER, params)
            assert np.array_equal(bits(values[edge]), bits(series))
            assert np.isfinite(values).all()


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
@pytest.mark.parametrize("truncation", [2, 3, 60])
def test_series_matches_reference_loop_bitwise(rank, truncation):
    params = SpectralParams(rank)
    a = params.halfwidth
    pts = interior_grid(33, params)
    rng = np.random.default_rng(rank)
    cases = [
        (pts[:, None], pts[None, :]),
        tuple(np.broadcast_arrays(pts[:, None], pts[None, :])),
        (rng.uniform(-a, a, 200), rng.uniform(-a, a, 200)),
        (np.array([-a, 0.0, a])[:, None], pts[None, :]),
        (0.3 * a, -0.7 * a),
        (a, 0.0),
    ]
    for t, s in cases:
        got, _ = density_series_grid(t, s, truncation, params)
        want = series_reference(t, s, truncation, params)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def test_series_center_value():
    # f(0,0) = N/(N-1): the bracketed terms telescope to a geometric series
    assert density_series_grid(0.0, 0.0, 60, P2)[0] == pytest.approx(2.0, abs=1e-12)
    assert density_series_grid(0.0, 0.0, 60, P3)[0] == pytest.approx(1.5, abs=1e-12)


def test_grid_input_checks():
    a = P2.halfwidth
    _, tail = density_series_grid(0.5, -0.25, 30, P2)
    assert tail == series_tail_bound(30, P2)
    for truncation in (0, 1):
        with pytest.raises(ValueError, match="truncation"):
            density_series_grid(0.0, 0.0, truncation, P2)
    for t, s in ((2 * a, 0.0), (0.0, -2 * a), (10.0, 0.0), (math.nan, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="outside the closed spectral square"):
            density_series_grid([t], [s], 30, P2)
        with pytest.raises(ValueError, match="outside the closed spectral square"):
            density_closed_grid([t], [s], P2)
    # the corners, up to roundoff, are inside
    edge = a * (1 + 1e-13)
    values, guarded = density_closed_grid([edge, -edge], [-edge, edge], P2)
    assert guarded.all() and np.isfinite(values).all()


def test_series_integrates_to_one():
    # orthogonality kills every non-constant term; tensor quadrature oracle
    from radialmasa.spectral import lambda_rule

    t, w = lambda_rule(128, 2)
    vals, tail = density_series_grid(t[:, None], t[None, :], 40, P2)
    total = float(w @ vals @ w)
    assert abs(total - 1.0) <= 1e-8 + tail


# ---------------------------------------------------------------- closed form


def test_closed_matches_series_within_tail():
    for params in (P2, P3):
        tt, ss = grid_points(params, 100)
        closed, guarded = density_closed_grid(tt, ss, params)
        assert not guarded.any()
        for trunc in (20, 40, 60):
            series, tail = density_series_grid(tt, ss, trunc, params)
            assert float(np.abs(series - closed).max()) <= tail + 1e-10


def test_closed_symmetric():
    rng = np.random.default_rng(11)
    a = P2.halfwidth * 0.999
    ts = rng.uniform(-a, a, 200)
    ss = rng.uniform(-a, a, 200)
    v1, _ = density_closed_grid(ts, ss, P2)
    v2, _ = density_closed_grid(ss, ts, P2)
    assert float(np.abs(v1 - v2).max()) <= 1e-12


def test_closed_real_valued():
    # run the closed form through complex arithmetic: imaginary parts stay tiny
    from radialmasa.density import _closed_form_values

    rng = np.random.default_rng(5)
    theta = rng.uniform(0.2, math.pi - 0.2, 50).astype(complex)
    phi = rng.uniform(0.2, math.pi - 0.2, 50).astype(complex)
    vals = _closed_form_values(theta, phi, np.sin(theta), np.sin(phi), P2)
    assert float(np.abs(vals.imag).max()) < 1e-12
    real_vals = _closed_form_values(theta.real, phi.real, np.sin(theta.real),
                                    np.sin(phi.real), P2)
    assert np.allclose(vals.real, real_vals, atol=1e-12)


def test_closed_guard_band_falls_back_to_series():
    a = P2.halfwidth
    # sin(theta) = 0 exactly at t = a
    values, guarded = density_closed_grid([a, 0.3], [0.0, -0.2], P2)
    assert guarded.tolist() == [True, False]
    direct, _ = density_series_grid(a, 0.0, GUARD_SERIES_ORDER, P2)
    assert values[0] == direct


def test_closed_continuous_across_guard():
    # values just inside and just outside the guard band agree closely
    a = P2.halfwidth
    theta_guard = math.asin(CLOSED_FORM_GUARD)  # sin(theta) at the edge
    t_in = a * math.cos(theta_guard * 0.5)
    t_out = a * math.cos(theta_guard * 2.0)
    (v_in, v_out), guarded = density_closed_grid([t_in, t_out], [0.4, 0.4], P2)
    assert guarded.tolist() == [True, False]
    assert v_in == pytest.approx(v_out, abs=1e-6)


def test_closed_center_value():
    assert density_closed_grid(0.0, 0.0, P2)[0] == pytest.approx(2.0, abs=1e-12)
    assert density_closed_grid(0.0, 0.0, P3)[0] == pytest.approx(1.5, abs=1e-12)


# ---------------------------------------------------------------- pairing


def test_pairing_exact_values():
    values = pairing_exact(2, 6)
    assert set(values) == set(identities.degree_pairs(6))
    assert values[0, 0] == 1
    assert values[1, 1] == 1
    assert values[2, 1] == 0
    assert values[0, 2] == -1
    assert values[3, 3] == 2
    assert values[1, 3] == -1


@pytest.mark.parametrize("rank", [2, 3])
def test_pairing_exact_matches_triple_product(rank):
    # the two half products against the whole chi_j v chi_k paired with v
    v = identities.standard_test_vectors(rank)[-1][0]
    values = pairing_exact(rank, 4)
    for j, k in identities.degree_pairs(4):
        triple = multiply(multiply(chi(j, rank), v.element), chi(k, rank))
        whole = Fraction(inner_product(triple, v.element))
        assert values[j, k] == whole / Fraction(v.norm_sq())


def test_pairing_sweep_runs_one_letter_pass(monkeypatch):
    # every v chi_k and chi_j v of the sweep comes from one times_chi pass over v
    real = GradedVector.times_chi
    calls = []
    monkeypatch.setattr(
        GradedVector, "times_chi", lambda self, *args: calls.append(args) or real(self, *args)
    )
    pairing_sweep(P2, max_total=4)
    assert len(calls) == 1


def test_pairing_check_triple_agreement():
    reports = {(r.j, r.k): r for r in pairing_sweep(P2, max_total=4)}
    for j, k in [(0, 0), (1, 1), (2, 1), (0, 2), (2, 2), (1, 3)]:
        report = reports[j, k]
        assert report.value_exact == report.value_case
        assert report.value_exact == pairing_closed(-1, j, k, Fraction(1))
        assert abs(report.value_quad - float(report.value_case)) <= report.quad_tol
        assert report.passed


def test_pairing_sweep_all_pass():
    for params in (P2, P3):
        reports = pairing_sweep(params, max_total=4)
        assert [(r.j, r.k) for r in reports] == identities.degree_pairs(4)
        assert all(r.passed for r in reports)


def test_pairing_report_serialization():
    (report,) = [r for r in pairing_sweep(P2, max_total=2) if (r.j, r.k) == (1, 1)]
    blob = report.to_json_dict()
    assert blob["value_exact"] == "1/1"
    assert blob["pass"] is True


def test_normalization():
    assert density_normalization(P2) == pytest.approx(1.0, abs=1e-8)
    assert density_normalization(P3) == pytest.approx(1.0, abs=1e-8)


def test_marginal_moments_match_cases():
    # integral of p_j(t) * f against the product measure = (j, 0) case value
    from radialmasa.density import _DensityQuadrature

    quad = _DensityQuadrature(P2)
    for j in range(7):
        val = quad.chi_pair_integral(j, 0, 1e-7)
        expected = float(pairing_closed(-1, j, 0, Fraction(1)))
        assert abs(val - expected) <= 1e-6, j


# ---------------------------------------------------------------- zero scan


def test_interior_grid_properties():
    pts = interior_grid(64, P2)
    assert len(pts) == 64
    assert np.all(np.abs(pts) < P2.halfwidth)
    assert pts[0] == pytest.approx(-pts[-1])
    assert interior_grid(1, P2)[0] == pytest.approx(0.0)


def test_zero_scan_fractions_nested():
    report = zero_scan(128, [1e-1, 1e-3, 1e-5], P2)
    f1, f3, f5 = report.fractions[1e-1], report.fractions[1e-3], report.fractions[1e-5]
    assert f1 >= f3 >= f5
    assert f1 > f3  # observed: coarse tolerance catches a nonzero band
    assert report.max_abs >= 1.0
    assert report.min_abs >= 0.0
    assert len(report.argmin) == 2


def test_zero_scan_empty_tolerances():
    report = zero_scan(32, [], P2)
    assert report.fractions == {}
    assert report.min_abs > 0


def test_zero_scan_not_identically_zero():
    report = zero_scan(64, [1e-8], P2)
    assert report.max_abs >= 1.0
    assert report.fractions[1e-8] == 0.0
