import functools
import hashlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from radialmasa.density import (
    _normalized_chi_table,
    chi_pair_integral,
    density_closed_grid,
    density_normalization,
    density_series_grid,
    interior_grid,
    pairing_sweep,
    series_tail_bound,
    zero_scan,
)
from radialmasa import density, identities
from radialmasa.algebra import GradedVector, chi, inner_product, multiply
from radialmasa.cli import main
from radialmasa.errors import QuadratureError
from radialmasa.identities import degree_pairs, pairing_closed, pairing_exact
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
        return [bits(grid(t, s)[0]) for t, s in cases
                for grid in (lambda t, s: density_closed_grid(t, s, P3),
                             lambda t, s: density_series_grid(t, s, 60, P3))]

    monkeypatch.setattr(density, "BLOCK_POINTS", 1 << 30)
    whole = evaluate()
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
    values, _ = density_closed_grid([edge, -edge], [-edge, edge], P2)
    assert np.isfinite(values).all()


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
        closed, tail = density_closed_grid(tt, ss, params)
        assert tail == 0.0 and isinstance(tail, np.float64)
        for trunc in (20, 40, 60):
            series, tail = density_series_grid(tt, ss, trunc, params)
            assert float(np.abs(series - closed).max()) <= tail + 1e-10


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_closed_matches_series_at_corners(rank):
    # the closed square's edges and corners, where sin(theta) sin(phi) = 0,
    # are ordinary points of the rational form: no warning, series accuracy
    params = SpectralParams(rank)
    a = params.halfwidth
    cases = []
    for n in (11, 257):
        axis = np.linspace(-a, a, n)
        assert axis[0] == -a and axis[-1] == a
        cases += [(axis[:, None], axis[None, :]), (axis, axis[::-1])]
    cases.append((axis[[0, -1]][:, None], axis[None, :]))  # a block of edge rows only
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        for t, s in cases:
            closed, _ = density_closed_grid(t, s, params)
            series, _ = density_series_grid(t, s, 60, params)
            assert float(np.abs(closed - series).max()) <= 1e-14


def test_closed_symmetric():
    # bitwise: every t term of the kernel meets its s term in a commutative operation
    rng = np.random.default_rng(11)
    for params in (P2, P3, SpectralParams(5)):
        a = params.halfwidth
        axis = np.concatenate([[-a, a, 0.0, -0.0], rng.uniform(-a, a, 60)])
        other = np.concatenate([[a, -a], rng.uniform(-a, a, 45)])
        on_axes, _ = density_closed_grid(axis[:, None], other[None, :], params)
        swapped, _ = density_closed_grid(other[:, None], axis[None, :], params)
        assert np.array_equal(bits(on_axes), bits(swapped.T))
        grids = np.broadcast_arrays(axis[:, None], other[None, :])
        on_grid, _ = density_closed_grid(*grids, params)
        swapped, _ = density_closed_grid(*grids[::-1], params)
        assert np.array_equal(bits(on_grid), bits(swapped))
        ts, ss = rng.uniform(-a, a, 200), rng.uniform(-a, a, 200)
        assert np.array_equal(bits(density_closed_grid(ts, ss, params)[0]),
                              bits(density_closed_grid(ss, ts, params)[0]))


def test_closed_center_value():
    assert density_closed_grid(0.0, 0.0, P2)[0] == pytest.approx(2.0, abs=1e-12)
    assert density_closed_grid(0.0, 0.0, P3)[0] == pytest.approx(1.5, abs=1e-12)


EPS = np.finfo(float).eps


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 8])
def test_closed_bounds_and_extremes(rank):
    # ((N-1)/N)^5 <= f <= N/(N-1) on the closed square, with the maximum at the
    # centre and the minimum at the anti-diagonal corners
    params = SpectralParams(rank)
    a, n = params.halfwidth, rank
    low, high, corner = ((n - 1) / n) ** 5, n / (n - 1), (n - 1) / n
    for (t, s), want in (((0.0, 0.0), high), ((a, a), corner), ((-a, -a), corner),
                         ((a, -a), low), ((-a, a), low)):
        assert abs(density_closed_grid(t, s, params)[0] - want) <= 8 * EPS * want
    axis = np.linspace(-a, a, 401)
    values, _ = density_closed_grid(axis[:, None], axis[None, :], params)
    assert values.min() >= low * (1 - 8 * EPS)
    assert values.max() <= high * (1 + 8 * EPS)


def exact_closed_form(t: Fraction, s: Fraction, rank: int) -> Fraction:
    """The rational closed form of the module docstring, in exact arithmetic."""
    n, b = rank, 2 * rank - 1
    return (Fraction(n - 1, n) * (4 * n * n - t * t) * (4 * n * n - s * s)
            / ((b * b - 1) ** 2 + b * (t * t + s * s) - (b * b + 1) * t * s))


def exact_series(t: Fraction, s: Fraction, truncation: int, rank: int) -> Fraction:
    """sum c(j, k) g_j(t) g_k(s) over j + k <= 2*truncation, in exact arithmetic."""
    params = SpectralParams(rank)

    def table(x):
        g = [Fraction(1), x / params.degree]
        while len(g) <= 2 * truncation:
            g.append((x * g[-1] - g[-2]) / params.branching)
        return g

    gt, gs = table(t), table(s)
    return sum(c * gt[j] * gs[k] for c, j, k in exact_coefficients(truncation))


@functools.lru_cache(maxsize=None)
def exact_coefficients(truncation: int) -> list:
    """The nonzero (c(j, k), j, k) with j + k <= 2*truncation."""
    return [(c, j, k) for j, k in degree_pairs(2 * truncation)
            if (c := pairing_closed(-1, j, k, 1))]


def exact_axis(params):
    """Float points of the closed interval: the ends, points near them, where
    sin(theta) is small, and the centre."""
    a = params.halfwidth
    return np.array([-a, -0.9999 * a, -0.61 * a, -0.0, 0.27 * a, 0.93 * a, 0.999 * a, a])


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_exact_series_sums_to_closed_form(rank):
    # the closed form is the series' sum: at float points read exactly, the
    # exact partial sum at truncation 40 is within the series tail bound of it
    params = SpectralParams(rank)
    bound = series_tail_bound(40, params)
    axis = [Fraction(x) for x in exact_axis(params)]
    for t in axis:
        for s in axis[::2]:
            gap = exact_series(t, s, 40, rank) - exact_closed_form(t, s, rank)
            assert abs(gap) <= bound, (t, s)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_closed_within_16_eps_of_exact(rank):
    params = SpectralParams(rank)
    axis = exact_axis(params)
    values, _ = density_closed_grid(axis[:, None], axis[None, :], params)
    for i, t in enumerate(axis):
        for j, s in enumerate(axis):
            want = exact_closed_form(Fraction(t), Fraction(s), rank)
            assert abs(Fraction(values[i, j]) - want) <= 16 * Fraction(EPS) * want, (t, s)


# ---------------------------------------------------------------- pairing


def test_pairing_exact_values():
    # the sign -1 vector's table over |v|^2: the density's series coefficients
    v = identities.standard_test_vectors(2)[-1][0]
    norm_sq = v.norm_sq()
    values = {key: Fraction(value, norm_sq) for key, value in pairing_exact(v, 6).items()}
    assert set(values) == set(identities.degree_pairs(6))
    assert values[0, 0] == 1
    assert values[1, 1] == 1
    assert values[2, 1] == 0
    assert values[0, 2] == -1
    assert values[3, 3] == 2
    assert values[1, 3] == -1


@pytest.mark.parametrize("rank", [2, 3])
def test_pairing_exact_matches_triple_product(rank):
    # the two half products against the whole chi_j v chi_k paired with v, for
    # every standard vector of both signs
    for vectors in identities.standard_test_vectors(rank).values():
        for v in vectors:
            values = pairing_exact(v, 4)
            assert set(values) == set(identities.degree_pairs(4))
            for j, k in identities.degree_pairs(4):
                triple = multiply(multiply(chi(j, rank), v.element), chi(k, rank))
                assert values[j, k] == inner_product(triple, v.element), (v, j, k)


# the exact columns of pairing --max-total 6, hashed as perfbench/run.py hashes
# them, recorded at ranks 3 and 5, which the benchmark does not run; the
# normalized table does not depend on the rank, so both equal its rank 4 digest
PAIRING_ROWS_SHA256 = "e7134510dc268a67e72ea2adafa6fecf4057e199d62a8f8312caf7a6a449b3f6"


@pytest.mark.parametrize("rank", [3, 5])
def test_pairing_rows_match_recorded_digest(tmp_path, rank):
    out = tmp_path / "pairing.json"
    assert main(["pairing", "--rank", str(rank), "--max-total", "6", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    rows = [[c["j"], c["k"], c["value_exact"], c["value_case"]] for c in report["checks"]]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert len(rows) == 28
    assert hashlib.sha256(text.encode()).hexdigest() == PAIRING_ROWS_SHA256


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
    for j in range(7):
        val = chi_pair_integral(j, 0, P2, 1e-7)
        expected = float(pairing_closed(-1, j, 0, Fraction(1)))
        assert abs(val - expected) <= 1e-6, j


def test_chi_pair_integral_doubles_to_its_last_order(monkeypatch):
    # a tolerance no two estimates meet runs orders 32 to 512, then raises
    orders = []
    real = density.lambda_rule
    monkeypatch.setattr(density, "lambda_rule",
                        lambda order, rank: orders.append(order) or real(order, rank))
    with pytest.raises(QuadratureError):
        chi_pair_integral(1, 1, P2, -1.0)
    assert orders == [32, 64, 128, 256, 512]


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
