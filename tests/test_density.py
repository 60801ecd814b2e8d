import functools
import hashlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from radialmasa.density import (
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
from radialmasa.spectral import SpectralParams, chi_table, lambda_rule

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


GRIDS = {
    "closed": density_closed_grid,
    "series": lambda t, s, params: density_series_grid(t, s, 60, params),
}


@pytest.mark.parametrize("name", GRIDS)
def test_grids_give_a_numpy_scalar_for_scalar_inputs(name):
    grid = GRIDS[name]
    for t, s in [(0.0, 0.0), (np.array(0.5), -1.0), (np.float64(-0.25), np.array(1.0))]:
        value, _ = grid(t, s, P3)
        assert type(value) is np.float64
        assert value == grid([t], [s], P3)[0][0]
    for t, s, shape in [([0.5], 0.0, (1,)), (np.zeros((2, 1)), np.zeros(3), (2, 3))]:
        values, _ = grid(t, s, P3)
        assert type(values) is np.ndarray and values.shape == shape


def counted_points(monkeypatch):
    """A list that collects the number of points of each kernel call."""
    points, real = [], density._grid

    def counting(t, s, kernel, *table):
        def counted(tb, sb):
            out = kernel(tb, sb)
            points.append(np.size(out))
            return out
        return real(t, s, counted, *table)

    monkeypatch.setattr(density, "_grid", counting)
    return points


def symmetric_axes(params):
    a = params.halfwidth
    return [interior_grid(33, params), lambda_rule(32, params.rank)[0],
            np.array([-a, -0.0, 0.0, 0.25 * a, a]), np.array([0.5])]


@pytest.mark.parametrize("block_points", [1, 7, 5 * 33, 1 << 30])
def test_mirrored_grids_equal_full_evaluation(block_points, monkeypatch):
    # the triangle and its transposed copy against every point evaluated
    monkeypatch.setattr(density, "BLOCK_POINTS", block_points)
    for params in (P2, P3, SpectralParams(5)):
        for axis in symmetric_axes(params):
            full = np.broadcast_arrays(axis[:, None], axis[None, :])
            for grid in GRIDS.values():
                mirrored = grid(axis[:, None], axis[None, :], params)[0]
                assert np.array_equal(bits(mirrored), bits(grid(*full, params)[0]))


@pytest.mark.parametrize("block_points", [1, 5 * 33, 1 << 30])
def test_mirrored_grid_evaluates_one_triangle(block_points, monkeypatch):
    monkeypatch.setattr(density, "BLOCK_POINTS", block_points)
    points = counted_points(monkeypatch)
    n = 33
    axis = interior_grid(n, P3)
    step = max(1, block_points // n)
    # rows [r0, r0 + step) on the columns from r0 on
    want = sum(min(step, n - r0) * (n - r0) for r0 in range(0, n, step))
    assert n * (n + 1) // 2 <= want < n * (n + 1) // 2 + step * n
    for name, grid in GRIDS.items():
        points.clear()
        grid(axis[:, None], axis[None, :], P3)
        assert sum(points) == want, name
    if step == 1:
        assert want == n * (n + 1) // 2


def test_axes_differing_in_any_bit_evaluated_in_full(monkeypatch):
    # one grid row a block, so a mirrored grid evaluates exactly one triangle
    monkeypatch.setattr(density, "BLOCK_POINTS", 1)
    points = counted_points(monkeypatch)
    axis = interior_grid(9, P3)
    axis[4] = 0.0  # the centre point
    other = axis.copy()
    other[4] = -0.0  # equal as a float, not bit for bit
    for grid in GRIDS.values():
        for t, s in [(axis, other), (other, axis), (axis, axis[:8]), (axis[:8], axis[:8] + 1e-3)]:
            points.clear()
            on_axes = grid(t[:, None], s[None, :], P3)[0]
            assert sum(points) == len(t) * len(s)
            full = np.broadcast_arrays(t[:, None], s[None, :])
            assert np.array_equal(bits(on_axes), bits(grid(*full, P3)[0]))
        points.clear()
        grid(axis[:, None], axis[None, :], P3)
        assert sum(points) == 9 * 10 // 2


def test_scan_and_pairing_grids_are_mirrored(monkeypatch):
    monkeypatch.setattr(density, "BLOCK_POINTS", 1)
    points = counted_points(monkeypatch)
    zero_scan(64, [1e-3], P3)
    assert sum(points) == 64 * 65 // 2
    points.clear()
    chi_pair_integral(0, 0, P3, 1.0)  # orders 32 and 64 agree within 1
    assert sum(points) == 32 * 33 // 2 + 64 * 65 // 2


def series_reference(t, s, truncation, params):
    """The series as one explicit loop over n, with its coefficients written
    out: the head 1 + g_1 g_1 - g_2 - g_2, then
    2 g_n g_n - (g_{n-1} g_{n+1} + g_{n+1} g_{n-1}) for each n >= 2."""
    gt = chi_table(t, truncation + 1, params, normalized=True)
    gs = chi_table(s, truncation + 1, params, normalized=True)
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


def enumerated_series_blocks(truncation):
    """The series' summation blocks from every (j, k) with j + k <= 2*truncation:
    (positive, negative) terms (|c|, j, k), each sorted by j."""
    blocks = {}
    for j, k in degree_pairs(2 * truncation):
        c = pairing_closed(-1, j, k, 1)
        if c:
            positive, negative = blocks.setdefault(max(j + k, 2), ([], []))
            (negative if c < 0 else positive).append((float(abs(c)), j, k))
    return tuple(tuple(tuple(sorted(terms, key=lambda term: term[1])) for terms in block)
                 for block in blocks.values())


def test_series_blocks_match_full_enumeration():
    for truncation in range(1, 41):
        assert density._series_blocks(truncation) == enumerated_series_blocks(truncation)


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


# Polynomials as {exponents: Fraction coefficient} dicts, with no zero
# coefficient kept, so two polynomials are equal exactly when their dicts are.


def poly(*terms) -> dict:
    """The sum of the (coefficient, exponents) ``terms``."""
    out = {}
    for coef, exps in terms:
        out[exps] = out.get(exps, 0) + Fraction(coef)
    return {exps: coef for exps, coef in out.items() if coef}


def poly_add(*polys) -> dict:
    return poly(*((coef, exps) for p in polys for exps, coef in p.items()))


def poly_mul(*polys) -> dict:
    out = {(0,) * len(next(iter(polys[0]))): Fraction(1)}
    for p in polys:
        out = poly(*((c * d, tuple(x + y for x, y in zip(e, f)))
                     for e, c in out.items() for f, d in p.items()))
    return out


def poly_scale(p: dict, coef) -> dict:
    return poly(*((coef * c, exps) for exps, c in p.items()))


def bracket(rank: int) -> dict:
    """The closed form's denominator (b^2 - 1)^2 + b (t^2 + s^2) - (b^2 + 1) ts,
    in t^i s^j keyed (i, j)."""
    b = 2 * rank - 1
    return poly(((b * b - 1) ** 2, (0, 0)), (b, (2, 0)), (b, (0, 2)), (-(b * b + 1), (1, 1)))


@pytest.mark.parametrize("rank", range(2, 9))
def test_trig_denominators_give_the_bracket(rank):
    # b^4 (1 - 2x cos(theta - phi) + x^2)(1 - 2x cos(theta + phi) + x^2) is the
    # bracket once cos(theta - phi) + cos(theta + phi) = 2ts/a^2 and
    # cos(theta - phi) cos(theta + phi) = (t^2 + s^2)/a^2 - 1, with a^2 = 4b and
    # x = 1/b.  The product is expanded in (t, s, cos(theta - phi), cos(theta + phi)).
    b = 2 * rank - 1
    x, a2 = Fraction(1, b), 4 * b
    product = poly_mul(poly((1 + x * x, (0, 0, 0, 0)), (-2 * x, (0, 0, 1, 0))),
                       poly((1 + x * x, (0, 0, 0, 0)), (-2 * x, (0, 0, 0, 1))))
    cos_sum = poly((Fraction(2, a2), (1, 1)))
    cos_product = poly((Fraction(1, a2), (2, 0)), (Fraction(1, a2), (0, 2)), (-1, (0, 0)))
    # the product is symmetric in the two cosines, so it is a polynomial in their sum and product
    assert set(product) == {(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)}
    assert product[0, 0, 1, 0] == product[0, 0, 0, 1]
    substituted = poly_add(poly((product[0, 0, 0, 0], (0, 0))),
                           poly_scale(cos_sum, product[0, 0, 1, 0]),
                           poly_scale(cos_product, product[0, 0, 1, 1]))
    assert poly_scale(substituted, b**4) == bracket(rank)


@pytest.mark.parametrize("rank", range(2, 9))
def test_upper_bound_expansion(rank):
    # N^2 bracket - (N - 1)^2 (4N^2 - t^2)(4N^2 - s^2)
    #   = N^2 [(4N^2 - 6N + 3)(t^2 + s^2) - (b^2 + 1) ts] - (N - 1)^2 t^2 s^2
    n, b = rank, 2 * rank - 1
    d2 = 4 * n * n
    numerator = poly_mul(poly((d2, (0, 0)), (-1, (2, 0))), poly((d2, (0, 0)), (-1, (0, 2))))
    left = poly_add(poly_scale(bracket(rank), n * n), poly_scale(numerator, -(n - 1) ** 2))
    c = 4 * n * n - 6 * n + 3
    right = poly((n * n * c, (2, 0)), (n * n * c, (0, 2)), (-n * n * (b * b + 1), (1, 1)),
                 (-(n - 1) ** 2, (2, 2)))
    assert left == right


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
    # every v chi_k of the sweep comes from one times_chi pass over v, and each chi_j v
    # from two last-letter gathers of v, with no pass of its own
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
    assert set(blob) == {"j", "k", "value_exact", "value_case", "value_quad", "quad_tol", "pass"}
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


def p_loop(n, t, params):
    """p_n(t) by the three-term recurrence as one loop of its own."""
    prev, cur = np.ones_like(t), t
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, t * cur - (params.degree if k == 1 else params.branching) * prev
    return cur


def chi_pair_reference(j, k, params, tol):
    """chi_pair_integral with p_j and p_k each from a loop of its own, over
    the same ladder of orders."""
    prev = None
    for order in (32, 64, 128, 256, 512):
        t, w = lambda_rule(order, params.rank)
        grid, _ = density_closed_grid(t[:, None], t[None, :], params)
        est = float((w * p_loop(j, t, params)) @ grid @ (w * p_loop(k, t, params)))
        if prev is not None and abs(est - prev) <= tol:
            return est
        prev = est
    raise QuadratureError("no convergence")


@pytest.mark.parametrize("params", [P2, SpectralParams(4)], ids=["rank2", "rank4"])
def test_chi_pair_integral_has_the_bits_of_a_per_pair_loop(params):
    # pairing_sweep's default tolerance, halved as it passes it on
    for j, k in degree_pairs(6):
        value = chi_pair_integral(j, k, params, 5e-7)
        assert value.hex() == chi_pair_reference(j, k, params, 5e-7).hex(), (j, k)


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


def test_zero_scan_report_serialization():
    report = zero_scan(32, [1e-1, 1e-5], P2)
    blob = report.to_json_dict()
    assert blob["fractions"] == {"0.1": report.fractions[1e-1], "1e-05": report.fractions[1e-5]}
    assert blob["argmin"] == list(report.argmin)


def test_zero_scan_not_identically_zero():
    report = zero_scan(64, [1e-8], P2)
    assert report.max_abs >= 1.0
    assert report.fractions[1e-8] == 0.0
