"""The left-right density on the spectral square.

Writing g_n(t) = p_n(t) / |p_n|^2, the density of the bimodule generated
by the length-one vector v (sign -1) is

    f(t, s) = sum_{j,k} c(j, k) g_j(t) g_k(s),
    c(j, k) = <chi_j v chi_k, v> / |v|^2 = pairing_closed(-1, j, k, 1).

It is evaluated two independent ways: a truncated series with a rigorous
tail bound, and a closed form obtained by summing each trigonometric family
of the series with the geometric-sine sum.  The series is the arbiter; the
closed form must agree with it within the tail bound everywhere.

The series truncated at K keeps every term with j + k <= 2K, summed in
blocks: every term with j + k <= 2 forms the first, then each j + k has its
own.  A block is (sum of its positive terms) - (sum of its |negative|
terms), each sum in ascending j; a term is g_j(t) g_k(s) when |c| = 1 and
(|c| g_j(t)) g_k(s) otherwise.  This fixed order makes the values exactly
symmetric under (t, s) exchange.  The normalized values satisfy g_0 = 1,
g_1 = t/degree, g_{k+1} = (t*g_k - g_{k-1})/branching, which keeps every
intermediate bounded.

Both grid functions evaluate one block of about ``BLOCK_POINTS`` points
(whole rows of the leading axis) at a time into one preallocated output,
so each block's temporaries stay in cache.  Every operation is
elementwise, so the blocking leaves each value's bits unchanged.

Closed-form assembly: with t = a*cos(theta), s = a*cos(phi), x = 1/branching
and c_t = 2*branching_ratio*cos(theta) (same for s),

    g_n(t) g_n(s) = x^n * [ c_t c_s sin(n th) sin(n ph)
                            - c_t sin(n th) sin((n-1) ph)
                            - c_s sin((n-1) th) sin(n ph)
                            + sin((n-1) th) sin((n-1) ph) ] / (sin th sin ph)

and the n>=2 sums of each family (past j + k = 2 the only nonzero
coefficients are c(n, n) = 2 and c(n - 1, n + 1) = c(n + 1, n - 1) = -1)
reduce to the closed trig sum
T(x, th, ph, r) = sum x^n sin(n th) sin((n+r) ph) after index shifts:

    sum_{n>=2} x^n sin(n th) sin(n ph)      = T(x,th,ph,0) - x sin(th) sin(ph)
    sum_{n>=2} x^n sin(n th) sin((n-1) ph)  = x T(x,ph,th,1)
    sum_{n>=2} x^n sin((n-1) th) sin(n ph)  = x T(x,th,ph,1)
    sum_{n>=2} x^n sin((n-1) th) sin((n-1) ph) = x T(x,th,ph,0)

with the analogous shifts (r = 1, 2, 3) for the cross products
g_{n-1}(t) g_{n+1}(s).  All seven sums come from two ``trig_sums`` calls per
block, which compute each denominator and each cosine once; every
single-angle term is computed on the block's axes, and the guard band's
series overwrites the closed form's values there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import GradedVector
from .errors import QuadratureError
from .identities import degree_pairs, fraction_str, pairing_closed, standard_test_vectors
from .spectral import SpectralParams, chi_eval_recurrence, lambda_rule, trig_sums

# |sin(theta)*sin(phi)| below this makes the closed form ill-conditioned;
# those points are evaluated by the series branch instead.
CLOSED_FORM_GUARD = 1e-6

# Truncation order used when the closed form falls back to the series.
GUARD_SERIES_ORDER = 60

# Points per block of leading-axis rows in the grid functions, and per block
# of grid rows in the CLI export: small enough that a block's temporaries
# stay in cache.
BLOCK_POINTS = 1 << 14


@dataclass(frozen=True)
class PairingReport:
    """Three-way evaluation of the pairing of two radial word sums against
    the normalized test vector: exact group algebra, case formula, and
    double quadrature against the density."""

    j: int
    k: int
    value_exact: Fraction
    value_case: Fraction
    value_quad: float
    quad_tol: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "k": self.k,
            "value_exact": fraction_str(self.value_exact),
            "value_case": fraction_str(self.value_case),
            "value_quad": self.value_quad,
            "quad_tol": self.quad_tol,
            "pass": self.passed,
        }


def series_tail_bound(truncation: int, params: SpectralParams) -> float:
    """Rigorous bound on the series tail beyond index ``truncation``.

    Each normalized value obeys |g_n| <= 3n * b**(-n/2) (from
    |sin n theta| <= n sin theta and 2*branching_ratio < 2), so the n-th
    series term is bounded by 36 n^2 b^-n and the tail by the exact
    geometric-polynomial sum

        36 * sum_{n > K} n^2 x^n
      = 36 * x^(K+1) * [ (K+1)^2/(1-x) + 2(K+1)x/(1-x)^2 + x(1+x)/(1-x)^3 ]

    with x = 1/b.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    x = 1.0 / params.branching
    k1 = truncation + 1
    one_minus = 1.0 - x
    return 36.0 * x**k1 * (
        k1 * k1 / one_minus
        + 2.0 * k1 * x / one_minus**2
        + x * (1.0 + x) / one_minus**3
    )


def _normalized_chi_table(t: np.ndarray, max_n: int, params: SpectralParams) -> np.ndarray:
    """g_n(t) = p_n(t)/|p_n|^2 for n = 0..max_n, shape (max_n+1,) + t.shape."""
    t = np.asarray(t, dtype=float)
    out = np.empty((max_n + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if max_n >= 1:
        out[1] = t / params.degree
    b = float(params.branching)
    for k in range(1, max_n):
        out[k + 1] = (t * out[k] - out[k - 1]) / b
    return out


def _check_points(t, s, params: SpectralParams) -> None:
    if np.any(params.outside(t)) or np.any(params.outside(s)):
        raise ValueError("point outside the closed spectral square")


def _row_blocks(t: np.ndarray, s: np.ndarray):
    """Yield (t part, s part, out index) for each block of about BLOCK_POINTS
    points, in whole rows of the leading axis of the broadcast shape.

    An input that broadcasts along that axis is passed whole, so the chi
    table of an axis is built from the axis alone.  A 0-d shape is one block.
    """
    shape = np.broadcast_shapes(t.shape, s.shape)
    if not shape:
        yield t, s, ...
        return
    step = max(1, BLOCK_POINTS // max(1, math.prod(shape[1:])))
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        yield (*(x[rows] if x.ndim == len(shape) and x.shape[0] == shape[0] else x
                 for x in (t, s)), rows)


@lru_cache(maxsize=None)
def _series_blocks(truncation: int) -> tuple:
    """The nonzero c(j, k) with j + k <= 2*truncation as the summation blocks
    of the module docstring: (positive, negative) terms (|c|, j, k) by j."""
    blocks: dict[int, tuple[list, list]] = {}
    for j, k in degree_pairs(2 * truncation):
        c = pairing_closed(-1, j, k, 1)
        if c:
            positive, negative = blocks.setdefault(max(j + k, 2), ([], []))
            (negative if c < 0 else positive).append((float(abs(c)), j, k))
    return tuple(tuple(tuple(sorted(terms, key=lambda term: term[1])) for terms in block)
                 for block in blocks.values())


def density_series_grid(
    t, s, truncation: int, params: SpectralParams
) -> tuple[np.ndarray, float]:
    """Truncated series on broadcastable arrays; returns (values, tail_bound).

    On a grid, pass the axes ``t[:, None], s[None, :]``: each chi table then
    holds one axis, and the values are the same bits as on broadcast grids.
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_points(t, s, params)
    values = np.empty(np.broadcast_shapes(t.shape, s.shape))
    for tb, sb, rows in _row_blocks(t, s):
        values[rows] = _series_block(tb, sb, truncation, params)
    return (values if values.ndim else values[()]), series_tail_bound(truncation, params)


def _series_block(t: np.ndarray, s: np.ndarray, truncation: int, params: SpectralParams):
    gt = _normalized_chi_table(t, truncation + 1, params)
    gs = _normalized_chi_table(s, truncation + 1, params)
    total, pos, neg, product = (np.empty(np.broadcast_shapes(gt.shape[1:], gs.shape[1:]))
                                for _ in range(4))

    # each product goes to one reused buffer, so every sum accumulates in place
    def term_sum(terms, out):
        """Sum ``terms`` into ``out``: the first term written, the rest added."""
        for n, (c, j, k) in enumerate(terms):
            dest = product if n else out
            np.multiply(gt[j] if c == 1.0 else c * gt[j], gs[k], out=dest)
            if n:
                out += product

    for n, (positive, negative) in enumerate(_series_blocks(truncation)):
        block = pos if n else total
        term_sum(positive, block)
        term_sum(negative, neg)
        block -= neg
        if n:
            total += block
    return total


def _closed_form_values(theta, phi, sin_t, sin_p, params: SpectralParams) -> np.ndarray:
    """Closed form on broadcastable angle arrays (on a grid, the axes) and their
    sines; meaningful only where sin_t * sin_p is safely nonzero."""
    b = float(params.branching)
    x = 1.0 / b
    d2 = 2.0 * params.branching_ratio
    cos_t, cos_p = np.cos(theta), np.cos(phi)
    ct, cp = d2 * cos_t, d2 * cos_p

    t0, t1, t2, t3 = trig_sums(x, theta, phi, (0, 1, 2, 3))
    t1r, t2r, t3r = trig_sums(x, phi, theta, (1, 2, 3))

    # diagonal family: sum_{n>=2} x^n [ct*cp sin(n th) sin(n ph) - ...]
    diag = (
        ct * cp * (t0 - x * sin_t * sin_p)
        - ct * x * t1r
        - cp * x * t1
        + x * t0
    )
    # cross family g_{n-1}(t) g_{n+1}(s)
    cross = ct * cp * x * t2 - ct * x * t1 - cp * x * x * t3 + x * x * t2
    # mirrored cross family g_{n+1}(t) g_{n-1}(s)
    cross_m = cp * ct * x * t2r - cp * x * t1r - ct * x * x * t3r + x * x * t2r

    a = params.halfwidth
    t = a * cos_t
    s = a * cos_p
    g1t, g1s = t / params.degree, s / params.degree
    norm2 = params.degree * b
    g2t = (t * t - params.degree) / norm2
    g2s = (s * s - params.degree) / norm2
    head = 1.0 + g1t * g1s - g2t - g2s
    # the quotient is discarded wherever the guard band applies
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = (2.0 * diag - cross - cross_m) / (sin_t * sin_p)
    return head + tail


def density_closed_grid(t, s, params: SpectralParams) -> tuple[np.ndarray, np.ndarray]:
    """Closed form on broadcastable arrays, with series fallback inside the guard band.

    Returns (values, method_mask) where method_mask is True where the
    series branch was used.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_points(t, s, params)
    a = params.halfwidth
    shape = np.broadcast_shapes(t.shape, s.shape)
    values = np.empty(shape)
    guarded = np.empty(shape, dtype=bool)
    for tb, sb, rows in _row_blocks(t, s):
        theta = np.arccos(np.clip(tb / a, -1.0, 1.0))
        phi = np.arccos(np.clip(sb / a, -1.0, 1.0))
        sin_t, sin_p = np.sin(theta), np.sin(phi)
        guard = np.abs(sin_t * sin_p) < CLOSED_FORM_GUARD
        guarded[rows] = guard
        values[rows] = _closed_form_values(theta, phi, sin_t, sin_p, params)
        if np.any(guard):
            tb, sb = np.broadcast_arrays(tb, sb)
            values[rows][guard] = density_series_grid(tb[guard], sb[guard],
                                                      GUARD_SERIES_ORDER, params)[0]
    return values, guarded


# ----------------------------------------------------------------------
# pairing against the density
# ----------------------------------------------------------------------


def pairing_exact(
    rank: int, max_total: int, cap: int | None = None
) -> dict[tuple[int, int], Fraction]:
    """{(j, k): <chi_j v chi_k, v> / |v|^2} for every j + k <= max_total,
    computed in the group algebra (sign -1 vector).

    chi_j is self-adjoint and v* = sign v, so the pairing is
    <v chi_k, chi_j v> = sign <v chi_k, (v chi_j)*>: one ``times_chi`` pass
    over v gives every v chi_k, and each j takes one adjoint of v chi_j.
    """
    v = standard_test_vectors(rank)[-1][0]
    right = GradedVector.from_element(v.element, cap).times_chi(max_total, cap)
    norm_sq = Fraction(v.norm_sq())
    values = {}
    for j in range(max_total + 1):
        left = right[j].adjoint()
        for k in range(max_total - j + 1):
            values[j, k] = v.sign * Fraction(right[k].inner(left)) / norm_sq
    return values


class _DensityQuadrature:
    """Shared doubling tensor-product quadrature of moments against the density."""

    MIN_ORDER = 32
    MAX_ORDER = 512

    def __init__(self, params: SpectralParams):
        self.params = params
        self._levels: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _level(self, order: int):
        if order not in self._levels:
            t, w = lambda_rule(order, self.params.rank)
            grid_vals, _ = density_closed_grid(t[:, None], t[None, :], self.params)
            self._levels[order] = (t, w, grid_vals)
        return self._levels[order]

    def chi_pair_integral(self, j: int, k: int, tol: float) -> float:
        """integral of p_j(t) p_k(s) f(t,s) dlambda(t) dlambda(s)."""
        prev = None
        order = self.MIN_ORDER
        while order <= self.MAX_ORDER:
            t, w, grid = self._level(order)
            left = w * chi_eval_recurrence(j, t, self.params)
            right = w * chi_eval_recurrence(k, t, self.params)
            est = float(left @ grid @ right)
            if prev is not None and abs(est - prev) <= tol:
                return est
            prev = est
            order *= 2
        raise QuadratureError(f"density pairing quadrature did not reach {tol}")


def pairing_sweep(
    params: SpectralParams, max_total: int = 6, tol: float = 1e-6, cap: int | None = None
) -> list[PairingReport]:
    """Every pairing with j + k <= max_total three ways: exact group algebra,
    case formula, and quadrature against the density.  Exact equality on the
    algebraic side, tolerance on the quadrature side; one quadrature serves
    every check."""
    quad = _DensityQuadrature(params)
    reports = []
    exact = pairing_exact(params.rank, max_total, cap)
    for j, k in degree_pairs(max_total):
        value_exact = exact[j, k]
        value_case = pairing_closed(-1, j, k, Fraction(1))
        value_quad = quad.chi_pair_integral(j, k, tol / 2.0)
        passed = value_exact == value_case and abs(value_quad - float(value_case)) <= tol
        reports.append(PairingReport(j, k, value_exact, value_case, value_quad, tol, passed))
    return reports


def density_normalization(params: SpectralParams, tol: float = 1e-8) -> float:
    """integral of f against the product measure; equals 1 for a density."""
    quad = _DensityQuadrature(params)
    return quad.chi_pair_integral(0, 0, tol / 2.0)


# ----------------------------------------------------------------------
# zero-set scan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroScanReport:
    """Near-zero census of the density on an interior grid."""

    grid_n: int
    rank: int
    fractions: dict[float, float]
    min_abs: float
    argmin: tuple[float, float]
    max_abs: float

    def to_json_dict(self) -> dict:
        return {
            "grid_n": self.grid_n,
            "rank": self.rank,
            "fractions": {repr(tol): frac for tol, frac in self.fractions.items()},
            "min_abs": self.min_abs,
            "argmin": list(self.argmin),
            "max_abs": self.max_abs,
        }


def interior_grid(grid_n: int, params: SpectralParams) -> np.ndarray:
    """Midpoints of a uniform grid_n-cell split of the spectrum interval."""
    a = params.halfwidth
    return -a + (np.arange(grid_n) + 0.5) * (2.0 * a / grid_n)


def zero_scan(
    grid_n: int, tol_list: list[float], params: SpectralParams
) -> ZeroScanReport:
    """Fractions of grid points where |f| dips below each tolerance.

    The density vanishes on at most a measure-zero set, so the fractions
    should shrink toward zero with the tolerance; a large near-zero region
    signals an implementation bug, not geometry.
    """
    if grid_n < 16:
        raise ValueError("a meaningful scan needs grid_n >= 16")
    pts = interior_grid(grid_n, params)
    values, _ = density_closed_grid(pts[:, None], pts[None, :], params)
    absvals = np.abs(values)
    fractions = {float(tol): float(np.mean(absvals < tol)) for tol in tol_list}
    flat_idx = int(np.argmin(absvals))
    i, j = np.unravel_index(flat_idx, absvals.shape)
    return ZeroScanReport(
        grid_n=grid_n,
        rank=params.rank,
        fractions=fractions,
        min_abs=float(absvals[i, j]),
        argmin=(float(pts[i]), float(pts[j])),
        max_abs=float(absvals.max()),
    )
