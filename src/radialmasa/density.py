"""The left-right density on the spectral square.

Writing g_n(t) = p_n(t) / |p_n|^2, the density of the bimodule generated
by the length-one vector v (sign -1) is

    f(t, s) = sum_{j,k} c(j, k) g_j(t) g_k(s),
    c(j, k) = <chi_j v chi_k, v> / |v|^2 = pairing_closed(-1, j, k, 1).

It is evaluated two independent ways: a truncated series with a rigorous
tail bound, and a closed form.  The series is the arbiter; the closed form
must agree with it within the tail bound everywhere.

The series truncated at K keeps every term with j + k <= 2K, summed in
blocks: every term with j + k <= 2 forms the first, then each j + k has its
own.  A block is (sum of its positive terms) - (sum of its |negative|
terms), each sum in ascending j; a term is g_j(t) g_k(s) when |c| = 1 and
(|c| g_j(t)) g_k(s) otherwise.  This fixed order makes the values exactly
symmetric under (t, s) exchange.  The normalized values satisfy g_0 = 1,
g_1 = t/degree, g_{k+1} = (t*g_k - g_{k-1})/branching, which keeps every
intermediate bounded; ``spectral.chi_table`` gives them.

Both grid functions evaluate one block of about ``BLOCK_POINTS`` points
(whole rows of the leading axis) at a time into one preallocated output,
so each block's temporaries stay in cache.  Every operation is
elementwise, so the blocking leaves each value's bits unchanged.  On one
axis, passed as the column ``t[:, None]`` and the row ``s[None, :]`` with
the same bits, the grid is symmetric and only part of it is evaluated
(``symmetric_blocks``): each block of rows [r0, r1) on the columns from
r0 on, about n(n + 1)/2 points in all, and its columns past r1 are copied
into rows past r1 as its transpose.  When the axis is also antisymmetric
bit for bit (each t_{n-1-i} is -t_i), the grid is folded as well: only
the rows r0 < ceil(n/2) are evaluated, each block on the columns
[r0, n - r0), the domain {i <= j, i + j <= n - 1} of about n^2/4 points,
and before the transpose each row i is copied, reversed, into column
n - 1 - i.  No float is its own negative bit for bit, so an odd axis,
whose centre would have to be, is never folded.

Each copy is bitwise exact.  Both kernels give f(t, s) and f(s, t) the
same bits (the series by its summation order above, the closed form by
its pairing of t and s terms below), so the transposed value f(t_i, s_j)
has the bits of f(s_j, t_i), which is the value f(t_j, s_i) it stands
for, since t_j is s_j and s_i is t_i bit for bit.  Both kernels also give
f(-t, -s) the same bits as f(t, s), for three reasons: the recurrence of
``spectral.chi_table`` negates exactly, so g_n(-t) is (-1)^n g_n(t) bit
for bit; every nonzero c(j, k) has j + k even, so each series term
g_j(-t) g_k(-s) is g_j(t) g_k(s); and the closed form reads only t^2, s^2
and t*s.  So the reversed copy f(t_i, s_j), with t_i = -s_{n-1-i} and
s_j = -t_{n-1-j}, has by both identities the bits of the value
f(t_{n-1-j}, s_{n-1-i}) it stands for.  Any other input, such as axes
that differ only in the sign of a zero, is evaluated in full.

Closed form.  With N the rank, b = 2N - 1, x = 1/b, t = a*cos(theta) and
s = a*cos(phi), past j + k = 2 the only nonzero coefficients are
c(n, n) = 2 and c(n - 1, n + 1) = c(n + 1, n - 1) = -1.  Writing each
g_n in the angle variable turns every family of the series into sums
sum_n x^n sin(n theta + .) sin(n phi + .), which ``spectral.trig_sum``
sums in closed form over the two denominators 1 - 2x cos(theta -+ phi) + x^2.
Their product is rational in t and s,

    b^4 (1 - 2x cos(theta - phi) + x^2)(1 - 2x cos(theta + phi) + x^2)
        = (b^2 - 1)^2 + b (t^2 + s^2) - (b^2 + 1) t s,

the sin(theta) sin(phi) of the g_n cancels, and the whole series sums to

    f(t, s) = (N - 1) (4N^2 - t^2) (4N^2 - s^2)
              / (N [(b^2 - 1)^2 + b (t^2 + s^2) - (b^2 + 1) t s]).

Each factor b^2 (1 - 2x cos + x^2) lies in [(b - 1)^2, (b + 1)^2], so the
bracket lies in [(b - 1)^4, (b + 1)^4] = [16 (N - 1)^4, 16 N^4], and each
4N^2 - t^2 in [4 (N - 1)^2, 4 N^2]; hence f >= ((N - 1)/N)^5, reached at
t = -s = +-a.  And N^2 [bracket] - (N - 1)^2 (4N^2 - t^2)(4N^2 - s^2)
= N^2 [(4N^2 - 6N + 3)(t^2 + s^2) - (b^2 + 1) t s] - (N - 1)^2 t^2 s^2
>= (N - 1)^2 |ts| (4N^2 - |ts|) >= 0 by t^2 + s^2 >= 2|ts| and
|ts| <= a^2 < 4N^2, so f <= N/(N - 1), reached at the centre.  A density
bounded above and below by positive constants makes the measure of the
bimodule generated by v equivalent to the product of the spectral
measures, so that bimodule is coarse.

The kernel uses only + - * /, with every t term paired with the matching
s term, so the closed grid is bitwise symmetric under (t, s) exchange and
finite on the whole closed square, corners included.

``pairing_sweep`` checks each c(j, k) against ``identities.pairing_exact`` and,
by the one quadrature function ``chi_pair_integral``, against the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import QuadratureError
from .identities import (
    JsonRecord, RecordTable, degree_pairs, fraction_str, pairing_closed, pairing_exact,
    standard_test_vectors)
from .spectral import SpectralParams, chi_table, lambda_rule

# Points per block of leading-axis rows in the grid functions, and per block
# of grid rows in the CLI export: small enough that a block's temporaries
# stay in cache.
BLOCK_POINTS = 1 << 14


@dataclass(frozen=True)
class PairingReport(JsonRecord):
    """Three-way evaluation of the pairing of two radial word sums against
    the normalized test vector: exact group algebra, case formula, and
    double quadrature against the density."""

    j: int
    k: int
    value_exact: Fraction = field(metadata={"convert": fraction_str})
    value_case: Fraction = field(metadata={"convert": fraction_str})
    value_quad: float
    quad_tol: float
    passed: bool = field(metadata={"key": "pass"})


def series_tail_bound(truncation: int, params: SpectralParams) -> float:
    """Rigorous bound on the series tail beyond index ``truncation``.

    With b = 2N - 1, each normalized value obeys |g_n| <= 3n * b**(-n/2)
    (from |sin n theta| <= n sin theta and b/N < 2), so the n-th
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


def _points(t, s, params: SpectralParams) -> tuple[np.ndarray, np.ndarray]:
    """``t`` and ``s`` as float arrays, each point in the closed spectral square."""
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    if np.any(params.outside(t)) or np.any(params.outside(s)):
        raise ValueError("point outside the closed spectral square")
    return t, s


def symmetric_blocks(values: np.ndarray, step: int, fold: bool):
    """Yield the rows and columns of each block of the symmetric square grid
    ``values`` to evaluate, ``step`` rows at a time, and once the caller has
    written a block, copy it to the points it stands for (see the module
    docstring).

    Without ``fold``, the block of rows [r0, r1) spans the columns from r0
    on.  With ``fold``, only the rows r0 < ceil(n/2) are blocked, each block
    on the columns [r0, n - r0), and each of its rows i is then copied,
    reversed, into column n - 1 - i.  Either way ``values[r1:, r0:r1]`` is
    then copied from ``values[r0:r1, r1:].T``.  Any array works, so the CLI
    fills a grid of texts with the copies that fill a grid of values.
    """
    n = len(values)
    stop = (n + 1) // 2 if fold else n
    for r0 in range(0, stop, step):
        r1 = min(r0 + step, stop)
        yield slice(r0, r1), slice(r0, n - r0 if fold else n)
        if fold:
            values[:, n - r1:n - r0] = values[r0:r1, ::-1][::-1].T
        values[r1:, r0:r1] = values[r0:r1, r1:].T


def _grid(t: np.ndarray, s: np.ndarray, kernel, table=np.asarray):
    """``kernel(table(t), table(s))`` on the broadcast shape of ``t`` and ``s``:
    a NumPy scalar when that shape is (), else one block of about BLOCK_POINTS
    points (whole rows of the leading axis) at a time into one preallocated
    output.  ``table`` maps an input to the arrays the kernel reads, its last
    axes those of the input, and the kernel gives (x, y), (y, x) and
    (-x, -y) the same bits.

    An input that spans the leading axis is tabled a block at a time, any
    other once.  When ``t`` is a column axis and ``s`` a row axis with the
    same bits, only the blocks of ``symmetric_blocks`` are evaluated, folded
    when the axis is antisymmetric bit for bit (see the module docstring).
    Any other input is evaluated in full.
    """
    shape = np.broadcast_shapes(t.shape, s.shape)
    if not shape:
        return np.float64(kernel(table(t), table(s)))
    values = np.empty(shape)
    n = shape[0]
    step = max(1, BLOCK_POINTS // max(1, math.prod(shape[1:])))
    if t.shape == (n, 1) and s.shape == (1, n) and t.tobytes() == s.tobytes():
        fold = t.tobytes() == (-t[::-1]).tobytes()
        whole = table(s)
        for rows, cols in symmetric_blocks(values, step, fold):
            values[rows, cols] = kernel(table(t[rows]), whole[..., cols])
        return values
    spans = [x.ndim == len(shape) and x.shape[0] == n for x in (t, s)]
    tables = [None if span else table(x) for x, span in zip((t, s), spans)]
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        values[rows] = kernel(*(table(x[rows]) if span else whole
                                for x, span, whole in zip((t, s), spans, tables)))
    return values


def _series_blocks(truncation: int) -> tuple:
    """The nonzero c(j, k) with j + k <= 2*truncation as the summation blocks
    of the module docstring: (positive, negative) terms (|c|, j, k) by j.

    Every nonzero c(j, k) has |j - k| of 0 or 2 (``pairing_closed``), so only
    the even totals T and j from T/2 - 1 to T/2 + 1 are visited."""
    blocks: dict[int, tuple[list, list]] = {}
    for total in range(0, 2 * truncation + 1, 2):
        positive, negative = blocks.setdefault(max(total, 2), ([], []))
        half = total // 2
        for j in range(max(half - 1, 0), min(half + 1, total) + 1):
            c = pairing_closed(-1, j, total - j, 1)
            if c:
                (negative if c < 0 else positive).append((float(abs(c)), j, total - j))
    return tuple((tuple(positive), tuple(negative)) for positive, negative in blocks.values())


def density_series_grid(
    t, s, truncation: int, params: SpectralParams
) -> tuple[np.ndarray, float]:
    """Truncated series on broadcastable arrays; returns (values, tail_bound),
    the values a NumPy scalar for scalar inputs.

    On a grid, pass the axes ``t[:, None], s[None, :]``: each chi table then
    holds one axis, the s table is built once, and on one axis the grid is
    mirrored (``_grid``); the values are the same bits as on broadcast grids.
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    t, s = _points(t, s, params)
    blocks = _series_blocks(truncation)
    values = _grid(t, s, lambda gt, gs: _series_sum(gt, gs, blocks),
                   lambda x: chi_table(x, truncation + 1, params, normalized=True))
    return values, series_tail_bound(truncation, params)


def _series_sum(gt: np.ndarray, gs: np.ndarray, blocks: tuple) -> np.ndarray:
    """The series of ``blocks`` on the chi tables ``gt`` and ``gs``."""
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

    for n, (positive, negative) in enumerate(blocks):
        block = pos if n else total
        term_sum(positive, block)
        term_sum(negative, neg)
        block -= neg
        if n:
            total += block
    return total


def density_closed_grid(t, s, params: SpectralParams) -> tuple[np.ndarray, np.float64]:
    """Closed form on broadcastable arrays; returns (values, tail), tail = 0.0,
    the values a NumPy scalar for scalar inputs.

    The values are exact up to roundoff on the whole closed square.  On a
    grid, pass the axes ``t[:, None], s[None, :]``: the squares and
    4N^2 - t^2 are then computed on the axes, and on one axis the grid is
    mirrored (``_grid``).
    """
    t, s = _points(t, s, params)
    n, b = params.rank, float(params.branching)
    d2, k = 4.0 * n * n, (b * b - 1.0) ** 2

    def kernel(tb, sb):
        t2, s2 = tb * tb, sb * sb
        return ((n - 1) / n) * ((d2 - t2) * (d2 - s2)) / (
            (k + b * (t2 + s2)) - (b * b + 1.0) * (tb * sb))

    # a numpy scalar, not 0.0: the benchmark tracer calls .sum() on this item
    return _grid(t, s, kernel), np.float64(0.0)


# ----------------------------------------------------------------------
# pairing against the density
# ----------------------------------------------------------------------


def chi_pair_integral(j: int, k: int, params: SpectralParams, tol: float) -> float:
    """integral of p_j(t) p_k(s) f(t,s) dlambda(t) dlambda(s) by a tensor
    ``lambda_rule``, its order doubled from 32 until two estimates agree
    within ``tol``; past order 512 it raises ``QuadratureError``."""
    prev = None
    for order in (32, 64, 128, 256, 512):
        t, w = lambda_rule(order, params.rank)
        grid, _ = density_closed_grid(t[:, None], t[None, :], params)
        p = chi_table(t, max(j, k), params)
        left, right = w * p[j], w * p[k]
        est = float(left @ grid @ right)
        if prev is not None and abs(est - prev) <= tol:
            return est
        prev = est
    raise QuadratureError(f"density pairing quadrature did not reach {tol}")


def pairing_sweep(
    params: SpectralParams, max_total: int = 6, tol: float = 1e-6, cap: int | None = None
) -> RecordTable:
    """Every pairing with j + k <= max_total three ways: ``pairing_exact`` of the
    sign -1 vector over |v|^2, case formula, and quadrature against the density.
    Exact equality on the algebraic side, tolerance on the quadrature side.
    The checks are one block of a ``PairingReport`` table."""
    v = standard_test_vectors(params.rank)[-1][0]
    norm_sq = Fraction(v.norm_sq())
    exact = pairing_exact(v, max_total, cap)
    pairs = degree_pairs(max_total)
    value_exact = [exact[j, k] / norm_sq for j, k in pairs]
    value_case = [pairing_closed(-1, j, k, Fraction(1)) for j, k in pairs]
    value_quad = [chi_pair_integral(j, k, params, tol / 2.0) for j, k in pairs]
    passed = [e == c and abs(q - float(c)) <= tol
              for e, c, q in zip(value_exact, value_case, value_quad)]
    return RecordTable(PairingReport, [{
        "j": [j for j, _ in pairs], "k": [k for _, k in pairs], "value_exact": value_exact,
        "value_case": value_case, "value_quad": value_quad, "quad_tol": tol,
        "passed": passed}])


def density_normalization(params: SpectralParams, tol: float = 1e-8) -> float:
    """integral of f against the product measure; equals 1 for a density."""
    return chi_pair_integral(0, 0, params, tol / 2.0)


# ----------------------------------------------------------------------
# zero-set scan
# ----------------------------------------------------------------------


def _repr_keys(fractions: dict[float, float]) -> dict[str, float]:
    """A map from tolerances keyed by their reprs, as the scan report writes it."""
    return {repr(tol): frac for tol, frac in fractions.items()}


@dataclass(frozen=True)
class ZeroScanReport(JsonRecord):
    """Near-zero census of the density on an interior grid."""

    grid_n: int
    rank: int
    fractions: dict[float, float] = field(metadata={"convert": _repr_keys})
    min_abs: float
    argmin: tuple[float, float] = field(metadata={"convert": list})
    max_abs: float


def interior_grid(grid_n: int, params: SpectralParams) -> np.ndarray:
    """Midpoints of a uniform grid_n-cell split of the spectrum interval,
    a (2k + 1 - grid_n) / grid_n: exactly antisymmetric, each midpoint the
    negative of its mirror image bit for bit, apart from an odd grid's
    centre, which is 0.0."""
    a = params.halfwidth
    return a * (2 * np.arange(grid_n) + 1 - grid_n) / grid_n


def zero_scan(
    grid_n: int, tol_list: list[float], params: SpectralParams
) -> ZeroScanReport:
    """Fractions of grid points where |f| dips below each tolerance.

    The density is at least ((N - 1)/N)^5 on the closed square (see the
    module docstring), so every fraction for a tolerance at or below that
    bound is 0; a near-zero region signals an implementation bug, not
    geometry.
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
