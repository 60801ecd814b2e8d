"""Floating-point spectral theory of the radial generator.

The radial generator (sum of the 2N generators and inverses) acts like the
adjacency operator of the 2N-regular tree.  Its distribution with respect
to the trace is the Kesten measure on [-a, a], a = 2*sqrt(2N-1), with
density

    w(t) = 2N * sqrt(4*(2N-1) - t**2) / (2*pi * (4*N**2 - t**2)),

derived from the classical moment generating function by Stieltjes
inversion and validated here against exact walk counts, never assumed.
The length-n word sums become orthogonal polynomials p_n(t) under this
measure, evaluated by ``chi_table`` from the three-term recurrence

    p_0 = 1,  p_1 = t,  p_2 = t**2 - 2N,
    p_{k+1} = t * p_k - (2N-1) * p_{k-1}   (k >= 2).

Quadrature against the measure substitutes t = a*cos(theta), which absorbs
the square-root endpoint vanishing analytically.

``trig_sum`` sums x^n sin(n theta) sin((n+r) phi) in closed form; it is the
step from the density's series to its rational closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError


@dataclass(frozen=True)
class SpectralParams:
    """Rank-derived constants for the spectral side.

    degree    2N, the vertex degree of the tree
    branching 2N - 1, continuations of a non-backtracking step
    halfwidth 2*sqrt(2N-1), half-width of the spectrum
    """

    rank: int

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError(f"rank must be at least 2, got {self.rank}")

    @property
    def degree(self) -> int:
        return 2 * self.rank

    @property
    def branching(self) -> int:
        return 2 * self.rank - 1

    @property
    def halfwidth(self) -> float:
        return 2.0 * math.sqrt(self.branching)

    def outside(self, t):
        """Elementwise: |t| past the halfwidth beyond roundoff, or t is NaN."""
        return np.logical_not(np.abs(t) <= self.halfwidth * (1 + 1e-12))


def _chi_rows(t: np.ndarray, max_n: int, params: SpectralParams, normalized: bool):
    """p_0(t), ..., p_max_n(t) one row at a time (g_n with ``normalized``),
    each from the two rows before it.

    Each step is p_{k+1} = t p_k - beta_k p_{k-1} (beta_1 = 2N, then 2N-1),
    divided for g by |p_{k+1}|^2 / |p_k|^2 (2N at k = 0, then 2N-1), which
    turns each beta_k term of g into 1.  A factor or divisor of 1.0 is exact.
    """
    d, b = float(params.degree), float(params.branching)
    row = np.ones(t.shape)
    yield row
    if max_n:
        prev, row = row, t / (d if normalized else 1.0)
        yield row
    for k in range(1, max_n):
        beta, ratio = (1.0, b) if normalized else (d if k == 1 else b, 1.0)
        prev, row = row, (t * row - beta * prev) / ratio
        yield row


def chi_table(t, max_n: int, params: SpectralParams, normalized: bool = False) -> np.ndarray:
    """p_n(t) for n = 0..max_n, shape (max_n+1,) + shape(t); with
    ``normalized``, g_n(t) = p_n(t) / |p_n|^2 instead (``_chi_rows``)."""
    t = np.asarray(t, dtype=float)
    out = np.empty((max_n + 1,) + t.shape)
    for n, row in enumerate(_chi_rows(t, max_n, params, normalized)):
        out[n] = row
    return out


def chi_eval_recurrence(n: int, t, params: SpectralParams):
    """p_n(t), the last row of ``chi_table`` with only two rows kept;
    accepts scalars or arrays.

    Values outside the spectrum are allowed for experimentation but grow
    exponentially, so they trigger a warning.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = np.asarray(t, dtype=float)
    if np.any(params.outside(t)):
        warnings.warn("evaluating outside the spectral interval", stacklevel=2)
    for p_n in _chi_rows(t, n, params, normalized=False):
        pass
    return p_n if t.shape else float(p_n)


def kesten_density(t, params: SpectralParams):
    """Density of the spectral measure on [-halfwidth, halfwidth]."""
    t = np.asarray(t, dtype=float)
    if np.any(params.outside(t)):
        raise ValueError("density requested outside the spectrum")
    a = params.halfwidth
    tt = np.minimum(np.abs(t), a)
    val = params.degree * np.sqrt(a * a - tt * tt) / (
        2.0 * math.pi * (4.0 * params.rank**2 - tt * tt)
    )
    return val if t.shape else float(val)


@lru_cache(maxsize=64)
def lambda_rule(order: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule in the angle variable for integrals against the measure.

    Returns nodes t_i and weights w_i with  integral g dlambda ~= sum w_i g(t_i);
    the weights sum to 1 exactly in the order -> infinity limit.
    """
    # imported here, so that commands that build no rule never load numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    params = SpectralParams(rank)
    x, glw = leggauss(order)
    theta = (x + 1.0) * (math.pi / 2.0)
    q = params.branching
    n_half = params.rank
    # angle-variable weight: degree*q*sin^2(theta) / (2pi*(N^2 - q*cos^2(theta))),
    # including the dt = -a*sin(theta) dtheta substitution factor
    w_theta = (
        n_half * q * np.sin(theta) ** 2
        / (math.pi * (n_half**2 - q * np.cos(theta) ** 2))
    )
    t = params.halfwidth * np.cos(theta)
    w = w_theta * glw * (math.pi / 2.0)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def quad_lambda(g, params: SpectralParams, tol: float = 1e-10) -> float:
    """Integrate a vectorized continuous function against the spectral measure.

    The Gauss-Legendre order doubles from 16 until two successive estimates
    agree within tol (or within the roundoff floor set by the integrand
    scale); past order 2048 it raises QuadratureError.
    """
    prev = None
    for order in (16, 32, 64, 128, 256, 512, 1024, 2048):
        t, w = lambda_rule(order, params.rank)
        vals = np.asarray(g(t), dtype=float)
        est = math.fsum((vals * w).tolist())
        scale = math.fsum((np.abs(vals) * w).tolist())
        if prev is not None and abs(est - prev) <= max(tol, 64 * np.finfo(float).eps * scale):
            return est
        prev = est
    raise QuadratureError(f"quadrature did not converge to {tol} within order 2048")


def trig_sum(x, theta, phi, r):
    """Closed form of sum_{n>=0} x**n * sin(n*theta) * sin((n+r)*phi) for |x| < 1.

    Both denominators are bounded below by (1-|x|)**2, so the expression is
    stable everywhere; accepts scalars or arrays for theta and phi.
    """
    if np.any(np.abs(x) >= 1):
        raise ValueError("geometric ratio must satisfy |x| < 1")
    theta = np.asarray(theta)
    phi = np.asarray(phi)
    num_minus = np.cos(r * phi) - x * np.cos(theta + (r - 1) * phi)
    den_minus = 1.0 - 2.0 * x * np.cos(theta - phi) + x * x
    num_plus = np.cos(r * phi) - x * np.cos(theta - (r - 1) * phi)
    den_plus = 1.0 - 2.0 * x * np.cos(theta + phi) + x * x
    out = 0.5 * (num_minus / den_minus) - 0.5 * (num_plus / den_plus)
    return out if out.shape else out[()]


def trig_sum_partial(x, theta, phi, r, terms: int = 200):
    """Direct partial sum of the same series; the oracle for the closed form.

    The omitted tail is bounded by |x|**(terms+1) / (1 - |x|).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    n = np.arange(terms + 1)
    shape = np.broadcast(theta, phi).shape
    n = n.reshape((terms + 1,) + (1,) * len(shape))
    vals = (x ** n) * np.sin(n * theta) * np.sin((n + r) * phi)
    out = vals.sum(axis=0)
    return out if out.shape else float(out)
