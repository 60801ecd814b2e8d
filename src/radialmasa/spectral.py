"""Floating-point spectral theory of the radial generator.

The radial generator (sum of the 2N generators and inverses) acts like the
adjacency operator of the 2N-regular tree.  Its distribution with respect
to the trace is the Kesten measure on [-a, a], a = 2*sqrt(2N-1), with
density

    w(t) = 2N * sqrt(4*(2N-1) - t**2) / (2*pi * (4*N**2 - t**2)),

derived from the classical moment generating function by Stieltjes
inversion and validated here against exact walk counts, never assumed.
The length-n word sums become orthogonal polynomials p_n(t) under this
measure, with the three-term recurrence

    p_0 = 1,  p_1 = t,  p_2 = t**2 - 2N,
    p_{k+1} = t * p_k - (2N-1) * p_{k-1}   (k >= 2),

and admit an independent trigonometric evaluation in the angle variable
t = a*cos(theta).  Quadrature against the measure substitutes t = a*cos(theta),
which absorbs the square-root endpoint vanishing analytically.

``trig_sums`` sums x^n sin(n theta) sin((n+r) phi) in closed form for several
shifts r at once, from shared denominators and cosines.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

# |sin theta| below this switches the trigonometric evaluation to its
# endpoint-limit branch.
ENDPOINT_GUARD = 1e-8


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

    @property
    def branching_ratio(self) -> float:
        """branching / degree, strictly between 0 and 1."""
        return self.branching / self.degree

    def outside(self, t):
        """Elementwise: |t| past the halfwidth beyond roundoff, or t is NaN."""
        return np.logical_not(np.abs(t) <= self.halfwidth * (1 + 1e-12))


@dataclass(frozen=True)
class AngleCoordinate:
    """A point of the spectrum in both coordinates: t = halfwidth * cos(theta)."""

    theta: float
    t: float

    @classmethod
    def from_t(cls, t: float, params: SpectralParams) -> "AngleCoordinate":
        a = params.halfwidth
        if params.outside(t):
            raise ValueError(f"t={t} outside the spectrum [-{a}, {a}]")
        return cls(theta=math.acos(min(1.0, max(-1.0, t / a))), t=float(t))

    @classmethod
    def from_theta(cls, theta: float, params: SpectralParams) -> "AngleCoordinate":
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta={theta} outside [0, pi]")
        return cls(theta=float(theta), t=params.halfwidth * math.cos(theta))


def chi_eval_recurrence(n: int, t, params: SpectralParams):
    """Evaluate p_n(t) by the three-term recurrence; accepts scalars or arrays.

    Values outside the spectrum are allowed for experimentation but grow
    exponentially, so they trigger a warning.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = np.array(t, dtype=float)  # a copy: p_1 is t itself
    if np.any(params.outside(t)):
        warnings.warn("evaluating outside the spectral interval", stacklevel=2)
    ones = np.ones_like(t)
    if n == 0:
        return ones if t.shape else float(ones)
    prev, cur = ones, t
    for k in range(1, n):
        coeff = params.degree if k == 1 else params.branching
        prev, cur = cur, t * cur - coeff * prev
    return cur if t.shape else float(cur)


def chi_eval_trig(n: int, angle: AngleCoordinate, params: SpectralParams) -> float:
    """Evaluate p_n via the angle-variable closed form,

        p_n(t) = b**(n/2) * (2*cos(theta)*sin(n*theta)
                             - (degree/b)*sin((n-1)*theta)) / sin(theta),

    with the explicit limit sin(k*theta)/sin(theta) -> k * cos(theta)**(k+1)
    at the endpoints instead of a small-denominator division.
    """
    if n < 1:
        raise ValueError("the trigonometric form needs n >= 1")
    b = params.branching
    inv_ratio = params.degree / b
    theta = angle.theta
    scale = float(b) ** (n / 2.0)
    sin_theta = math.sin(theta)
    if abs(sin_theta) < ENDPOINT_GUARD:
        c = 1.0 if math.cos(theta) > 0 else -1.0
        # sin(k*theta)/sin(theta) -> k * c**(k+1) at theta in {0, pi}
        return scale * (2.0 * c * n * c ** (n + 1) - inv_ratio * (n - 1) * c**n)
    return scale * (
        2.0 * math.cos(theta) * math.sin(n * theta) - inv_ratio * math.sin((n - 1) * theta)
    ) / sin_theta


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


# Gauss-Legendre orders ``quad_lambda`` doubles through
QUAD_MIN_ORDER = 16
QUAD_MAX_ORDER = 2048


def quad_lambda(g, params: SpectralParams, tol: float = 1e-10) -> float:
    """Integrate a vectorized continuous function against the spectral measure.

    The Gauss-Legendre order doubles from ``QUAD_MIN_ORDER`` until two
    successive estimates agree within tol (or within the roundoff floor set
    by the integrand scale), and QuadratureError is raised past
    ``QUAD_MAX_ORDER``.
    """
    prev = None
    order = QUAD_MIN_ORDER
    while order <= QUAD_MAX_ORDER:
        t, w = lambda_rule(order, params.rank)
        vals = np.asarray(g(t), dtype=float)
        est = math.fsum((vals * w).tolist())
        scale = math.fsum((np.abs(vals) * w).tolist())
        if prev is not None and abs(est - prev) <= max(tol, 64 * np.finfo(float).eps * scale):
            return est
        prev = est
        order *= 2
    raise QuadratureError(
        f"quadrature did not converge to {tol} within order {QUAD_MAX_ORDER}"
    )


def trig_sums(x, theta, phi, rs):
    """Closed forms of sum_{n>=0} x**n * sin(n*theta) * sin((n+r)*phi) for each
    r in rs, |x| < 1; accepts scalars or arrays for theta and phi.

    Both denominators are bounded below by (1-|x|)**2, so the expression is
    stable everywhere.  They are computed once per call, and cos(r*phi) on
    phi as given, so on grid axes it costs one axis.
    """
    if np.any(np.abs(x) >= 1):
        raise ValueError("geometric ratio must satisfy |x| < 1")
    theta = np.asarray(theta)
    phi = np.asarray(phi)
    cos_minus = np.cos(theta - phi)
    cos_plus = np.cos(theta + phi)
    den_minus = 1.0 - 2.0 * x * cos_minus + x * x
    den_plus = 1.0 - 2.0 * x * cos_plus + x * x
    # cos(theta + (r-1)*phi), cos(theta - (r-1)*phi), shared only where the
    # argument is the same float: theta + (-1)*phi is theta - phi, theta + 0*phi is theta
    shifted = {0: (cos_minus, cos_plus), 2: (cos_plus, cos_minus)}
    sums = []
    for r in rs:
        if r not in shifted:
            shifted[r] = ((np.cos(theta),) * 2 if r == 1 else
                          (np.cos(theta + (r - 1) * phi), np.cos(theta - (r - 1) * phi)))
        lead, lag = shifted[r]
        cos_r = np.cos(r * phi)
        out = 0.5 * ((cos_r - x * lead) / den_minus) - 0.5 * ((cos_r - x * lag) / den_plus)
        sums.append(out if out.shape else out[()])
    return sums


def trig_sum(x, theta, phi, r):
    """``trig_sums`` for one r."""
    return trig_sums(x, theta, phi, (r,))[0]


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
