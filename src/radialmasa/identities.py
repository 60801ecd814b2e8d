"""Exact verification of the sandwich-component identities.

Three families of checks, each comparing a brute-force group-algebra
computation against a closed form, with exact rational equality:

* ``sandwich_inner``: the inner product of two projected sandwich
  components v_{n,m} = q_{n+m+1}(chi_n v chi_m) collapses to a single
  scaled copy of <v, v'>.
* ``sandwich_expansion``: chi_n v chi_m expands as a signed sum of
  sandwich components.
* ``pairing_cases``: <chi_n v chi_m, v> is given by a six-case formula.

The brute force side is always the oracle; the closed forms never feed
back into it.  ``run_identity_sweep`` is the one driver: it runs one block
of checks per test vector (or ordered pair of them) for each family, and
every block draws from one shared cache.

The cache keeps each triple product chi_r v chi_s as a ``GradedVector``:
one exact coefficient array per word length, indexed by word position.  It
reads every v chi_m off one pass of right products by single letters, each
a gather and scatter of positions (``GradedVector.times_chi``), and gets
chi_n v from v chi_n by inverting every word: chi_n is self-adjoint and
v* = sign v, so chi_n v = sign (v chi_n)*, a permutation of positions
(``GradedVector.adjoint``).  One more pass over chi_n v gives every
chi_n v chi_m.  The component v_{r,s} is the top-length array of its
triple, an inner product is a dot of same-length arrays (words of different
lengths are orthogonal), and the expansion check compares two graded
vectors length by length.  This changes only how the brute-force values
are built and stored, not what they are: x chi_m is the sum of x u over the
reduced words u of length m, each u applied one letter at a time, and the
adjoint only moves coefficients, so every coefficient is still a sum of
word products, held as an int or a Fraction (int64 only where a bound
rules out overflow).  No recurrence among the chi_n is used, so the oracle
is still the group algebra and equality is still exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from numbers import Rational

from .algebra import GradedVector, GroupAlgebraElement, InversionEigenvector, inner_product


def fraction_str(value: Rational) -> str:
    """Render an exact rational as ``p/q``."""
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


@dataclass
class CheckReport:
    """Outcome of one exact identity check."""

    lemma: str
    params: dict
    lhs: str
    rhs: str
    passed: bool
    elapsed_ms: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _element_digest(x: GroupAlgebraElement | GradedVector) -> str:
    # Stable summary for element-valued sides; equal elements get equal digests.
    return f"{len(x)} terms, norm_sq={fraction_str(x.norm_sq())}"


def _check(lemma: str, params: dict, lhs, rhs, t0: float, spell=fraction_str) -> CheckReport:
    """The report of one check begun at ``t0``, its sides written by ``spell``."""
    return CheckReport(lemma, params, spell(lhs), spell(rhs), lhs == rhs,
                       (time.perf_counter() - t0) * 1000.0)


def standard_test_vectors(rank: int) -> dict[int, list[InversionEigenvector]]:
    """Canonical test vectors per sign.

    For sign -1 the antisymmetric space has dimension ``rank`` and we take
    two generator differences.  For sign +1 the symmetric mean-zero space
    has dimension ``rank - 1``, so rank 2 admits only one vector up to
    scaling.
    """
    minus = [
        InversionEigenvector.from_letter_coeffs(rank, {1: 1, -1: -1}, -1),
        InversionEigenvector.from_letter_coeffs(rank, {2: 1, -2: -1}, -1),
    ]
    plus = [
        InversionEigenvector.from_letter_coeffs(rank, {1: 1, -1: 1, 2: -1, -2: -1}, 1),
    ]
    if rank >= 3:
        plus.append(
            InversionEigenvector.from_letter_coeffs(rank, {2: 1, -2: 1, 3: -1, -3: -1}, 1)
        )
    return {-1: minus, 1: plus}


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------


def sandwich_inner_closed(
    v: InversionEigenvector,
    v2: InversionEigenvector,
    n: int,
    m: int,
    n2: int,
    m2: int,
) -> Fraction:
    """Closed form for <v_{n,m}, v'_{n2,m2}>: nonzero only for matching sign
    and matching total degree, with a geometric factor in |n - n2|."""
    rank = v.element.rank
    if v.sign != v2.sign or n + m != n2 + m2:
        return Fraction(0)
    b = 2 * rank - 1
    base = Fraction(inner_product(v.element, v2.element))
    return Fraction(b) ** (n + m) * Fraction(1, -v.sign * b) ** abs(n - n2) * base


def pairing_closed(sign: int, n: int, m: int, norm_sq: Rational) -> Fraction:
    """The six-case closed form for <chi_n v chi_m, v>."""
    norm_sq = Fraction(norm_sq)
    if n + m > 2 and abs(n - m) == 2:
        return Fraction(-sign) ** ((n + m) // 2) * sign * norm_sq
    if n + m > 2 and n == m:
        return 2 * Fraction(-sign) ** n * norm_sq
    if n + m == 2 and (n, m) != (1, 1):
        return -norm_sq
    if (n, m) == (1, 1):
        return -sign * norm_sq
    if (n, m) == (0, 0):
        return norm_sq
    return Fraction(0)


def sandwich_expansion_indices(sign: int, n: int, m: int) -> list[tuple[int, int, int]]:
    """Coefficient/index triples (coeff, r, s) expanding chi_n v chi_m over v_{r,s}.

    Components with a negative index are dropped (they are zero by
    convention).
    """
    out: list[tuple[int, int, int]] = [(1, n, m)]
    for coeff, r, s in ((-1, n - 2, m), (-1, n, m - 2), (-sign, n - 1, m - 1)):
        if r >= 0 and s >= 0:
            out.append((coeff, r, s))
    for k in range(2, max(n, m) + 2):
        outer = (-sign) ** k
        for coeff, r, s in (
            (sign, n - k - 1, m - k + 1),
            (sign, n - k + 1, m - k - 1),
            (2, n - k, m - k),
        ):
            if r >= 0 and s >= 0:
                out.append((outer * coeff, r, s))
    return out


# ----------------------------------------------------------------------
# brute-force verification
# ----------------------------------------------------------------------


class _SandwichCache:
    """The triple products chi_r v chi_s of one sweep; carries its rank, its
    cap and the largest r + s the sweep asks for.

    Each triple is kept as a ``GradedVector`` under ``(key, r, s)``, where
    ``key`` names ``v``.  Its top length r + s + 1 is the component v_{r,s};
    its lower lengths serve the expansion and pairing checks.
    """

    def __init__(self, rank: int, cap: int | None = None, max_total: int = 0):
        self.rank = rank
        self.cap = cap
        self.max_total = max_total
        # (key, r, s) -> chi_r v chi_s, whose top length is the component v_{r,s}
        self._components: dict[tuple[int, int, int], GradedVector] = {}

    def left(self, v: InversionEigenvector, key: int, n: int) -> GradedVector:
        """chi_n v by length: v itself for n = 0, else the adjoint of v chi_n
        times the sign, since chi_n is self-adjoint and v* = sign v."""
        if n == 0:
            return GradedVector.from_element(v.element, self.cap)
        return GradedVector.combination(self.rank, [(v.sign, self.triple(v, key, 0, n).adjoint())])

    def triple(self, v: InversionEigenvector, key: int, n: int, m: int) -> GradedVector:
        """chi_n v chi_m by length.

        The first request for ``(key, n)`` reads chi_n v chi_j off one pass of
        letter steps over chi_n v, for every j up to max(max_total - n, m).  A
        later request past that range runs the pass again.
        """
        k = (key, n, m)
        if k not in self._components:
            left = self.left(v, key, n)
            for j, product in enumerate(left.times_chi(max(self.max_total - n, m), self.cap)):
                self._components[key, n, j] = product
        return self._components[k]

    def component(self, v: InversionEigenvector, key: int, r: int, s: int) -> GradedVector:
        """v_{r,s} = q_{r+s+1}(chi_r v chi_s), zero when an index is negative."""
        if r < 0 or s < 0:
            return GradedVector(self.rank)
        return self.triple(v, key, r, s).project_length(r + s + 1)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

def degree_pairs(max_total: int) -> list[tuple[int, int]]:
    """All (n, m) with n, m >= 0 and n + m <= max_total."""
    return [(n, m) for total in range(max_total + 1) for n in range(total + 1)
            for m in (total - n,)]


def all_test_vectors(rank: int) -> list[InversionEigenvector]:
    return [v for vs in standard_test_vectors(rank).values() for v in vs]


def inner_block(
    cache: _SandwichCache, max_total: int, vec_i: int, vec_j: int
) -> list[CheckReport]:
    """Brute-force <v_{n,m}, v'_{n2,m2}> against its closed form for one ordered
    pair of test vectors and every pair of degree pairs."""
    rank = cache.rank
    vectors = all_test_vectors(rank)
    v, v2 = vectors[vec_i], vectors[vec_j]
    pairs = degree_pairs(max_total)
    left = {(n, m): cache.component(v, vec_i, n, m) for n, m in pairs}
    right = {(n, m): cache.component(v2, vec_j, n, m) for n, m in pairs}
    reports = []
    for (n, m), (n2, m2) in product(pairs, repeat=2):
        t0 = time.perf_counter()
        lhs = left[n, m].inner(right[n2, m2])
        rhs = sandwich_inner_closed(v, v2, n, m, n2, m2)
        params = {"rank": rank, "sign": v.sign, "sign2": v2.sign,
                  "vec": vec_i, "vec2": vec_j, "n": n, "m": m, "n2": n2, "m2": m2}
        reports.append(_check("sandwich_inner", params, lhs, rhs, t0))
    return reports


def expansion_block(cache: _SandwichCache, max_total: int, vec_i: int) -> list[CheckReport]:
    """Brute-force chi_n v chi_m against its expansion over sandwich components,
    for one test vector."""
    rank = cache.rank
    v = all_test_vectors(rank)[vec_i]
    reports = []
    for n, m in degree_pairs(max_total):
        t0 = time.perf_counter()
        lhs = cache.triple(v, vec_i, n, m)
        rhs = GradedVector.combination(
            rank,
            [(coeff, cache.component(v, vec_i, r, s))
             for coeff, r, s in sandwich_expansion_indices(v.sign, n, m)],
        )
        params = {"rank": rank, "sign": v.sign, "vec": vec_i, "n": n, "m": m}
        reports.append(_check("sandwich_expansion", params, lhs, rhs, t0, _element_digest))
    return reports


def pairing_block(cache: _SandwichCache, max_total: int, vec_i: int) -> list[CheckReport]:
    """Brute-force <chi_n v chi_m, v> against the six-case closed form, for one
    test vector."""
    rank = cache.rank
    v = all_test_vectors(rank)[vec_i]
    v_graded = GradedVector.from_element(v.element)
    reports = []
    for n, m in degree_pairs(max_total):
        t0 = time.perf_counter()
        lhs = cache.triple(v, vec_i, n, m).inner(v_graded)
        rhs = pairing_closed(v.sign, n, m, v.norm_sq())
        params = {"rank": rank, "sign": v.sign, "vec": vec_i, "n": n, "m": m}
        reports.append(_check("pairing_cases", params, lhs, rhs, t0))
    return reports


def run_identity_sweep(
    rank: int,
    max_total: int = 6,
    cap: int | None = None,
    families: tuple[str, ...] = ("sandwich_inner", "sandwich_expansion", "pairing_cases"),
) -> list[CheckReport]:
    """Every check of the requested families, over all test vectors and all
    degree pairs with n + m <= max_total.

    One cache serves the whole sweep.  The order is fixed: inner products for
    every ordered pair of vectors, then expansions for every vector, then
    pairings for every vector.
    """
    cache = _SandwichCache(rank, cap, max_total)
    n_vec = len(all_test_vectors(rank))
    reports: list[CheckReport] = []
    if "sandwich_inner" in families:
        for i in range(n_vec):
            for j in range(n_vec):
                reports.extend(inner_block(cache, max_total, i, j))
    if "sandwich_expansion" in families:
        for i in range(n_vec):
            reports.extend(expansion_block(cache, max_total, i))
    if "pairing_cases" in families:
        for i in range(n_vec):
            reports.extend(pairing_block(cache, max_total, i))
    return reports
