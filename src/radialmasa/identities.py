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
back into it.  ``run_identity_sweep`` is the one driver: it builds one
``sandwich_table`` per test vector and runs one block of checks per test
vector (or ordered pair of them) for each family off those tables.

A table holds each triple product chi_n v chi_m as a ``GradedVector``: one
exact coefficient array per word length, indexed by word position.  Row 0,
every v chi_m, is one ``GradedVector.times_chi`` pass over v, which reads
the coefficient of x chi_m at a word u as the sum of x over the sphere of
radius m around u in the Cayley tree, by row sums of reshaped parts.
chi_n v comes from v chi_n by inverting every word: chi_n is self-adjoint
and v* = sign v, so chi_n v = sign (v chi_n)*, a permutation of positions
(``GradedVector.adjoint``).  Row n is one more pass over chi_n v.
``pairing_exact`` reads <chi_j v chi_k, v> off row 0 and the same adjoint.  The
component v_{r,s} is the top-length array of its triple, an inner product is
a dot of same-length arrays (words of different lengths are orthogonal), and
the expansion check compares two graded vectors length by length.  This
changes only how the brute-force values are built and stored, not what they
are: x chi_m at u is the sum of the coefficients x(u s^-1) over the reduced
words s of length m, that is over the words at distance m from u, and the
adjoint only moves coefficients, so every coefficient is still a sum of word
products, held as an int or a Fraction (int64 only where a bound rules out
overflow).  No recurrence among the chi_n is used, so the oracle is still
the group algebra and equality is still exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from numbers import Rational

from .algebra import GradedVector, GroupAlgebraElement, InversionEigenvector, inner_product

# table[n][m] = chi_n v chi_m by length, as ``sandwich_table`` builds it
SandwichTable = list[list[GradedVector]]
TestedVector = tuple[InversionEigenvector, SandwichTable]  # what the sweep's blocks take


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
    passed = lhs == rhs  # equal sides spell alike, so a passing check spells one
    text = spell(lhs)
    return CheckReport(lemma, params, text, text if passed else spell(rhs), passed,
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
    # every nonzero case has |n - m| of 0 or 2
    if abs(n - m) not in (0, 2):
        return Fraction(0)
    norm_sq = Fraction(norm_sq)
    if n + m > 2 and abs(n - m) == 2:
        return Fraction(-sign) ** ((n + m) // 2) * sign * norm_sq
    if n + m > 2 and n == m:
        return 2 * Fraction(-sign) ** n * norm_sq
    if n + m == 2 and (n, m) != (1, 1):
        return -norm_sq
    if (n, m) == (1, 1):
        return -sign * norm_sq
    return norm_sq  # (n, m) == (0, 0), the one case left


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


def sandwich_table(
    v: InversionEigenvector, max_total: int, cap: int | None = None
) -> SandwichTable:
    """``table[n][m]`` = chi_n v chi_m by length, for every n + m <= max_total.

    Row 0 is one ``times_chi`` pass over v, each v chi_m a sphere sum of v.
    Row n is one pass over chi_n v = sign (v chi_n)*, since chi_n is
    self-adjoint and v* = sign v.  The top length n + m + 1 of a cell is the
    component v_{n,m}.  Each pass checks the cap once, against its longest
    length, before it builds any array.
    """
    rank = v.element.rank
    right = GradedVector.from_element(v.element, cap).times_chi(max_total, cap)
    table = [right]
    for n in range(1, max_total + 1):
        left = GradedVector.combination(rank, [(v.sign, right[n].adjoint())])
        table.append(left.times_chi(max_total - n, cap))
    return table


def component(table: SandwichTable, r: int, s: int) -> GradedVector:
    """v_{r,s} = q_{r+s+1}(chi_r v chi_s), read off a ``sandwich_table``."""
    return table[r][s].project_length(r + s + 1)


def pairing_exact(v: InversionEigenvector, max_total: int,
                  cap: int | None = None) -> dict[tuple[int, int], Rational]:
    """{(j, k): <chi_j v chi_k, v> = sign <v chi_k, (v chi_j)*>} for every
    j + k <= max_total, exact: one ``times_chi`` pass over v and one adjoint per
    j, as in ``sandwich_table``, with the sign applied to the scalar."""
    right = GradedVector.from_element(v.element, cap).times_chi(max_total, cap)
    values = {}
    for j in range(max_total + 1):
        left = right[j].adjoint()
        for k in range(max_total - j + 1):
            values[j, k] = v.sign * right[k].inner(left)
    return values


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

def degree_pairs(max_total: int) -> list[tuple[int, int]]:
    """All (n, m) with n, m >= 0 and n + m <= max_total."""
    return [(n, m) for total in range(max_total + 1) for n in range(total + 1)
            for m in (total - n,)]


def all_test_vectors(rank: int) -> list[InversionEigenvector]:
    return [v for vs in standard_test_vectors(rank).values() for v in vs]


def inner_block(tested: list[TestedVector], vec_i: int, vec_j: int,
                dots: dict | None = None) -> list[CheckReport]:
    """Brute-force <v_{n,m}, v'_{n2,m2}> against its closed form for one ordered
    pair of test vectors and every pair of degree pairs.

    ``tested[i]`` is the i-th test vector with its ``sandwich_table``; every
    block checks the degree pairs its table holds.  ``dots`` holds the
    brute-force value of each unordered pair of (vector index, n, m) keys:
    the coefficients are real, so the pairing is symmetric and blocks that
    share ``dots`` dot each pair once, mismatched totals included.  The closed
    form depends only on n + m, n2 + m2 and |n - n2|, so it is evaluated and
    spelled once per such key, and each distinct lhs value is spelled once.
    """
    (v, table), (v2, table2) = tested[vec_i], tested[vec_j]
    rank = v.element.rank
    dots = {} if dots is None else dots
    pairs = degree_pairs(len(table) - 1)
    left = [((vec_i, n, m), component(table, n, m)) for n, m in pairs]
    right = [((vec_j, n, m), component(table2, n, m)) for n, m in pairs]
    closed: dict[tuple[int, int, int], tuple[Fraction, str]] = {}  # form -> (value, text)
    texts: dict[Rational, str] = {}  # lhs -> text: ints on int64 parts, cheap to hash
    reports = []
    for (key, x), (key2, y) in product(left, right):
        t0 = time.perf_counter()
        (_, n, m), (_, n2, m2) = key, key2
        pair = (key, key2) if key <= key2 else (key2, key)
        lhs = dots.get(pair)
        if lhs is None:
            lhs = dots[pair] = x.inner(y)
        form = (n + m, n2 + m2, abs(n - n2))
        if form not in closed:
            rhs = sandwich_inner_closed(v, v2, n, m, n2, m2)
            closed[form] = rhs, fraction_str(rhs)
        rhs, rhs_text = closed[form]
        if lhs not in texts:
            texts[lhs] = fraction_str(lhs)
        params = {"rank": rank, "sign": v.sign, "sign2": v2.sign,
                  "vec": vec_i, "vec2": vec_j, "n": n, "m": m, "n2": n2, "m2": m2}
        reports.append(CheckReport("sandwich_inner", params, texts[lhs], rhs_text, lhs == rhs,
                                   (time.perf_counter() - t0) * 1000.0))
    return reports


def expansion_block(tested: list[TestedVector], vec_i: int) -> list[CheckReport]:
    """Brute-force chi_n v chi_m against its expansion over sandwich components,
    for one test vector."""
    v, table = tested[vec_i]
    rank = v.element.rank
    reports = []
    for n, m in degree_pairs(len(table) - 1):
        t0 = time.perf_counter()
        lhs = table[n][m]
        rhs = GradedVector.combination(
            rank,
            [(coeff, component(table, r, s))
             for coeff, r, s in sandwich_expansion_indices(v.sign, n, m)],
        )
        params = {"rank": rank, "sign": v.sign, "vec": vec_i, "n": n, "m": m}
        reports.append(_check("sandwich_expansion", params, lhs, rhs, t0, _element_digest))
    return reports


def pairing_block(tested: list[TestedVector], vec_i: int) -> list[CheckReport]:
    """Brute-force <chi_n v chi_m, v> against the six-case closed form, for one
    test vector."""
    v, table = tested[vec_i]
    v_graded = table[0][0]  # chi_0 v chi_0
    rank = v.element.rank
    norm_sq = v.norm_sq()
    reports = []
    for n, m in degree_pairs(len(table) - 1):
        t0 = time.perf_counter()
        lhs = table[n][m].inner(v_graded)
        rhs = pairing_closed(v.sign, n, m, norm_sq)
        params = {"rank": rank, "sign": v.sign, "vec": vec_i, "n": n, "m": m}
        reports.append(_check("pairing_cases", params, lhs, rhs, t0))
    return reports


def run_identity_sweep(rank: int, max_total: int = 6, cap: int | None = None) -> list[CheckReport]:
    """Every check of the three families, over all test vectors and all degree
    pairs with n + m <= max_total.

    One ``sandwich_table`` per test vector serves the whole sweep, handed to
    the blocks with its vector.  The order is fixed: inner products for every
    ordered pair of vectors, then expansions and then pairings for every vector.
    """
    tested = [(v, sandwich_table(v, max_total, cap)) for v in all_test_vectors(rank)]
    indices = range(len(tested))
    dots: dict = {}
    reports: list[CheckReport] = []
    for i, j in product(indices, repeat=2):
        reports.extend(inner_block(tested, i, j, dots))
    for i in indices:
        reports.extend(expansion_block(tested, i))
    for i in indices:
        reports.extend(pairing_block(tested, i))
    return reports
