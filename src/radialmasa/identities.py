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
vector (or ordered pair of them) for each family off those tables.  Each
block returns its checks by column, as a ``RecordTable`` of ``CheckReport``.

A table holds each triple product chi_n v chi_m as a ``GradedVector``: one
exact coefficient array per word length, indexed by word position.  chi_n v
is read off v by last letter (``GradedVector.chi_times``): a word u of length
n + 1 gets v at its last letter, and one of length n - 1 the sum of v less
that, two gathers by last letter.  Row n, every chi_n v chi_m, is one
``GradedVector.times_chi`` pass over chi_n v, which reads the coefficient of
x chi_m at a word u as the sum of x over the sphere of radius m around u in
the Cayley tree, by row sums of reshaped parts.  ``pairing_exact`` reads
<chi_j v chi_k, v> = <v chi_k, chi_j v> off row 0 and the same chi_j v.  The
component v_{r,s} is the top-length array of its triple, an inner product is
a dot of same-length arrays (words of different lengths are orthogonal), and
the expansion check compares two graded vectors length by length.  The inner
checks of a sweep read their dots off one Gram matrix per total n + m, over
every test vector's components of that total, built once by
``algebra.exact_gram``.  A component holds v at each word's middle letter,
so for the standard vectors every entry is -1, 0 or 1 and each dot is a
count of packed sign bits, in int64; other parts are dotted pair by pair.
Each block then compares its checks in one array pass.  This changes only
how the brute-force values are built and stored, not what they are: x chi_m
at u is the sum of the coefficients x(u s^-1) over the reduced words s of
length m, that is over the words at distance m from u, and chi_n v at u the
sum of v(l) over the letters l with u l^-1 of length n, so every coefficient
is still a sum of word products, held as an int or a Fraction (int64 only
where a bound rules out overflow).  No recurrence among the chi_n is used,
so the oracle is still the group algebra and equality is still exact.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain, product
from numbers import Rational

import numpy as np

from .algebra import (GradedVector, GroupAlgebraElement, InversionEigenvector, exact_gram,
                      inner_product)

# table[n][m] = chi_n v chi_m by length, as ``sandwich_table`` builds it
SandwichTable = list[list[GradedVector]]
TestedVector = tuple[InversionEigenvector, SandwichTable]  # what the sweep's blocks take


def fraction_str(value: Rational) -> str:
    """Render an exact rational as ``p/q``."""
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def rounded_ms(ms: float) -> float:
    """A time in milliseconds as the reports give it: to the microsecond."""
    return round(ms, 3)


class JsonRecord:
    """A report dataclass written as one JSON object, one key per field.

    A field's key is its name and its value the attribute as it is, unless
    the field's ``metadata`` gives a ``key`` or a ``convert`` function for
    the value.  ``json_fields`` reads that off the fields; ``to_json_dict``
    and the CLI's writer of a ``RecordTable`` both read it."""

    @classmethod
    def json_fields(cls) -> list[tuple[str, str, Callable | None]]:
        """(key, attribute, convert) for each field, in field order."""
        return [(f.metadata.get("key", f.name), f.name, f.metadata.get("convert"))
                for f in fields(cls)]

    def to_json_dict(self) -> dict:
        return {key: getattr(self, attr) if convert is None else convert(getattr(self, attr))
                for key, attr, convert in self.json_fields()}


@dataclass
class CheckReport(JsonRecord):
    """Outcome of one exact identity check."""

    lemma: str
    params: dict
    lhs: str
    rhs: str
    passed: bool = field(metadata={"key": "pass"})
    elapsed_ms: float = field(default=0.0, metadata={"convert": rounded_ms})


class RecordTable:
    """Records of one ``JsonRecord`` class, kept by column in blocks: each maps
    a field's attribute to a list of one value per record, or the field with
    columns to a map of such lists.  Tables share the blocks they are built
    from.  ``len`` counts the records; iterating builds each record only then.
    """

    def __init__(self, cls: type, blocks: list[dict]):
        self.cls, self.blocks = cls, blocks

    @staticmethod
    def block_len(block: dict) -> int:
        return next(len(column) for column in block.values() if isinstance(column, list))

    def __len__(self) -> int:
        return sum(map(self.block_len, self.blocks))

    def __iter__(self) -> Iterator[JsonRecord]:
        for block in self.blocks:
            for i in range(self.block_len(block)):
                yield self.cls(**{attr: {key: values[i] for key, values in column.items()}
                                  if isinstance(column, dict) else column[i]
                                  for attr, column in block.items()})

    def column(self, attr: str, key: str | None = None) -> list:
        """One column over every block, in order: the field ``attr``'s, or the
        ``key`` column of ``attr`` when that is the field with columns."""
        return list(chain.from_iterable(block[attr] if key is None else block[attr][key]
                                        for block in self.blocks))


def _check_table(lemma: str, params: dict, lhs: list, rhs: list, passed: list,
                 elapsed_ms: list) -> RecordTable:
    """A one-block table of ``lemma`` from its checks' columns; a ``params``
    value that is not a list is the same for every check."""
    size = len(lhs)
    params = {key: value if isinstance(value, list) else [value] * size
              for key, value in params.items()}
    return RecordTable(CheckReport, [{"lemma": [lemma] * size, "params": params, "lhs": lhs,
                                      "rhs": rhs, "passed": passed, "elapsed_ms": elapsed_ms}])


def _element_digest(x: GroupAlgebraElement | GradedVector) -> str:
    # Stable summary for element-valued sides; equal elements get equal digests.
    return f"{len(x)} terms, norm_sq={fraction_str(x.norm_sq())}"


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

    Row n is one ``times_chi`` pass over chi_n v (``GradedVector.chi_times``,
    two gathers of v by last letter; chi_0 v is v), each chi_n v chi_m a
    sphere sum of chi_n v.  The top length n + m + 1 of a cell is the
    component v_{n,m}.  Each step checks the cap against its longest length
    before it builds any array.
    """
    graded = GradedVector.from_element(v.element, cap)
    return [graded.chi_times(n, cap).times_chi(max_total - n, cap)
            for n in range(max_total + 1)]


def component(table: SandwichTable, r: int, s: int) -> GradedVector:
    """v_{r,s} = q_{r+s+1}(chi_r v chi_s), read off a ``sandwich_table``."""
    return table[r][s].project_length(r + s + 1)


def pairing_exact(v: InversionEigenvector, max_total: int,
                  cap: int | None = None) -> dict[tuple[int, int], Rational]:
    """{(j, k): <chi_j v chi_k, v> = <v chi_k, chi_j v>} for every j + k <=
    max_total, exact: the trace is cyclic and the coefficients are real, so
    the pairing reads one ``times_chi`` pass over v against one
    ``GradedVector.chi_times`` per j, as in ``sandwich_table``."""
    right = GradedVector.from_element(v.element, cap).times_chi(max_total, cap)
    values = {}
    for j in range(max_total + 1):
        left = right[0].chi_times(j, cap)
        for k in range(max_total - j + 1):
            values[j, k] = right[k].inner(left)
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


def _total_gram(tested: list[TestedVector], total: int, grams: dict) -> np.ndarray:
    """The Gram of every tested vector's components v_{n, total - n}, row
    ``vec * (total + 1) + n``, built by ``exact_gram`` on the first read of
    ``total`` and kept in ``grams``.  A component of a nonzero length-one v is
    never zero: its top part holds v at each word's middle letter."""
    if total not in grams:
        tops = [table[n][total - n] for _, table in tested for n in range(total + 1)]
        grams[total] = exact_gram([top.parts[total + 1] for top in tops],
                                  [top.bounds[total + 1] for top in tops])
    return grams[total]


def inner_block(tested: list[TestedVector], vec_i: int, vec_j: int,
                dots: dict | None = None) -> RecordTable:
    """Brute-force <v_{n,m}, v'_{n2,m2}> against its closed form for one ordered
    pair of test vectors and every pair of degree pairs.

    ``tested[i]`` is the i-th test vector with its ``sandwich_table``; every
    block checks the degree pairs its table holds.  Components of different
    totals lie on different word lengths, so their dot is 0, and the block's
    dots of one total are a block of that total's Gram over every tested
    vector (``_total_gram``).  ``dots`` keeps the Grams by total, so blocks
    that share it dot each unordered pair of components once.  The closed form
    depends only on n + m, n2 + m2 and |n - n2|, so it is evaluated once per
    such form, and kept as an int when it is one.  The sides are compared in
    one array pass, and each distinct value is spelled once.  Each check's
    ``elapsed_ms`` is the block's wall time over its number of checks.
    """
    t0 = time.perf_counter()
    (v, table), (v2, _) = tested[vec_i], tested[vec_j]
    dots = {} if dots is None else dots
    pairs = degree_pairs(len(table) - 1)
    size = len(pairs)
    lhs = np.zeros((size, size), dtype=object)
    start = 0
    for total in range(len(table)):
        gram, width = _total_gram(tested, total, dots), total + 1
        lhs[start:start + width, start:start + width] = gram[
            vec_i * width:(vec_i + 1) * width, vec_j * width:(vec_j + 1) * width]
        start += width
    ns, ms = [n for n, _ in pairs], [m for _, m in pairs]
    # the form (n + m, n2 + m2, |n - n2|) of each check as one number; each is below len(table)
    n_col, totals = np.array(ns), np.array(ns) + ms
    forms = (totals[:, None] * len(table) + totals) * len(table) + abs(n_col[:, None] - n_col)
    _, first, inverse = np.unique(forms.ravel(), return_index=True, return_inverse=True)
    closed = []
    for index in first.tolist():
        rhs = sandwich_inner_closed(v, v2, *pairs[index // size], *pairs[index % size])
        closed.append(rhs.numerator if rhs.denominator == 1 else rhs)
    rhs = np.empty(len(closed), dtype=object)
    rhs[:] = closed
    lhs, rhs = lhs.ravel(), rhs[inverse]
    passed = (lhs == rhs).tolist()
    lhs, rhs = lhs.tolist(), rhs.tolist()
    texts = {value: fraction_str(value) for value in {*lhs, *closed}}
    params = {"rank": v.element.rank, "sign": v.sign, "sign2": v2.sign, "vec": vec_i,
              "vec2": vec_j, "n": [n for n in ns for _ in pairs],
              "m": [m for m in ms for _ in pairs], "n2": ns * size, "m2": ms * size}
    elapsed_ms = (time.perf_counter() - t0) * 1000.0 / size**2
    return _check_table("sandwich_inner", params, [texts[x] for x in lhs],
                        [texts[x] for x in rhs], passed, [elapsed_ms] * size**2)


def _degree_block(lemma: str, tested: list[TestedVector], vec_i: int, check: Callable,
                  spell: Callable = fraction_str) -> RecordTable:
    """One check of ``lemma`` per degree pair (n, m) of test vector ``vec_i``:
    ``check(n, m)`` gives the brute-force and closed-form sides, for ``spell``."""
    v, table = tested[vec_i]
    pairs = degree_pairs(len(table) - 1)
    checks = []
    for n, m in pairs:
        t0 = time.perf_counter()
        lhs, rhs = check(n, m)
        passed = lhs == rhs  # equal sides spell alike, so a passing check spells one
        text = spell(lhs)
        checks.append((text, text if passed else spell(rhs), passed,
                       (time.perf_counter() - t0) * 1000.0))
    params = {"rank": v.element.rank, "sign": v.sign, "vec": vec_i,
              "n": [n for n, _ in pairs], "m": [m for _, m in pairs]}
    return _check_table(lemma, params, *map(list, zip(*checks)))


def expansion_block(tested: list[TestedVector], vec_i: int) -> RecordTable:
    """Brute-force chi_n v chi_m against its expansion over sandwich components,
    for one test vector."""
    v, table = tested[vec_i]

    def check(n: int, m: int) -> tuple[GradedVector, GradedVector]:
        terms = sandwich_expansion_indices(v.sign, n, m)
        return table[n][m], GradedVector.combination(
            v.element.rank, [(coeff, component(table, r, s)) for coeff, r, s in terms])

    return _degree_block("sandwich_expansion", tested, vec_i, check, _element_digest)


def pairing_block(tested: list[TestedVector], vec_i: int) -> RecordTable:
    """Brute-force <chi_n v chi_m, v> against the six-case closed form, for one
    test vector."""
    v, table = tested[vec_i]
    v_graded = table[0][0]  # chi_0 v chi_0
    norm_sq = v.norm_sq()

    def check(n: int, m: int) -> tuple[Rational, Fraction]:
        return table[n][m].inner(v_graded), pairing_closed(v.sign, n, m, norm_sq)

    return _degree_block("pairing_cases", tested, vec_i, check)


def run_identity_sweep(rank: int, max_total: int = 6, cap: int | None = None) -> RecordTable:
    """Every check of the three families, over all test vectors and all degree
    pairs with n + m <= max_total.

    One ``sandwich_table`` per test vector serves the whole sweep, handed to
    the blocks with its vector.  The order is fixed: inner products for every
    ordered pair of vectors, then expansions and then pairings for every vector.
    The sweep's table holds the blocks' own columns.
    """
    tested = [(v, sandwich_table(v, max_total, cap)) for v in all_test_vectors(rank)]
    indices = range(len(tested))
    dots: dict = {}
    tables = [inner_block(tested, i, j, dots) for i, j in product(indices, repeat=2)]
    tables += [expansion_block(tested, i) for i in indices]
    tables += [pairing_block(tested, i) for i in indices]
    return RecordTable(CheckReport, [block for table in tables for block in table.blocks])
