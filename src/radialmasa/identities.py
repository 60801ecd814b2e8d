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
block returns its checks by column, as a ``RecordTable`` of ``CheckReport``,
with one value for a column all of its checks share.

A table holds each triple product chi_n v chi_m as a ``GradedVector``: one
exact coefficient array per word length, indexed by word position.  chi_n v
is read off v by last letter (``GradedVector.chi_times``): a word u of length
n + 1 gets v at its last letter, and one of length n - 1 the sum of v less
that, two gathers by last letter.  Row n, every chi_n v chi_m, is one
``GradedVector.times_chi`` pass over chi_n v, which reads the coefficient of
x chi_m at a word u as the sum of x over the sphere of radius m around u in
the Cayley tree: one pass down the tree sums x below each word level by level,
by row sums of reshaped parts, and one pass up builds each part of x chi_m
from its shortest prefixes, repeating each level's entries once per child
word.  ``pairing_exact`` reads
<chi_j v chi_k, v> = <v chi_k, chi_j v> off row 0 and the same chi_j v.  The
component v_{r,s} is the top-length array of its triple, an inner product is
a dot of same-length arrays (words of different lengths are orthogonal), and
the expansion check compares two graded vectors length by length, below the
top length, where the one term is the cell's own top part.  The inner
checks of a sweep, every ordered pair of test vectors at once, are one
family built in one array pass (``_inner_family``), which each inner block
slices.  Its left-hand sides are read off one Gram matrix per total n + m,
over every test vector's components of that total, built once by
``algebra.exact_gram``.  A component holds v at each word's middle letter,
so for the standard vectors every entry is -1, 0 or 1 and each dot is a
count of packed sign bits, in int64; other parts are dotted pair by pair.
Its right-hand sides are one ``sandwich_inner_closed`` call per distinct
(sign, sign', <v, v'>) and (n + m, n2 + m2, |n - n2|), gathered by index;
the sides are compared in one array pass.  This changes only
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
    columns to a map of such lists.  Any other value of a field, or of a key
    of the map, is one value that every record of its block shares; each
    block holds at least one list.  Tables share the blocks they are built
    from.  ``len`` counts the records; iterating builds each record only then.
    The CLI writes each block from its own row template, with the values its
    records share in the literal text, and spells each list once per table,
    however many blocks hold it.
    """

    def __init__(self, cls: type, blocks: list[dict]):
        self.cls, self.blocks = cls, blocks

    @staticmethod
    def block_len(block: dict) -> int:
        columns = chain.from_iterable(column.values() if isinstance(column, dict) else (column,)
                                      for column in block.values())
        return next(len(column) for column in columns if isinstance(column, list))

    def __len__(self) -> int:
        return sum(map(self.block_len, self.blocks))

    def __iter__(self) -> Iterator[JsonRecord]:
        pick = lambda column, i: column[i] if isinstance(column, list) else column
        for block in self.blocks:
            for i in range(self.block_len(block)):
                yield self.cls(**{attr: {key: pick(values, i) for key, values in column.items()}
                                  if isinstance(column, dict) else pick(column, i)
                                  for attr, column in block.items()})

    def column(self, attr: str, key: str | None = None) -> list:
        """One column over every block, in order: the field ``attr``'s, or the
        ``key`` column of ``attr`` when that is the field with columns."""
        out = []
        for block in self.blocks:
            column = block[attr] if key is None else block[attr][key]
            out += column if isinstance(column, list) else [column] * self.block_len(block)
        return out


def _check_table(lemma: str, params: dict, lhs: list, rhs: list, passed: list,
                 elapsed_ms: float) -> RecordTable:
    """A one-block table of ``lemma`` from its checks' columns.  ``elapsed_ms``,
    the block's wall time over its checks, and a ``params`` value that is not
    a list are the same for every check."""
    return RecordTable(CheckReport, [{"lemma": lemma, "params": params, "lhs": lhs, "rhs": rhs,
                                      "passed": passed, "elapsed_ms": elapsed_ms}])


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
    and matching total degree, b^(n+m) (-sign b)^-d <v, v'> with d = |n - n2|
    and b = 2N - 1.  The sign is its own inverse, and d <= n + m since the
    totals match, so this is the integer (-sign)^d b^(n+m-d) times <v, v'>."""
    if v.sign != v2.sign or n + m != n2 + m2:
        return Fraction(0)
    d = abs(n - n2)
    scale = (-v.sign) ** d * (2 * v.element.rank - 1) ** (n + m - d)
    return Fraction(scale * inner_product(v.element, v2.element))


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


def _inner_family(tested: list[TestedVector], family: dict) -> dict:
    """Every ordered pair of test vectors' ``sandwich_inner`` checks in one
    pass, put in ``family`` by the first call, for ``inner_block`` to slice.

    Components of different totals lie on different word lengths, so their
    dot is 0, and the dots of one total are one ``exact_gram`` over every
    tested vector's components of that total: one assignment per total fills
    the family's left-hand sides, row and column ``vec * size + pair``.  The
    closed form depends on v and v' only through (sign, sign', <v, v'>), and
    on the degree pairs only through the form (n + m, n2 + m2, |n - n2|), so
    it is evaluated once per key and form, for one ordered pair of that key,
    kept as an int when it is one, and gathered by index.  The sides are
    compared in one array pass, and each distinct value is spelled once.
    """
    if family:
        return family
    t0 = time.perf_counter()
    top = len(tested[0][1])  # every table holds the totals 0 .. top - 1
    pairs = degree_pairs(top - 1)
    size, count = len(pairs), len(tested)
    lhs = np.zeros((count * size, count * size), dtype=object)
    start = 0
    for total in range(top):
        # the top part of v_{n, total - n}, which holds v at each word's middle
        # letter, so it is never zero for a nonzero length-one v
        cells = [table[n][total - n] for _, table in tested for n in range(total + 1)]
        rows = (np.arange(count)[:, None] * size + np.arange(start, start + total + 1)).ravel()
        lhs[np.ix_(rows, rows)] = exact_gram([cell.parts[total + 1] for cell in cells],
                                             [cell.bounds[total + 1] for cell in cells])
        start += total + 1
    # [vec, vec2, pair, pair2], as the blocks read it
    lhs = lhs.reshape(count, size, count, size).transpose(0, 2, 1, 3)
    ns, ms = [n for n, _ in pairs], [m for _, m in pairs]
    n_col, totals = np.array(ns), np.array(ns) + ms
    # the form of each check as one number; each of its parts is below top
    forms = (totals[:, None] * top + totals) * top + abs(n_col[:, None] - n_col)
    _, first, form_index = np.unique(forms.ravel(), return_index=True, return_inverse=True)
    ordered = [(v, v2) for (v, _), (v2, _) in product(tested, repeat=2)]
    keys = [(v.sign, v2.sign, inner_product(v.element, v2.element)) for v, v2 in ordered]
    chosen = dict(zip(keys, ordered))  # a pair of each key, the keys in order of first use
    closed = []
    for v, v2 in chosen.values():
        for form in first.tolist():
            value = sandwich_inner_closed(v, v2, *pairs[form // size], *pairs[form % size])
            closed.append(value.numerator if value.denominator == 1 else value)
    number = {key: k for k, key in enumerate(chosen)}
    by_key = np.array([number[key] for key in keys]).reshape(count, count, 1, 1) * len(first)
    index = by_key + form_index.reshape(size, size)
    rhs = np.empty(len(closed), dtype=object)
    rhs[:] = closed
    passed = lhs == rhs[index]
    texts = {value: fraction_str(value) for value in {*lhs.flat, *closed}}
    spell = np.frompyfunc(texts.__getitem__, 1, 1)
    family.update(
        lhs=spell(lhs), rhs=spell(rhs)[index], passed=passed, rank=tested[0][0].element.rank,
        n=[n for n in ns for _ in pairs], m=[m for m in ms for _ in pairs], n2=ns * size,
        m2=ms * size, elapsed_ms=(time.perf_counter() - t0) * 1000.0 / lhs.size)
    return family


def inner_block(tested: list[TestedVector], vec_i: int, vec_j: int,
                dots: dict | None = None) -> RecordTable:
    """Brute-force <v_{n,m}, v'_{n2,m2}> against its closed form for one ordered
    pair of test vectors and every pair of degree pairs.

    ``tested[i]`` is the i-th test vector with its ``sandwich_table``; every
    block checks the degree pairs its table holds.  The block is the (vec_i,
    vec_j) slice of the family of every ordered pair's checks
    (``_inner_family``), built on the first call and kept in ``dots``, so
    blocks that share ``dots`` share one family and dot each unordered pair
    of components once; without ``dots`` the whole family is built for the
    one block.  The params every check of the block shares, and its
    ``elapsed_ms``, the family's wall time over the family's checks, are held
    once.
    """
    family = _inner_family(tested, {} if dots is None else dots)
    (v, _), (v2, _) = tested[vec_i], tested[vec_j]
    params = {"rank": family["rank"], "sign": v.sign, "sign2": v2.sign, "vec": vec_i,
              "vec2": vec_j, **{key: family[key] for key in ("n", "m", "n2", "m2")}}
    lhs, rhs, passed = (family[key][vec_i, vec_j].ravel().tolist()
                        for key in ("lhs", "rhs", "passed"))
    return _check_table("sandwich_inner", params, lhs, rhs, passed, family["elapsed_ms"])


def _degree_block(lemma: str, tested: list[TestedVector], vec_i: int, check: Callable,
                  spell: Callable = fraction_str) -> RecordTable:
    """One check of ``lemma`` per degree pair (n, m) of test vector ``vec_i``:
    ``check(n, m)`` gives the brute-force and closed-form sides, for ``spell``;
    a check that has shown them equal may give one object for both.  Each
    check's ``elapsed_ms`` is the block's wall time over its checks, as in
    ``inner_block``."""
    t0 = time.perf_counter()
    v, table = tested[vec_i]
    pairs = degree_pairs(len(table) - 1)
    checks = []
    for n, m in pairs:
        lhs, rhs = check(n, m)
        passed = lhs is rhs or lhs == rhs
        text = spell(lhs)  # equal sides spell alike, so a passing check spells one
        checks.append((text, text if passed else spell(rhs), passed))
    params = {"rank": v.element.rank, "sign": v.sign, "vec": vec_i,
              "n": [n for n, _ in pairs], "m": [m for _, m in pairs]}
    return _check_table(lemma, params, *map(list, zip(*checks)),
                        (time.perf_counter() - t0) * 1000.0 / len(pairs))


def expansion_block(tested: list[TestedVector], vec_i: int) -> RecordTable:
    """Brute-force chi_n v chi_m against its expansion over sandwich components,
    for one test vector.

    The expansion's term (1, n, m) is v_{n,m}, which ``component`` reads as the
    top part of chi_n v chi_m itself, at the top length n + m + 1, sharing its
    array; every other term has r + s <= n + m - 2.  So equality at the top
    length is a = a, and the check removes (1, n, m) from the term list and
    compares the combination of the rest with the cell below the top length.
    A second term at the top length puts that length into the rest, and the
    lengths then differ; without (1, n, m) every length is compared.  A
    failing check builds the whole combination for its ``rhs``.
    """
    v, table = tested[vec_i]

    expand = lambda terms: GradedVector.combination(
        v.element.rank, [(coeff, component(table, r, s)) for coeff, r, s in terms])

    def check(n: int, m: int) -> tuple[GradedVector, GradedVector]:
        cell, terms = table[n][m], sandwich_expansion_indices(v.sign, n, m)
        rest, lengths = list(terms), cell.parts.keys()
        if (1, n, m) in rest:
            rest.remove((1, n, m))
            lengths = lengths - {n + m + 1}
        lower = expand(rest).parts
        if lower.keys() == lengths and all(
                np.array_equal(part, cell.parts[length]) for length, part in lower.items()):
            return cell, cell
        return cell, expand(terms)

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
