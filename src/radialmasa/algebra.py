"""Exact arithmetic in the rational group algebra of a free group.

Elements are finitely supported maps from reduced words to exact rational
coefficients.  Coefficients are Python ints or ``fractions.Fraction``
(ints whenever the value is integral, which keeps the hot loops fast);
floats are rejected so every identity can be checked with equality.

``GradedVector`` holds the same data by word length, one exact coefficient
array per length, so that inner products become array dot products, a
right product by chi_m becomes row sums over spheres of the Cayley tree of
reshaped parts, and a left product chi_n v of a length-one v becomes two
gathers by last letter.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache
from numbers import Rational
from collections.abc import Iterable, Mapping

import numpy as np

from .errors import RankMismatchError, ResourceCapError
from .words import (
    EMPTY,
    Word,
    word_concat,
    word_inverse,
    words_of_length,
    word_str,
)

# Default bound on pairwise word multiplications in a single product.
DEFAULT_CAP = 10**8

CAP_ENV_VAR = "RADIAL_MASA_CAP"


def active_cap(cap: int | None = None) -> int:
    """The effective term-pair cap: explicit argument, else environment, else default."""
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_CAP


def _check_cap(size: int, cap: int | None, what: str) -> None:
    """Raise ResourceCapError, its message ``what`` and the cap, when ``size``
    exceeds the effective cap (``active_cap``)."""
    limit = active_cap(cap)
    if size > limit:
        raise ResourceCapError(f"{what}, cap is {limit}")


def _as_exact(value) -> int | Fraction:
    if isinstance(value, bool) or not isinstance(value, Rational):
        raise TypeError(f"coefficients must be exact rationals, got {value!r}")
    if isinstance(value, int):
        return value
    frac = Fraction(value)
    return frac.numerator if frac.denominator == 1 else frac


def _nonzero(terms: Mapping[Word, int | Fraction]) -> dict[Word, int | Fraction]:
    """Drop zeros and turn integral Fractions into ints; the values are already exact."""
    return {
        w: c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for w, c in terms.items()
        if c
    }


class GroupAlgebraElement:
    """A finitely supported rational combination of reduced words.

    Instances are immutable after construction; two elements are equal iff
    they have the same rank and identical coefficient maps (zeros are never
    stored).
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Word, Rational] | None = None):
        if rank < 2:
            raise ValueError(f"rank must be at least 2, got {rank}")
        object.__setattr__(self, "rank", rank)
        clean: dict[Word, int | Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                exact = _as_exact(coeff)
                if exact:
                    clean[word] = exact
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GroupAlgebraElement is immutable")

    @classmethod
    def _trusted(cls, rank: int, terms: Mapping[Word, int | Fraction]) -> "GroupAlgebraElement":
        """Build from coefficients that are already exact, skipping ``_as_exact``.

        For the results of the arithmetic below, whose inputs were validated.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "rank", rank)
        object.__setattr__(obj, "terms", _nonzero(terms))
        return obj

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "GroupAlgebraElement":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "GroupAlgebraElement":
        return cls(rank, {EMPTY: 1})

    # -- basic queries -------------------------------------------------

    def coeff(self, word: Word) -> int | Fraction:
        return self.terms.get(word, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def support_lengths(self) -> set[int]:
        return {len(w) for w in self.terms}

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return f"<0 over F_{self.rank}>"
        shown = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        parts = [f"{coeff}*{word_str(word)}" for word, coeff in shown[:6]]
        if len(shown) > 6:
            parts.append(f"... ({len(shown)} terms)")
        return f"<{' + '.join(parts)} over F_{self.rank}>"

    # -- linear structure ----------------------------------------------

    def _check_rank(self, other: "GroupAlgebraElement") -> None:
        if self.rank != other.rank:
            raise RankMismatchError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_rank(other)
        acc = dict(self.terms)
        for word, coeff in other.terms.items():
            acc[word] = acc.get(word, 0) + coeff
        return GroupAlgebraElement._trusted(self.rank, acc)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement._trusted(self.rank, {w: -c for w, c in self.terms.items()})

    def scale(self, scalar: Rational) -> "GroupAlgebraElement":
        exact = _as_exact(scalar)
        if not exact:
            return GroupAlgebraElement.zero(self.rank)
        return GroupAlgebraElement._trusted(
            self.rank, {w: c * exact for w, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- *-algebra structure --------------------------------------------

    def adjoint(self) -> "GroupAlgebraElement":
        """Each word inverted; rational coefficients are their own conjugates."""
        return GroupAlgebraElement._trusted(
            self.rank, {word_inverse(w): c for w, c in self.terms.items()}
        )

    def trace(self) -> int | Fraction:
        """Coefficient of the empty word."""
        return self.terms.get(EMPTY, 0)

    def inner(self, other: "GroupAlgebraElement") -> int | Fraction:
        return inner_product(self, other)

    def norm_sq(self) -> int | Fraction:
        return inner_product(self, self)

    def project_length(self, length: int) -> "GroupAlgebraElement":
        """Keep exactly the terms whose word length equals ``length``."""
        return GroupAlgebraElement._trusted(
            self.rank, {w: c for w, c in self.terms.items() if len(w) == length}
        )


def multiply(
    x: GroupAlgebraElement, y: GroupAlgebraElement, cap: int | None = None
) -> GroupAlgebraElement:
    """Bilinear extension of word concatenation, exact coefficients throughout."""
    x._check_rank(y)
    pairs = len(x.terms) * len(y.terms)
    _check_cap(pairs, cap, f"product needs {pairs} word multiplications")
    acc: dict[Word, int | Fraction] = {}
    get = acc.get
    for wx, cx in x.terms.items():
        for wy, cy in y.terms.items():
            w = word_concat(wx, wy)
            prev = get(w)
            acc[w] = cx * cy if prev is None else prev + cx * cy
    return GroupAlgebraElement._trusted(x.rank, acc)


def inner_product(x: GroupAlgebraElement, y: GroupAlgebraElement) -> int | Fraction:
    """trace(adjoint(y) * x): the coefficientwise pairing for rational elements."""
    x._check_rank(y)
    a, b = x.terms, y.terms
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    total = 0
    for word, coeff in a.items():
        other = get(word)
        if other is not None:
            total += coeff * other
    return total


def chi_support_size(n: int, rank: int) -> int:
    """Number of reduced words of length n, which is also the squared norm of chi(n)."""
    if n == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (n - 1)


def chi(n: int, rank: int, cap: int | None = None) -> GroupAlgebraElement:
    """Sum of all reduced words of length n, each with coefficient 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    size = chi_support_size(n, rank)
    _check_cap(size, cap, f"chi({n}) has {size} terms")
    return GroupAlgebraElement._trusted(rank, {w: 1 for w in words_of_length(n, rank)})


# ----------------------------------------------------------------------
# graded coefficient vectors
# ----------------------------------------------------------------------

INT64_MAX = 2**63 - 1


def _checked_part_size(length: int, rank: int, cap: int | None) -> int:
    """The entries of a length-``length`` part, checked against the cap."""
    size = chi_support_size(length, rank)
    _check_cap(size, cap, f"a length-{length} vector has {size} entries")
    return size


def _exact_array(values: list) -> np.ndarray:
    """int64 when every value is an int that fits, else an object array of the values."""
    if set(map(type, values)) <= {int} and max(map(abs, values), default=0) <= INT64_MAX:
        return np.array(values, dtype=np.int64)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


@cache
def _last_digits(rank: int, length: int) -> np.ndarray:
    """Digit of the last letter of each word of length ``length`` >= 1, by position.

    A letter's digit is its index in ``words_of_length(1, rank)``, the alphabet
    a1, a1^-1, a2, a2^-1, ..., so ``d ^ 1`` is the digit of its inverse.  In
    ``words_of_length`` order each letter after the first skips the inverse of
    the letter before it, so a word of length two or more at position p is its
    prefix at p // (2N - 1) followed by the digit p % (2N - 1), which skipped
    the inverse of the prefix's last letter; undoing that skip needs the
    prefix's last digit, hence one table per length, each built from the one
    before.  This is the one place outside ``words`` that encodes word order.
    Tables are read-only and kept for the process; each is as long as a part
    of its length, which the cap already bounds.
    """
    if length == 1:
        out = np.arange(2 * rank, dtype=np.int64)
    else:
        base = 2 * rank - 1
        skipped = np.repeat(_last_digits(rank, length - 1) ^ 1, base)
        adj = np.tile(np.arange(base, dtype=np.int64), len(skipped) // base)
        out = adj + (adj >= skipped)
    out.setflags(write=False)
    return out


def _exact_dot(a: np.ndarray, a_bound: int | None, b: np.ndarray, b_bound: int | None):
    # |sum a_i b_i| <= max|a| max|b| len, and so is every partial sum
    if a_bound is not None and b_bound is not None and a_bound * b_bound * len(a) <= INT64_MAX:
        return int(np.dot(a, b))
    return np.dot(a.astype(object), b.astype(object))


def _sign_plane(parts: list[np.ndarray], compare: np.ufunc) -> np.ndarray:
    """One row of uint64 words per same-length part: bit i of a row is set
    where ``compare(entry i, 0)`` holds; each row is zero-padded to whole words."""
    nbytes = -(-len(parts[0]) // 8)
    plane = np.zeros((len(parts), -(-nbytes // 8) * 8), dtype=np.uint8)
    for row, part in zip(plane, parts):
        row[:nbytes] = np.packbits(compare(part, 0))
    return plane.view(np.uint64)


def exact_gram(parts: list[np.ndarray], bounds: list[int | None]) -> np.ndarray:
    """The Gram matrix of same-length exact parts, ``bounds`` their largest
    entry magnitudes as ``GradedVector`` keeps them: entry (k, l) is the dot
    of parts k and l.

    When every bound is 1, every entry is -1, 0 or 1, so a dot is the number
    of positions where both parts have the same sign less the number where
    they have opposite signs.  Each part is packed into a bit plane of its
    positive and one of its negative entries, and row k against rows k.. is
    popcount(P & P') + popcount(N & N') - popcount(P & N') - popcount(N & P'),
    summed in int64: an int64 matrix.  Otherwise each unordered pair is one
    ``_exact_dot``, in int64 where the bounds allow and in Python arithmetic
    where not: an object matrix of ints and Fractions.  No float is involved.
    """
    size = len(parts)
    if not (parts and all(bound == 1 for bound in bounds)):
        gram = np.empty((size, size), dtype=object)
        for k in range(size):
            for l in range(k, size):
                gram[k, l] = gram[l, k] = _exact_dot(parts[k], bounds[k], parts[l], bounds[l])
        return gram
    pos, neg = _sign_plane(parts, np.greater), _sign_plane(parts, np.less)

    def count(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.bitwise_count(a & b).sum(axis=1, dtype=np.int64)

    gram = np.empty((size, size), dtype=np.int64)
    for k in range(size):
        p, n = pos[k], neg[k]
        row = count(p, pos[k:]) + count(n, neg[k:]) - count(p, neg[k:]) - count(n, pos[k:])
        gram[k, k:] = gram[k:, k] = row
    return gram


class GradedVector:
    """An element stored by word length, for exact inner products by array.

    For each occupied length L, ``parts[L]`` is one coefficient array of
    ``chi_support_size(L, rank)`` entries indexed by word position, in
    ``words_of_length`` order, which defines positions.  ``from_element``
    grades a length-one element; longer parts come from ``times_chi`` and
    ``chi_times``.  A part is int64 when its entries fit and an
    object array of ints and Fractions otherwise; ``bounds[L]`` is the largest
    entry magnitude of an int64 part and None for an object part.  Sums and
    dot products run in int64 only when these bounds prove that nothing can
    overflow, and in Python arithmetic otherwise, so every result is exact and
    no float is involved.  No part is all zero.
    """

    __slots__ = ("rank", "parts", "bounds")

    def __init__(self, rank: int, parts: Mapping[int, np.ndarray] | None = None):
        self.rank = rank
        self.parts: dict[int, np.ndarray] = {}
        self.bounds: dict[int, int | None] = {}
        for length, part in (parts or {}).items():
            if part.dtype != np.int64 and part.dtype != object:
                raise TypeError(f"parts must be int64 or exact object arrays, got {part.dtype}")
            if part.dtype == object:
                if np.count_nonzero(part):
                    self.parts[length], self.bounds[length] = part, None
            else:
                # not np.abs, which wraps INT64_MIN to itself
                bound = max(int(part.max()), -int(part.min()))
                if bound:
                    self.parts[length], self.bounds[length] = part, bound

    @classmethod
    def from_element(cls, x: GroupAlgebraElement, cap: int | None = None) -> "GradedVector":
        """The graded form of an ``x`` supported on length one, its part read
        off ``words_of_length(1, rank)``.  Other support raises ValueError; a
        length-one part longer than the cap raises ResourceCapError, as a
        product with that many word pairs would."""
        if x.support_lengths() - {1}:
            raise ValueError("from_element needs an element supported on length one")
        _checked_part_size(1, x.rank, cap)
        return cls(x.rank, {1: _exact_array([x.coeff(w) for w in words_of_length(1, x.rank)])})

    @classmethod
    def combination(
        cls, rank: int, terms: Iterable[tuple[Rational, "GradedVector"]]
    ) -> "GradedVector":
        """The sum of ``coeff * x`` over ``terms``, exactly."""
        by_length: dict[int, list] = {}
        for coeff, x in terms:
            if x.rank != rank:
                raise RankMismatchError(f"rank mismatch: {rank} vs {x.rank}")
            coeff = _as_exact(coeff)
            if coeff:
                for length, part in x.parts.items():
                    by_length.setdefault(length, []).append((coeff, part, x.bounds[length]))
        parts = {}
        for length, items in by_length.items():
            fits = all(type(c) is int and b is not None for c, _, b in items) and (
                sum(abs(c) * b for c, _, b in items) <= INT64_MAX
            )
            acc = np.zeros(chi_support_size(length, rank), dtype=np.int64 if fits else object)
            for coeff, part, _ in items:
                acc += coeff * (part if fits else part.astype(object))
            parts[length] = acc
        return cls(rank, parts)

    def times_chi(self, top: int, cap: int | None = None) -> list["GradedVector"]:
        """``[x chi_0, x chi_1, ..., x chi_top]``, each read off x as a sphere sum.

        The coefficient of x chi_m at a word u is the sum of x over the words
        at distance m from u in the Cayley tree.  Those are, for each c up to
        min(|u|, m), the words m - c letters below the prefix of u that is c
        letters up, less, when 0 < c < m, the words m - c - 1 letters below
        the prefix c - 1 letters up, which lie nearer u.  In ``words_of_length``
        order the words k letters below each word of length j fill one row of
        the length-(j + k) part reshaped to (chi_support_size(j), -1), so each
        such sum is a row sum of one part of x, and it is added to the row of
        the same reshape of the output part.  No recurrence among the chi_n is
        used: every coefficient is a sum of coefficients of x, as the group
        algebra has it.

        The m + 1 sums added and m - 1 subtracted cover blocks of at most
        chi_support_size(k) words each, for distinct k <= m on each side, so
        every partial sum is at most max|x| times 2 sum_{k <= m}
        chi_support_size(k) <= chi_support_size(m + 1).  The pass runs in int64
        only when that bound at m = top fits, and in object arrays otherwise.
        Its longest part has the length of the longest part of x plus top;
        when that has more entries than the cap, ResourceCapError is raised
        before any array is built.
        """
        rank = self.rank
        if top and self.parts:
            _checked_part_size(max(self.parts) + top, rank, cap)
        bounds = self.bounds.values()
        fits = None not in bounds and (
            max(bounds, default=0) * chi_support_size(top + 1, rank) <= INT64_MAX
        )
        dtype = np.int64 if fits else object
        parts = {n: part.astype(dtype, copy=False) for n, part in self.parts.items()}

        @cache
        def below(k: int, j: int) -> np.ndarray:
            # by position of each word of length j, the sum of x over the words k below it
            return parts[j + k].reshape(chi_support_size(j, rank), -1).sum(axis=1)

        out = [self]
        for m in range(1, top + 1):
            sums = {}
            for length in sorted({n + m - 2 * c for n in parts for c in range(min(n, m) + 1)}):
                acc = np.zeros(chi_support_size(length, rank), dtype=dtype)
                for c in range(min(length, m) + 1):
                    if length + m - 2 * c in parts:
                        j = length - c
                        acc.reshape(chi_support_size(j, rank), -1)[:] += below(m - c, j)[:, None]
                        if 0 < c < m:
                            acc.reshape(chi_support_size(j + 1, rank), -1)[:] -= (
                                below(m - c - 1, j + 1)[:, None]
                            )
                sums[length] = acc
            out.append(GradedVector(rank, sums))
        return out

    def chi_times(self, n: int, cap: int | None = None) -> "GradedVector":
        """chi_n x for an x supported on length one, read off x by last letter.

        A word s of length n times a letter l is the word s l of length n + 1,
        which ends in l, unless s ends in l^-1, when it is s less that letter,
        a word of length n - 1 that does not end in l.  So chi_n x at a word u
        is x at the last letter of u when |u| = n + 1, and the sum of x less x
        at that letter when |u| = n - 1 (the whole sum at the empty word, for
        n = 1): each part is one gather through the last-digit table.  The
        first only moves entries; the sum adds up all 2N entries of x, so the
        second runs in int64 only when 2N max|x| fits, and in object arrays
        otherwise.  A length-(n + 1) part with more entries than the cap
        raises ResourceCapError before it is built.
        """
        if self.parts.keys() - {1}:
            raise ValueError("chi_times needs a vector supported on length one")
        if n == 0 or not self.parts:
            return self
        rank, x, bound = self.rank, self.parts[1], self.bounds[1]
        _checked_part_size(n + 1, rank, cap)
        wide = x if bound is not None and 2 * rank * bound <= INT64_MAX else x.astype(object)
        lower = wide.sum(keepdims=True)
        if n > 1:
            lower = lower - wide[_last_digits(rank, n - 1)]
        return GradedVector(rank, {n + 1: x[_last_digits(rank, n + 1)], n - 1: lower})

    def project_length(self, length: int) -> "GradedVector":
        """The part of word length ``length``, sharing its array."""
        out = GradedVector(self.rank)
        if length in self.parts:
            out.parts[length] = self.parts[length]
            out.bounds[length] = self.bounds[length]
        return out

    def is_zero(self) -> bool:
        return not self.parts

    def __len__(self) -> int:
        """Number of nonzero coefficients, as for ``GroupAlgebraElement``."""
        return sum(np.count_nonzero(part) for part in self.parts.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedVector):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.parts.keys() == other.parts.keys()
            and all(np.array_equal(part, other.parts[n]) for n, part in self.parts.items())
        )

    def inner(self, other: "GradedVector") -> int | Fraction:
        """The same pairing as ``inner_product``: words of different lengths
        never meet, so only the parts of a shared length contribute."""
        if self.rank != other.rank:
            raise RankMismatchError(f"rank mismatch: {self.rank} vs {other.rank}")
        total = 0
        for length, part in self.parts.items():
            if length in other.parts:
                total += _exact_dot(
                    part, self.bounds[length], other.parts[length], other.bounds[length]
                )
        return total

    def norm_sq(self) -> int | Fraction:
        return self.inner(self)


def radial_moment_exact(k: int, rank: int, cap: int | None = None) -> int | Fraction:
    """trace of the k-th power of the radial generator: the number of products
    of k length-one words that reduce to the empty word.

    Splitting the power as trace(x*y) = <x, adjoint(y)> avoids materializing
    the full k-th power.  Each half is built by one ``times_chi(1)`` pass per
    factor chi_1, and a pass reaching a part longer than the cap raises
    ResourceCapError before it builds that part.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1
    left = GradedVector(rank, {0: np.ones(1, dtype=np.int64)})
    for _ in range(k // 2):
        left = left.times_chi(1, cap)[1]
    right = left if k % 2 == 0 else left.times_chi(1, cap)[1]
    # chi_1 powers are self-adjoint, so trace(right*left) = <right, left>
    return right.inner(left)


class InversionEigenvector:
    """A length-one vector with inversion symmetry, orthogonal to the radial generator.

    The coefficient map satisfies coeff(w^-1) == sign * coeff(w) with
    sign in {+1, -1}, and the coefficients sum to zero (for sign -1 this is
    automatic, for sign +1 it is a genuine constraint).
    """

    __slots__ = ("element", "sign")

    def __init__(self, element: GroupAlgebraElement, sign: int):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if element.is_zero():
            raise ValueError("vector must be nonzero")
        if element.support_lengths() != {1}:
            raise ValueError("vector must be supported on words of length 1")
        for word, coeff in element.terms.items():
            if element.coeff(word_inverse(word)) != sign * coeff:
                raise ValueError(
                    f"coefficient symmetry violated at {word_str(word)}: "
                    f"expected {sign * coeff}"
                )
        if sum(element.terms.values()) != 0:
            raise ValueError("coefficients must sum to zero (orthogonality to the radial generator)")
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError("InversionEigenvector is immutable")

    @classmethod
    def from_letter_coeffs(
        cls, rank: int, coeffs: Mapping[int, Rational], sign: int
    ) -> "InversionEigenvector":
        """Build from a map signed-letter -> coefficient, e.g. {1: 1, -1: -1}."""
        terms = {(letter,): c for letter, c in coeffs.items()}
        return cls(GroupAlgebraElement(rank, terms), sign)

    def norm_sq(self) -> int | Fraction:
        return self.element.norm_sq()

    def __repr__(self) -> str:
        return f"InversionEigenvector(sign={self.sign:+d}, {self.element!r})"
