"""Exact arithmetic in the rational group algebra of a free group.

Elements are finitely supported maps from reduced words to exact rational
coefficients.  Coefficients are Python ints or ``fractions.Fraction``
(ints whenever the value is integral, which keeps the hot loops fast);
floats are rejected so every identity can be checked with equality.

``GradedVector`` holds the same data by word length, one exact coefficient
array per length, so that inner products become array dot products, a
right product by one letter becomes a gather and scatter of positions, and
the adjoint becomes one gather per length.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache
from itertools import chain
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

    @classmethod
    def from_word(cls, word: Word, rank: int, coeff: Rational = 1) -> "GroupAlgebraElement":
        return cls(rank, {word: coeff})

    @classmethod
    def generator(cls, index: int, rank: int, exponent: int = 1) -> "GroupAlgebraElement":
        if not 1 <= index <= rank:
            raise ValueError(f"generator index {index} outside 1..{rank}")
        if exponent not in (1, -1):
            raise ValueError("exponent must be +1 or -1")
        return cls(rank, {(index * exponent,): 1})

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
        self._check_rank(other)
        acc = dict(self.terms)
        for word, coeff in other.terms.items():
            acc[word] = acc.get(word, 0) - coeff
        return GroupAlgebraElement._trusted(self.rank, acc)

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
    limit = active_cap(cap)
    if pairs > limit:
        raise ResourceCapError(
            f"product needs {pairs} word multiplications, cap is {limit}"
        )
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
    limit = active_cap(cap)
    if size > limit:
        raise ResourceCapError(f"chi({n}) has {size} terms, cap is {limit}")
    return GroupAlgebraElement._trusted(rank, {w: 1 for w in words_of_length(n, rank)})


# ----------------------------------------------------------------------
# graded coefficient vectors
# ----------------------------------------------------------------------

INT64_MAX = 2**63 - 1


def _exact_array(values: list) -> np.ndarray:
    """int64 when every value is an int that fits, else an object array of the values."""
    if set(map(type, values)) <= {int} and max(map(abs, values), default=0) <= INT64_MAX:
        return np.array(values, dtype=np.int64)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _word_positions(digits: np.ndarray, rank: int) -> np.ndarray:
    """Position in ``words_of_length`` order of each word, given one row of
    letter digits per word.

    A letter's digit is its index in the alphabet a1, a1^-1, a2, a2^-1, ...,
    so ``d ^ 1`` is the digit of its inverse.  Every letter after the first
    skips the inverse of the letter before it, so a word of length L reads as
    a number with a leading digit below 2N and L - 1 digits in base 2N - 1.
    """
    base = 2 * rank - 1
    pos = np.zeros(len(digits), dtype=np.int64)
    for col in range(digits.shape[1]):
        d = digits[:, col]
        if col:
            d = d - (d > (digits[:, col - 1] ^ 1))
        pos = pos * base + d
    return pos


def _letter_digit(letter):
    """Index of a signed letter (or of each in an array of them) in the
    alphabet a1, a1^-1, a2, a2^-1, ..."""
    return 2 * (abs(letter) - 1) + (letter < 0)


@cache
def _last_digits(rank: int, length: int) -> np.ndarray:
    """Digit of the last letter of each word of length ``length`` >= 1, by position.

    A word of length two or more at position p is its prefix at p // (2N - 1)
    followed by the digit p % (2N - 1), which skipped the inverse of the
    prefix's last letter; undoing that skip needs the prefix's last digit,
    hence one table per length, each built from the one before.  Tables are
    read-only and kept for the process; each is as long as a part of its
    length, which the cap already bounds.
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


@cache
def _inverse_positions(rank: int, length: int) -> np.ndarray:
    """Position of the inverse of each word of length ``length``, by position.

    The inverse of w = u a is a^-1 u^-1: its leading digit is that of a^-1,
    and its second letter, the leading letter of u^-1 (digit f), skips the
    inverse of a^-1, which is a; the rest reads as in u^-1.  So each table is
    built from the one before and the last-digit table, and, like those, is
    read-only and kept for the process.  Inversion is an involution, so the
    table is its own inverse permutation.
    """
    if length == 0:
        out = np.zeros(1, dtype=np.int64)
    elif length == 1:
        out = np.arange(2 * rank, dtype=np.int64) ^ 1
    else:
        base = 2 * rank - 1
        d = _last_digits(rank, length)
        f, r = np.divmod(
            np.repeat(_inverse_positions(rank, length - 1), base), base ** (length - 2)
        )
        out = ((d ^ 1) * base + f - (f > d)) * base ** (length - 2) + r
    out.setflags(write=False)
    return out


def _exact_dot(a: np.ndarray, a_bound: int | None, b: np.ndarray, b_bound: int | None):
    # |sum a_i b_i| <= max|a| max|b| len, and so is every partial sum
    if a_bound is not None and b_bound is not None and a_bound * b_bound * len(a) <= INT64_MAX:
        return int(np.dot(a, b))
    return np.dot(a.astype(object), b.astype(object))


class GradedVector:
    """An element stored by word length, for exact inner products by array.

    For each occupied length L, ``parts[L]`` is one coefficient array of
    ``chi_support_size(L, rank)`` entries indexed by word position, in
    ``words_of_length`` order.  A part is int64 when its entries fit and an
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
                bound = int(np.abs(part).max())
                if bound:
                    self.parts[length], self.bounds[length] = part, bound

    @classmethod
    def from_element(cls, x: GroupAlgebraElement, cap: int | None = None) -> "GradedVector":
        """The graded form of ``x``.  A part longer than the cap raises
        ResourceCapError, as a product with that many word pairs would."""
        limit = active_cap(cap)
        words = list(x.terms)
        lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
        letters = np.fromiter(chain.from_iterable(words), dtype=np.int64, count=int(lengths.sum()))
        digits = _letter_digit(letters)
        starts = np.cumsum(lengths) - lengths
        coeffs = _exact_array(list(x.terms.values()))
        parts = {}
        for length in np.flatnonzero(np.bincount(lengths)).tolist():
            size = chi_support_size(length, x.rank)
            if size > limit:
                raise ResourceCapError(
                    f"a length-{length} vector has {size} entries, cap is {limit}"
                )
            rows = np.flatnonzero(lengths == length)
            word_digits = digits[starts[rows, None] + np.arange(length)]
            part = np.zeros(size, dtype=coeffs.dtype)
            part[_word_positions(word_digits, x.rank)] = coeffs[rows]
            parts[length] = part
        return cls(x.rank, parts)

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

    def times_letter(self, letter: int, cap: int | None = None) -> "GradedVector":
        """``x * a`` for the signed letter ``a``, by gather and scatter.

        A word ending in a^-1 drops to its prefix, at position p // (2N - 1)
        (the empty word when it has length one); every other word grows by
        a, at p * (2N - 1) plus a's digit with the inverse of the word's last
        letter skipped.  Both maps are injective and the words that grow end
        in a while the prefixes do not, so coefficients only move: nothing
        is summed and nothing can overflow.  A part longer than the cap
        raises ResourceCapError, as in ``from_element``.
        """
        base = 2 * self.rank - 1
        digit = _letter_digit(letter)
        limit = active_cap(cap)
        moved: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for length, part in self.parts.items():
            if length == 0:
                moved.setdefault(1, []).append((np.array([digit]), part))
                continue
            last = _last_digits(self.rank, length)
            drop = last == digit ^ 1
            grow = ~drop
            prefixes = np.flatnonzero(drop) // base if length > 1 else np.zeros(1, np.int64)
            moved.setdefault(length - 1, []).append((prefixes, part[drop]))
            kept = last[grow] ^ 1
            moved.setdefault(length + 1, []).append(
                (np.flatnonzero(grow) * base + digit - (digit > kept), part[grow])
            )
        parts = {}
        for length, pieces in moved.items():
            size = chi_support_size(length, self.rank)
            if size > limit:
                raise ResourceCapError(
                    f"a length-{length} vector has {size} entries, cap is {limit}"
                )
            exact = all(values.dtype == np.int64 for _, values in pieces)
            out = np.zeros(size, dtype=np.int64 if exact else object)
            for positions, values in pieces:
                out[positions] = values
            parts[length] = out
        return GradedVector(self.rank, parts)

    def times_chi(self, top: int, cap: int | None = None) -> list["GradedVector"]:
        """``[x chi_0, x chi_1, ..., x chi_top]`` in one pass of letter steps.

        ``ends[a]`` holds x times the sum of the words of length m that end
        in a.  A word of length m + 1 ending in a is a word of length m not
        ending in a^-1, followed by a, so the next ``ends[a]`` is
        ``(x chi_m - ends[a^-1]) * a``, and x chi_{m+1} is the sum of them.
        Every coefficient is still a sum of word products, and every sum
        goes through ``combination``.
        """
        rank = self.rank
        letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
        out = [self]
        ends = {a: GradedVector(rank) for a in letters}
        for _ in range(top):
            x_m = out[-1]
            ends = {
                a: GradedVector.combination(rank, [(1, x_m), (-1, ends[-a])]).times_letter(a, cap)
                for a in letters
            }
            out.append(GradedVector.combination(rank, [(1, end) for end in ends.values()]))
        return out

    def adjoint(self) -> "GradedVector":
        """Each word inverted, as ``GroupAlgebraElement.adjoint``: a gather of
        every part through the inverse-position table, so coefficients only move
        and every bound holds as it was."""
        out = GradedVector(self.rank)
        out.parts = {n: part[_inverse_positions(self.rank, n)] for n, part in self.parts.items()}
        out.bounds = dict(self.bounds)
        return out

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
    the full k-th power.  Each half is built by ``times_chi`` steps of one
    letter, and a part longer than the cap raises ResourceCapError.
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
