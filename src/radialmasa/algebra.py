"""Exact arithmetic in the rational group algebra of a free group.

Elements are finitely supported maps from reduced words to exact rational
coefficients.  Coefficients are Python ints or ``fractions.Fraction``
(ints whenever the value is integral, which keeps the hot loops fast);
floats are rejected so every identity can be checked with equality.
"""

from __future__ import annotations

import os
from fractions import Fraction
from numbers import Rational
from collections.abc import Mapping

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
        return GroupAlgebraElement(self.rank, acc)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_rank(other)
        acc = dict(self.terms)
        for word, coeff in other.terms.items():
            acc[word] = acc.get(word, 0) - coeff
        return GroupAlgebraElement(self.rank, acc)

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.rank, {w: -c for w, c in self.terms.items()})

    def scale(self, scalar: Rational) -> "GroupAlgebraElement":
        exact = _as_exact(scalar)
        if not exact:
            return GroupAlgebraElement.zero(self.rank)
        return GroupAlgebraElement(self.rank, {w: c * exact for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- *-algebra structure --------------------------------------------

    def adjoint(self) -> "GroupAlgebraElement":
        """Each word inverted; rational coefficients are their own conjugates."""
        return GroupAlgebraElement(self.rank, {word_inverse(w): c for w, c in self.terms.items()})

    def trace(self) -> int | Fraction:
        """Coefficient of the empty word."""
        return self.terms.get(EMPTY, 0)

    def inner(self, other: "GroupAlgebraElement") -> int | Fraction:
        return inner_product(self, other)

    def norm_sq(self) -> int | Fraction:
        return inner_product(self, self)

    def project_length(self, length: int) -> "GroupAlgebraElement":
        """Keep exactly the terms whose word length equals ``length``."""
        return GroupAlgebraElement(
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
    return GroupAlgebraElement(x.rank, acc)


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
    return GroupAlgebraElement(rank, {w: 1 for w in words_of_length(n, rank)})


def radial_moment_exact(k: int, rank: int, cap: int | None = None) -> int | Fraction:
    """trace of the k-th power of the radial generator: the number of products
    of k length-one words that reduce to the empty word.

    Splitting the power as trace(x*y) = <x, adjoint(y)> avoids materializing
    the full k-th power.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1
    c1 = chi(1, rank, cap)
    half = k // 2
    left = GroupAlgebraElement.one(rank)
    for _ in range(half):
        left = multiply(left, c1, cap)
    right = left if k == 2 * half else multiply(left, c1, cap)
    # chi_1 powers are self-adjoint, so trace(right*left) = <right, left>
    return inner_product(right, left)


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
