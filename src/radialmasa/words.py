"""Reduced words in a finitely generated free group.

A word is a tuple of nonzero signed integers: ``+i`` stands for the i-th
generator and ``-i`` for its inverse.  Words are always stored fully
reduced, i.e. without any adjacent cancelling pair ``x, -x``, so that
tuple equality is word equality and ``len`` is the word length.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

Word = tuple[int, ...]

EMPTY: Word = ()


def is_reduced(word: Word) -> bool:
    return all(word[i] != -word[i + 1] for i in range(len(word) - 1))


def word_from_letters(letters: Iterable[tuple[int, int]], rank: int) -> Word:
    """Build a word from (generator-index, exponent) pairs.

    The sequence must already be reduced; this constructor validates
    rather than silently cancelling, so malformed input is caught early.
    """
    signed = []
    for gen, exp in letters:
        if not 1 <= gen <= rank:
            raise ValueError(f"generator index {gen} outside 1..{rank}")
        if exp not in (1, -1):
            raise ValueError(f"exponent must be +1 or -1, got {exp}")
        signed.append(gen if exp == 1 else -gen)
    word = tuple(signed)
    if not is_reduced(word):
        raise ValueError(f"letter sequence is not reduced: {word}")
    return word


def word_concat(u: Word, v: Word) -> Word:
    """Product of two reduced words, with cancellation at the junction."""
    i = len(u)
    j = 0
    nv = len(v)
    while i > 0 and j < nv and u[i - 1] == -v[j]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def word_inverse(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


def word_length(word: Word) -> int:
    return len(word)


def words_of_length(n: int, rank: int) -> Iterator[Word]:
    """All reduced words of length n, 2*rank*(2*rank-1)**(n-1) of them for n >= 1."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    alphabet = [s * g for g in range(1, rank + 1) for s in (1, -1)]

    def extend(word: Word, remaining: int) -> Iterator[Word]:
        if remaining == 0:
            yield word
            return
        last = word[-1] if word else 0
        for letter in alphabet:
            if letter != -last:
                yield from extend(word + (letter,), remaining - 1)

    yield from extend(EMPTY, n)


def word_str(word: Word) -> str:
    """Readable form, e.g. ``a1*a2^-1``; the empty word prints as ``1``."""
    if not word:
        return "1"
    return "*".join(f"a{x}" if x > 0 else f"a{-x}^-1" for x in word)
