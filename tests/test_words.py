import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmasa.words import (
    EMPTY,
    is_reduced,
    word_concat,
    word_from_letters,
    word_inverse,
    word_length,
    word_str,
    words_of_length,
)


def letters(rank=3, max_len=8):
    letter = st.integers(1, rank).flatmap(lambda g: st.sampled_from([g, -g]))
    return st.lists(letter, max_size=max_len)


def fold(seq):
    """Build a reduced word from arbitrary letters by repeated concatenation."""
    w = EMPTY
    for x in seq:
        w = word_concat(w, (x,))
    return w


words = letters().map(fold)


def test_basic_cancellation():
    assert word_concat((1,), (-1,)) == EMPTY
    assert word_concat((1, 2), (-2, 1)) == (1, 1)


def test_identity_element():
    w = (1, -2, 1)
    assert word_concat(EMPTY, w) == w
    assert word_concat(w, EMPTY) == w


def test_from_letters_validates():
    assert word_from_letters([(1, 1), (2, -1)], rank=2) == (1, -2)
    with pytest.raises(ValueError):
        word_from_letters([(3, 1)], rank=2)
    with pytest.raises(ValueError):
        word_from_letters([(1, 2)], rank=2)
    with pytest.raises(ValueError):
        word_from_letters([(1, 1), (1, -1)], rank=2)  # not reduced


def test_letters_roundtrip():
    assert word_from_letters([(1, 1), (2, -1), (1, -1), (3, 1)], rank=3) == (1, -2, -1, 3)
    assert word_from_letters([(2, -1)], rank=2) == (-2,)
    assert word_from_letters([], rank=2) == ()


def test_words_of_length_counts():
    for rank in (2, 3):
        for n in range(5):
            expected = 1 if n == 0 else 2 * rank * (2 * rank - 1) ** (n - 1)
            ws = list(words_of_length(n, rank))
            assert len(ws) == expected
            assert len(set(ws)) == expected
            assert all(is_reduced(w) and len(w) == n for w in ws)


def test_word_str():
    assert word_str(EMPTY) == "1"
    assert word_str((1, -2)) == "a1*a2^-1"


@given(words, words, words)
@settings(max_examples=300)
def test_concat_associative(u, v, w):
    assert word_concat(word_concat(u, v), w) == word_concat(u, word_concat(v, w))


@given(words)
def test_concat_results_reduced(w):
    assert is_reduced(w)


@given(words)
def test_inverse_involution(w):
    assert word_inverse(word_inverse(w)) == w
    assert word_length(word_inverse(w)) == word_length(w)


@given(words)
def test_inverse_cancels(w):
    assert word_concat(w, word_inverse(w)) == EMPTY
    assert word_concat(word_inverse(w), w) == EMPTY


@given(words, words)
def test_length_subadditive(u, v):
    assert word_length(word_concat(u, v)) <= word_length(u) + word_length(v)
