import inspect
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radialmasa import algebra
from radialmasa.algebra import (
    INT64_MAX,
    GradedVector,
    GroupAlgebraElement,
    InversionEigenvector,
    _last_digits,
    chi,
    chi_support_size,
    exact_gram,
    inner_product,
    multiply,
    radial_moment_exact,
)
from radialmasa.errors import RankMismatchError, ResourceCapError
from radialmasa.identities import _element_digest, component, sandwich_table
from radialmasa.words import EMPTY, words_of_length

from conftest import graded


def element(rank, terms):
    return GroupAlgebraElement(rank, terms)


def beta_minus(rank=2):
    return InversionEigenvector.from_letter_coeffs(rank, {1: 1, -1: -1}, -1)


# ---------------------------------------------------------------- multiply


def test_radial_square_recurrence():
    # chi_1 * chi_1 = chi_2 + 2N, checked coefficientwise for N = 2
    prod = multiply(chi(1, 2), chi(1, 2))
    assert prod.coeff(EMPTY) == 4
    for w in words_of_length(2, 2):
        assert prod.coeff(w) == 1
    assert prod == chi(2, 2) + GroupAlgebraElement.one(2).scale(4)


def test_radial_step_recurrence():
    prod = multiply(chi(1, 2), chi(2, 2))
    assert prod == chi(3, 2) + chi(1, 2).scale(3)


def test_unit():
    x = element(2, {(1, 2): Fraction(3, 7), (-1,): 2})
    assert multiply(x, GroupAlgebraElement.one(2)) == x
    assert multiply(GroupAlgebraElement.one(2), x) == x


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        multiply(chi(1, 2), chi(1, 3))
    with pytest.raises(RankMismatchError):
        inner_product(chi(1, 2), chi(1, 3))
    g2, g3 = GradedVector.from_element(chi(1, 2)), GradedVector.from_element(chi(1, 3))
    with pytest.raises(RankMismatchError):
        g2.inner(g3)
    with pytest.raises(RankMismatchError):
        GradedVector.combination(2, [(1, g2), (1, g3)])


def test_floats_rejected():
    with pytest.raises(TypeError):
        element(2, {(1,): 0.5})


def test_resource_cap():
    with pytest.raises(ResourceCapError):
        multiply(chi(2, 2), chi(2, 2), cap=10)
    with pytest.raises(ResourceCapError):
        chi(4, 2, cap=10)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("RADIAL_MASA_CAP", "5")
    with pytest.raises(ResourceCapError):
        chi(2, 2)
    monkeypatch.delenv("RADIAL_MASA_CAP")
    assert len(chi(2, 2)) == 12


# ---------------------------------------------------------------- adjoint / trace


def test_adjoint_reverses_words():
    x = element(2, {(1, 2): 1})
    assert x.adjoint() == element(2, {(-2, -1): 1})


def test_adjoint_involution_and_chi_fixed():
    for n in range(5):
        c = chi(n, 2)
        assert c.adjoint() == c
        assert c.adjoint().adjoint() == c


def test_adjoint_of_odd_vector_is_negation():
    # coefficient symmetry c(w^-1) = -c(w) makes the adjoint the negative
    v = beta_minus().element
    assert v.adjoint() == -v


def test_trace_values():
    assert multiply(chi(1, 2), chi(1, 2)).trace() == 4
    assert multiply(chi(1, 3), chi(1, 3)).trace() == 6
    for n in range(1, 5):
        assert chi(n, 2).trace() == 0
    assert multiply(chi(3, 2), chi(3, 2)).trace() == 36


def small_elements(rank=2, max_len=5):
    word_pool = [w for n in range(max_len + 1) for w in words_of_length(n, rank)]
    coeffs = st.integers(-3, 3)
    return st.dictionaries(st.sampled_from(word_pool), coeffs, max_size=5).map(
        lambda terms: GroupAlgebraElement(rank, terms)
    )


@given(small_elements(), small_elements())
@settings(max_examples=150, deadline=None)
def test_trace_commutes(x, y):
    assert multiply(x, y).trace() == multiply(y, x).trace()


@given(small_elements(), small_elements(), small_elements())
@settings(max_examples=60, deadline=None)
def test_multiply_associative(x, y, z):
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


# ---------------------------------------------------------------- inner product


def test_chi_orthogonality_exact():
    for rank in (2, 3):
        cs = {n: chi(n, rank) for n in range(7)}
        for n in range(1, 7):
            for m in range(1, 7):
                expected = chi_support_size(n, rank) if n == m else 0
                assert inner_product(cs[n], cs[m]) == expected


def test_inner_product_examples():
    assert inner_product(chi(2, 2), chi(2, 2)) == 12
    assert inner_product(chi(2, 2), chi(3, 2)) == 0
    v = beta_minus()
    assert v.norm_sq() == 2


def test_inner_product_positive_definite():
    x = element(2, {(1,): Fraction(1, 2), (1, 2): -3, EMPTY: 1})
    assert inner_product(x, x) == Fraction(1, 4) + 9 + 1
    assert inner_product(GroupAlgebraElement.zero(2), x) == 0


# ---------------------------------------------------------------- chi


def test_chi_basics():
    assert chi(0, 2) == GroupAlgebraElement.one(2)
    assert len(chi(3, 2)) == 36
    assert chi_support_size(3, 2) == 36
    assert chi(2, 2) == multiply(chi(1, 2), chi(1, 2)) - GroupAlgebraElement.one(2).scale(4)


# ---------------------------------------------------------------- projections


def test_project_length():
    prod = multiply(chi(1, 2), chi(1, 2))
    assert prod.project_length(0) == GroupAlgebraElement.one(2).scale(4)
    assert chi(3, 2).project_length(2).is_zero()
    # projections over occupied lengths resum to the element
    x = element(2, {EMPTY: 1, (1,): 2, (1, 2): Fraction(1, 3)})
    resum = GroupAlgebraElement.zero(2)
    for length in sorted(x.support_lengths()):
        resum = resum + x.project_length(length)
    assert resum == x
    assert x.project_length(1).project_length(1) == x.project_length(1)


def test_project_length_sandwich_norm():
    # the (2,1) component of chi_2 v chi_1 has squared norm (2N-1)^3 |v|^2
    v = beta_minus()
    full = multiply(multiply(chi(2, 2), v.element), chi(1, 2))
    comp = full.project_length(4)
    assert graded(comp) == component(sandwich_table(v, 3), 2, 1)
    assert inner_product(comp, comp) == 27 * v.norm_sq()


# ---------------------------------------------------------------- sandwich components


def test_sandwich_identity_component():
    v = beta_minus()
    assert component(sandwich_table(v, 0), 0, 0) == GradedVector.from_element(v.element)


def test_sandwich_rejects_inhomogeneous():
    # components are built only from InversionEigenvector, which admits length-one support only
    x = element(2, {(1,): 1, (1, 2): 1})
    with pytest.raises(ValueError):
        sandwich_table(InversionEigenvector(x, -1), 2)


def test_sandwich_shifted_inner_product():
    # <v_{1,2}, v_{2,1}> = (2N-1)^3 * (2N-1)^-1 * |v|^2 for the sign -1 vector
    v = beta_minus()
    table = sandwich_table(v, 3)
    assert component(table, 1, 2).inner(component(table, 2, 1)) == Fraction(27, 3) * 2


# ---------------------------------------------------------------- graded vectors


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_graded_positions_follow_words_of_length(rank):
    # positions are words_of_length order: from_element reads the alphabet off it,
    # and _last_digits, the one other encoding of word order, agrees with it
    alphabet = list(words_of_length(1, rank))
    g = GradedVector.from_element(element(rank, {w: i + 1 for i, w in enumerate(alphabet)}))
    assert list(g.parts) == [1]
    assert g.parts[1].tolist() == list(range(1, len(alphabet) + 1))
    for length in range(1, 6):
        last = [alphabet.index(w[-1:]) for w in words_of_length(length, rank)]
        assert _last_digits(rank, length).tolist() == last
    for word in [EMPTY, (1, 2)]:
        with pytest.raises(ValueError):
            GradedVector.from_element(element(rank, {word: 1, (1,): 1}))


# small ints take the int64 path; the others need the exact fallback: ints past
# int64, ints whose products overflow int64, and Fractions
exact_coeffs = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**62, -(2**62), INT64_MAX, -INT64_MAX, -(2**63), 2**63]),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


def exact_elements(rank=2, max_len=4, min_len=0):
    word_pool = [w for n in range(min_len, max_len + 1) for w in words_of_length(n, rank)]
    return st.dictionaries(st.sampled_from(word_pool), exact_coeffs, max_size=8).map(
        lambda terms: GroupAlgebraElement(rank, terms)
    )


@given(exact_elements(), exact_elements(), exact_coeffs, exact_coeffs)
@settings(max_examples=300, deadline=None)
def test_graded_matches_element(x, y, a, b):
    gx, gy = graded(x), graded(y)
    assert gx.inner(gy) == inner_product(x, y)
    assert gx.norm_sq() == x.norm_sq()
    assert (gx == gy) == (x == y)
    assert _element_digest(gx) == _element_digest(x)
    assert gx.is_zero() == x.is_zero()
    combined = GradedVector.combination(2, [(a, gx), (b, gy)])
    assert combined == graded(x.scale(a) + y.scale(b))
    # element arithmetic skips _as_exact but still stores integral values as ints
    terms = (x.scale(a) + y.scale(b)).terms.values()
    assert all(type(c) is int or c.denominator != 1 for c in terms)
    assert GradedVector.combination(2, [(1, gx), (1, gy), (-1, gy)]) == gx
    for length in range(5):
        assert gx.project_length(length) == graded(x.project_length(length))


def test_graded_dot_falls_back_before_int64_overflow():
    # each entry fits int64, but the dot product does not
    x = element(2, {w: 2**62 for w in words_of_length(2, 2)})
    g = graded(x)
    assert g.bounds == {2: 2**62}
    assert g.norm_sq() == inner_product(x, x) == 12 * 2**124


def int64_gram(parts):
    return np.array([[int(np.dot(a, b)) for b in parts] for a in parts])


def sign_parts(length):
    """Random {-1, 0, 1} parts of ``length`` entries, with an all-zero part and
    parts of one sign among them."""
    rng = np.random.default_rng(length)
    parts = [rng.integers(-1, 2, length, dtype=np.int64) for _ in range(5)]
    return parts + [np.zeros(length, dtype=np.int64), np.ones(length, dtype=np.int64),
                    -rng.integers(0, 2, length, dtype=np.int64)]


@pytest.mark.parametrize("length", [1, 5, 63, 65, 127, 130, 1003])
def test_packed_gram_matches_int64_dots(monkeypatch, length):
    # every bound 1: the bit-plane popcounts, no _exact_dot, every dot exact
    def no_dot(*args):
        raise AssertionError("the packed path calls _exact_dot")

    monkeypatch.setattr(algebra, "_exact_dot", no_dot)
    parts = sign_parts(length)
    gram = exact_gram(parts, [1] * len(parts))
    assert gram.dtype == np.int64
    assert np.array_equal(gram, int64_gram(parts))


def test_gram_of_wider_parts_dots_each_pair(monkeypatch):
    # an entry of 2, or an object part, takes _exact_dot once per unordered pair
    calls = []
    monkeypatch.setattr(algebra, "_exact_dot",
                        lambda *args, real=algebra._exact_dot: calls.append(args) or real(*args))
    parts = [np.array([1, -1, 0, 1], dtype=np.int64), np.array([2, 1, -1, 0], dtype=np.int64),
             np.array([0, 1, 1, -1], dtype=np.int64)]
    gram = exact_gram(parts, [1, 2, 1])
    assert len(calls) == 6
    assert gram.dtype == object and gram.tolist() == int64_gram(parts).tolist()
    third = np.array([Fraction(1, 3), 0, -1, 0], dtype=object)
    calls.clear()
    gram = exact_gram([parts[0], third], [1, None])
    assert len(calls) == 3
    assert gram.tolist() == [[3, Fraction(1, 3)], [Fraction(1, 3), Fraction(10, 9)]]


POPCOUNT_TERMS = [("+", "count(p, pos[k:])"), ("+", "count(n, neg[k:])"),
                  ("-", "count(p, neg[k:])"), ("-", "count(n, pos[k:])")]


@pytest.mark.parametrize("dropped", range(len(POPCOUNT_TERMS)))
def test_gram_needs_every_popcount_term(dropped):
    # a copy of exact_gram with one of its four popcount terms dropped must
    # fail the packed check above
    def spelled(terms):
        (sign, first), *rest = terms
        return ("-" if sign == "-" else "") + first + "".join(f" {s} {t}" for s, t in rest)

    source = textwrap.dedent(inspect.getsource(exact_gram))
    row = spelled(POPCOUNT_TERMS)
    assert source.count(row) == 1
    namespace = dict(vars(algebra))
    exec(source.replace(row, spelled(POPCOUNT_TERMS[:dropped] + POPCOUNT_TERMS[dropped + 1:])),
         namespace)
    parts = sign_parts(130)
    assert not np.array_equal(namespace["exact_gram"](parts, [1] * len(parts)), int64_gram(parts))


INT64_MIN = -(2**63)


@pytest.mark.parametrize("entries", [
    [INT64_MIN, 0, 0, 0],
    [INT64_MIN, INT64_MAX, 0, -1],
    [INT64_MAX, 3, INT64_MIN, INT64_MIN],
])
def test_graded_int64_extremes_match_object_arrays(entries):
    # np.abs wraps INT64_MIN to itself; the bound must not, or the part is dropped
    def graded_as(dtype):
        return GradedVector(2, {0: np.array([INT64_MIN], dtype=dtype),
                                1: np.array(entries, dtype=dtype)})

    narrow, wide = graded_as(np.int64), graded_as(object)
    assert narrow.bounds == {0: 2**63, 1: 2**63}
    other = GradedVector(2, {1: np.array([1, -1, INT64_MAX, 2], dtype=np.int64)})
    assert narrow.norm_sq() == wide.norm_sq() == 2**126 + sum(e * e for e in entries)
    assert narrow.inner(other) == wide.inner(other)
    # chi_n times the length-one part: the lower part sums entries past INT64_MAX
    with pytest.raises(ValueError):
        narrow.chi_times(1)
    x = element(2, dict(zip(words_of_length(1, 2), entries)))
    for n in range(5):
        assert (narrow.project_length(1).chi_times(n) == wide.project_length(1).chi_times(n)
                == graded(multiply(chi(n, 2), x)))
    for coeffs in ([1], [-1], [2, -1]):
        for extra in ([], [(1, other)]):
            narrow_sum, wide_sum = (
                GradedVector.combination(2, [(c, g) for c in coeffs] + extra) for g in (narrow, wide)
            )
            assert narrow_sum == wide_sum


@pytest.mark.parametrize("half, dtype", [(INT64_MAX // 2 + 1, object), (INT64_MAX // 2, np.int64)])
def test_combination_unit_terms_near_int64_max(half, dtype):
    # two ±1 terms whose bounds sum past INT64_MAX take the object path, where
    # an int64 sum in place would wrap; at INT64_MAX - 1 they stay in int64.
    # Either way the values are Python's sums, and no input part changes
    a = np.array([half, -half, 1, 0], dtype=np.int64)
    b = np.array([half, half, -1, 5], dtype=np.int64)
    ga, gb = GradedVector(2, {1: a.copy()}), GradedVector(2, {1: b.copy()})
    for coeffs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        out = GradedVector.combination(2, zip(coeffs, (ga, gb)))
        assert out.parts[1].dtype == dtype
        assert out.parts[1].tolist() == [coeffs[0] * int(x) + coeffs[1] * int(y)
                                         for x, y in zip(a, b)]
    assert np.array_equal(ga.parts[1], a) and np.array_equal(gb.parts[1], b)


def test_graded_vector_cap():
    with pytest.raises(ResourceCapError, match="a length-1 vector has 4 entries, cap is 3"):
        GradedVector.from_element(chi(1, 2), cap=3)
    assert len(GradedVector.from_element(chi(1, 2), cap=4)) == 4


@given(
    st.integers(2, 4).flatmap(
        lambda rank: st.tuples(st.just(rank), exact_elements(rank, max_len=3), exact_coeffs,
                               exact_elements(rank, max_len=1, min_len=1))
    ),
    st.integers(0, 3),
)
# x chi_1 has 2**63 at the empty word; x chi_3 sums entries near 2**63; chi_1 v has
# the sum of v at the empty word, past INT64_MAX, and chi_n v for n > 1 sums v past
# INT64_MAX before it subtracts; v is not mean zero, and may have Fraction entries
@example((2, element(2, {(1,): 2**62, (2,): 2**62}), 0,
          element(2, {(1,): 2**62, (2,): 2**62})), 1)
@example((3, element(3, {(1, 2): INT64_MAX, (-3,): -INT64_MAX}), 2**62,
          element(3, {(1,): INT64_MAX, (-2,): INT64_MAX, (3,): -INT64_MAX})), 3)
@example((2, element(2, {}), 0,
          element(2, {w: INT64_MAX // 3 for w in words_of_length(1, 2)})), 3)
@example((4, element(4, {}), 1,
          element(4, {(1,): Fraction(1, 3), (-1,): 2**62, (4,): 2**62 - 1, (-4,): -7})), 3)
@settings(max_examples=200, deadline=None)
def test_graded_letter_steps_match_element(case, top):
    # the chi pass, and chi_n times a length-one v, against the dict algebra, word by word
    rank, x, empty, v = case
    x = x + element(rank, {EMPTY: empty})
    g = graded(x)
    dict_products = [multiply(x, chi(m, rank)) for m in range(top + 1)]
    passed = g.times_chi(top)
    assert passed == [graded(p) for p in dict_products]
    graded_v = GradedVector.from_element(v)
    for n in range(top + 2):
        assert graded_v.chi_times(n) == graded(multiply(chi(n, rank), v))


def test_graded_letter_steps_cap(monkeypatch):
    # a pass over a length-2 part reaches length 2 + top; at top = 1 its 36 entries
    # must fit the cap, and the cap is checked against the longest length before
    # any array is built
    g = graded(element(2, {(1, 2): 1, EMPTY: 1}))
    letter = GradedVector.from_element(element(2, {(1,): 1}))
    built = []
    zeros = np.zeros
    monkeypatch.setattr(np, "zeros", lambda *args, **kw: built.append(args) or zeros(*args, **kw))
    with pytest.raises(ResourceCapError, match="a length-3 vector has 36 entries, cap is 35"):
        g.times_chi(1, cap=35)
    with pytest.raises(ResourceCapError, match="a length-5 vector has 324 entries, cap is 35"):
        g.times_chi(3, cap=35)
    # chi_2 times a length-one vector reaches length 3
    with pytest.raises(ResourceCapError, match="a length-3 vector has 36 entries, cap is 35"):
        letter.chi_times(2, cap=35)
    assert built == []
    assert len(g.times_chi(1, cap=36)) == 2
    assert g.times_chi(0, cap=1) == [g]


@pytest.mark.parametrize("rank, top", [(2, 1), (2, 3), (3, 2)])
def test_times_chi_int64_switch(rank, top):
    # every partial sum of a pass is at most max|x| chi_support_size(top + 1), so
    # entries up to INT64_MAX // that stay in int64 and one more widens the pass;
    # x fills every length up to top, so past INT64_MAX // chi_support_size(top)
    # the sphere sum around the empty word passes INT64_MAX, and a pass left in
    # int64 would wrap
    narrow = INT64_MAX // chi_support_size(top + 1, rank)
    cases = [(narrow, True), (-narrow, True), (narrow + 1, False),
             (INT64_MAX // chi_support_size(top, rank) + 1, False), (INT64_MAX, False),
             (INT64_MIN, False)]
    for entry, stays_int64 in cases:
        x = element(rank, {w: entry for n in range(top + 1) for w in words_of_length(n, rank)})
        passed = graded(x).times_chi(top)
        assert passed == [graded(multiply(x, chi(m, rank))) for m in range(top + 1)]
        for product in passed[1:]:
            assert all((b is not None) == stays_int64 for b in product.bounds.values())


@pytest.mark.parametrize("rank, top", [(2, 4), (3, 3)])
@pytest.mark.parametrize("lengths", [{0}, {0, 3}, {1, 2}, {2, 4}, {0, 2, 4}])
def test_times_chi_matches_dict_products(rank, top, lengths):
    # the down and up passes against the dict algebra, on supports with the empty
    # word, with two lengths of one parity, and with a gap.  A pass that also
    # subtracts at the empty word's level, one letter past the output word, fails
    # {0, 2, 4} from m = 2 and {2, 4} from m = 4
    rng = np.random.default_rng([rank, *sorted(lengths)])
    x = element(rank, {w: int(rng.integers(-9, 10)) for n in lengths
                       for w in words_of_length(n, rank)})
    passed = graded(x).times_chi(top)
    assert passed == [graded(multiply(x, chi(m, rank))) for m in range(top + 1)]
    for shorter in range(top):
        assert graded(x).times_chi(shorter) == passed[:shorter + 1]


def test_times_chi_fraction_entries():
    # an object pass, Fractions and ints mixed, against the dict algebra
    rank = 3
    rng = np.random.default_rng(7)
    x = element(rank, {w: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
                       for n in (0, 2, 4) for w in words_of_length(n, rank)})
    passed = graded(x).times_chi(3)
    assert all(b is None for product in passed[1:] for b in product.bounds.values())
    assert passed == [graded(multiply(x, chi(m, rank))) for m in range(4)]


# ---------------------------------------------------------------- test vectors


def test_vector_validation():
    with pytest.raises(ValueError):  # wrong symmetry
        InversionEigenvector.from_letter_coeffs(2, {1: 1, -1: 1}, -1)
    with pytest.raises(ValueError):  # symmetric but not mean zero
        InversionEigenvector.from_letter_coeffs(2, {1: 1, -1: 1}, 1)
    with pytest.raises(ValueError):  # not length-one support
        InversionEigenvector(element(2, {(1, 2): 1, (-2, -1): -1}), -1)
    with pytest.raises(ValueError):  # zero vector
        InversionEigenvector(GroupAlgebraElement.zero(2), -1)
    ok = InversionEigenvector.from_letter_coeffs(2, {1: 1, -1: 1, 2: -1, -2: -1}, 1)
    assert ok.norm_sq() == 4


# ---------------------------------------------------------------- moments


def test_moment_counts_match_direct_power():
    # the graded split-power shortcut against literally multiplying out chi_1^k
    # by dict products; at rank 3 the power past k = 8 holds millions of words
    for rank, top in ((2, 10), (3, 8)):
        c1 = chi(1, rank)
        power = GroupAlgebraElement.one(rank)
        for k in range(top + 1):
            if k:
                power = multiply(power, c1)
            assert radial_moment_exact(k, rank) == power.trace()


def test_moment_cap_bounds_parts():
    # chi_1^2 at rank 2 has a length-2 part of 4 * 3 = 12 entries
    # k = 3 reaches it on the odd step, k = 4 on the halves
    for k, moment in ((3, 0), (4, 28)):
        with pytest.raises(ResourceCapError, match="a length-2 vector has 12 entries, cap is 11"):
            radial_moment_exact(k, 2, cap=11)
        assert radial_moment_exact(k, 2, cap=12) == moment


def test_low_moments():
    assert radial_moment_exact(0, 2) == 1
    assert radial_moment_exact(1, 2) == 0
    assert radial_moment_exact(2, 2) == 4
    assert radial_moment_exact(2, 3) == 6
    # odd walks cannot return
    assert radial_moment_exact(5, 2) == 0
