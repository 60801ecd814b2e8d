import hashlib
import json
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from radialmasa.algebra import (GradedVector, InversionEigenvector, chi, chi_support_size,
                               exact_gram, inner_product, multiply)
from radialmasa import identities
from radialmasa.cli import main
from radialmasa.identities import (
    CheckReport,
    all_test_vectors,
    component,
    degree_pairs,
    expansion_block,
    fraction_str,
    inner_block,
    pairing_block,
    pairing_closed,
    run_identity_sweep,
    sandwich_expansion_indices,
    sandwich_inner_closed,
    sandwich_table,
    standard_test_vectors,
)

from conftest import graded


def vec(rank, sign, idx=0):
    return standard_test_vectors(rank)[sign][idx]


def vec_index(sign, idx=0):
    # the sweep numbers the two sign -1 vectors first, then the sign +1 ones
    return (0 if sign == -1 else 2) + idx


def with_tables(rank, max_total):
    """What the sweep hands its blocks: each test vector with its ``sandwich_table``,
    in sweep order."""
    return [(v, sandwich_table(v, max_total)) for v in all_test_vectors(rank)]


def row(reports, **params):
    """The one report of a block whose params include ``params``."""
    (match,) = [r for r in reports if params.items() <= r.params.items()]
    return match


def test_standard_vectors_satisfy_hypotheses():
    for rank in (2, 3):
        table = standard_test_vectors(rank)
        assert len(table[-1]) == 2
        # rank r has r-1 independent symmetric mean-zero vectors; rank 2 only one
        assert len(table[1]) == (1 if rank == 2 else 2)
        for sign, vs in table.items():
            for v in vs:
                assert v.sign == sign


def test_minus_vectors_independent():
    v1, v2 = standard_test_vectors(2)[-1]
    # disjoint supports, hence linearly independent
    assert set(v1.element.terms) & set(v2.element.terms) == set()


# ------------------------------------------------------- inner product closed form


def test_inner_closed_known_value():
    v = vec(2, -1)
    table = sandwich_table(v, 2)
    # brute force first: oracle value computed in the group algebra
    lhs = component(table, 1, 1).inner(component(table, 2, 0))
    assert lhs == 6
    assert sandwich_inner_closed(v, v, 1, 1, 2, 0) == 6


def test_inner_closed_sign_mismatch_is_zero():
    block = inner_block(with_tables(2, 2), vec_index(-1), vec_index(1))
    report = row(block, n=1, m=1, n2=1, m2=1)
    assert (report.params["sign"], report.params["sign2"]) == (-1, 1)
    assert report.passed
    assert report.lhs == "0/1"


def test_inner_closed_degree_mismatch_is_zero():
    block = inner_block(with_tables(2, 3), vec_index(-1), vec_index(-1))
    report = row(block, n=2, m=1, n2=1, m2=1)
    assert report.passed
    assert report.lhs == "0/1"


def test_inner_alternates_for_plus_sign():
    # sign +1 makes the geometric factor alternate: 3**(n+m) * (-3)**-|n-n2|
    v = vec(2, 1)
    table = sandwich_table(v, 1)
    brute = component(table, 1, 0).inner(component(table, 0, 1))
    assert brute == -v.norm_sq()
    assert sandwich_inner_closed(v, v, 1, 0, 0, 1) == brute
    block = inner_block(with_tables(2, 1), vec_index(1), vec_index(1))
    report = row(block, n=1, m=0, n2=0, m2=1)
    assert report.passed


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_inner_closed_integer_form_matches_fraction_powers(rank):
    # the integer scale (-sign)^d b^(n+m-d), d = |n - n2|, is the Fraction power
    # form b^(n+m) (-sign b)^-d at every pair of forms up to total 6, for both
    # signs and with a base <v, v'> that is not an integer
    b = 2 * rank - 1
    for sign in (-1, 1):
        v = vec(rank, sign)
        third = InversionEigenvector(v.element.scale(Fraction(1, 3)), sign)
        for x, y in [(v, v), (v, third), (third, third)]:
            base = Fraction(inner_product(x.element, y.element))
            for (n, m), (n2, m2) in product(degree_pairs(6), repeat=2):
                got = sandwich_inner_closed(x, y, n, m, n2, m2)
                old = Fraction(b) ** (n + m) * Fraction(1, -sign * b) ** abs(n - n2) * base
                assert type(got) is Fraction and got == (old if n + m == n2 + m2 else 0)
        assert base.denominator > 1
        assert sandwich_inner_closed(v, vec(rank, -sign), 1, 1, 1, 1) == 0


# ------------------------------------------------------- expansion


def test_expansion_trivial_case():
    report = row(expansion_block(with_tables(2, 0), vec_index(-1)), n=0, m=0)
    assert report.passed


def test_expansion_indices_one_one():
    # chi_1 v chi_1 = v_{1,1} - sign * v  (all other components drop out)
    assert sorted(sandwich_expansion_indices(-1, 1, 1)) == sorted([(1, 1, 1), (1, 0, 0)])
    assert sorted(sandwich_expansion_indices(1, 1, 1)) == sorted([(1, 1, 1), (-1, 0, 0)])


def test_expansion_indices_never_negative():
    # a table row or column of index -1 would wrap to the last one, so no
    # component may be asked for at a negative index
    for sign in (-1, 1):
        for n, m in degree_pairs(8):
            assert all(r >= 0 and s >= 0 for _, r, s in sandwich_expansion_indices(sign, n, m))


def test_expansion_direct_small_cases():
    for rank in (2, 3):
        for sign in (-1, 1):
            block = expansion_block(with_tables(rank, 5), vec_index(sign))
            for n, m in [(1, 1), (3, 2), (0, 4)]:
                report = row(block, n=n, m=m)
                assert report.passed, report.params


# ------------------------------------------------------- six-case pairing


def test_pairing_case_values():
    norm = Fraction(2)
    assert pairing_closed(-1, 1, 1, norm) == 2
    assert pairing_closed(-1, 2, 2, norm) == 4
    assert pairing_closed(-1, 2, 1, norm) == 0
    assert pairing_closed(-1, 0, 0, norm) == 2
    assert pairing_closed(-1, 2, 0, norm) == -2
    assert pairing_closed(-1, 3, 1, norm) == -2
    assert pairing_closed(1, 1, 1, norm) == -2
    assert pairing_closed(1, 3, 3, norm) == -4
    assert pairing_closed(1, 4, 2, norm) == -2


def test_pairing_brute_force_matches():
    for rank in (2, 3):
        for sign in (-1, 1):
            block = pairing_block(with_tables(rank, 4), vec_index(sign))
            for n, m in [(0, 0), (1, 1), (2, 0), (2, 2), (2, 1), (3, 1), (4, 0)]:
                report = row(block, n=n, m=m)
                assert report.passed, report.params


def test_zero_cases_verified_not_assumed():
    # the "otherwise" rows of the case formula against brute force
    v = vec(2, -1)
    for n, m in [(1, 0), (0, 1), (2, 1), (3, 0), (4, 1), (5, 0)]:
        lhs = inner_product(
            multiply(multiply(chi(n, 2), v.element), chi(m, 2)), v.element
        )
        assert lhs == 0
        assert pairing_closed(-1, n, m, v.norm_sq()) == 0


# ------------------------------------------------------- sweeps and reports


def test_degree_pairs():
    pairs = degree_pairs(2)
    assert set(pairs) == {(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)}


def test_small_sweep_all_pass():
    reports = run_identity_sweep(2, max_total=3)
    assert reports
    assert all(r.passed for r in reports)


def test_sweep_multiplies_each_triple_once(monkeypatch):
    # one times_chi pass per (vector, n), each starting from chi_n v, so each
    # chi_n v chi_m is built once
    real = GradedVector.times_chi
    starts = []
    monkeypatch.setattr(
        GradedVector, "times_chi", lambda self, *args: starts.append(self) or real(self, *args)
    )
    run_identity_sweep(2, max_total=3)
    vectors = [v.element for v in all_test_vectors(2)]
    lefts = {
        (key, n): graded(multiply(chi(n, 2), v))
        for key, v in enumerate(vectors)
        for n in range(4)
    }
    passes = [key_n for start in starts for key_n, left in lefts.items() if left == start]
    assert sorted(passes) == sorted(lefts)
    assert len(starts) == len(lefts)


@pytest.mark.parametrize("rank, max_total", [(2, 6), (3, 5), (4, 4)])
def test_sweep_triples_match_dict_product(monkeypatch, rank, max_total):
    # every cell of every table the sweep reads equals chi_n v chi_m multiplied out
    # word by word
    built = []
    monkeypatch.setattr(
        identities, "sandwich_table", lambda *args: built.append(sandwich_table(*args)) or built[-1]
    )
    assert all(r.passed for r in run_identity_sweep(rank, max_total))
    vectors = all_test_vectors(rank)
    assert len(built) == len(vectors)
    for v, table in zip(vectors, built):
        assert [len(cells) for cells in table] == list(range(max_total + 1, 0, -1))
        for n, m in degree_pairs(max_total):
            whole = multiply(multiply(chi(n, rank), v.element), chi(m, rank))
            assert table[n][m] == graded(whole)


def assert_lhs_are_fresh_dots(reports, fresh):
    """Each sandwich_inner lhs against its own dot of components of the tables of
    ``fresh`` (vector, table) pairs."""
    for r in reports:
        p = r.params
        brute = component(fresh[p["vec"]][1], p["n"], p["m"]).inner(
            component(fresh[p["vec2"]][1], p["n2"], p["m2"]))
        assert r.lhs == fraction_str(brute), p


@pytest.mark.parametrize("rank, max_total", [(2, 4), (3, 3), (4, 2)])
def test_shared_dots_match_independent_dots(rank, max_total):
    # every sandwich_inner lhs, shared across mirrored checks and blocks, against
    # its own dot of freshly built components; mismatched totals included
    reports = [r for r in run_identity_sweep(rank, max_total) if r.lemma == "sandwich_inner"]
    fresh = with_tables(rank, max_total)
    count = len(fresh) * len(degree_pairs(max_total))
    assert len(reports) == count * count
    assert {(r.params["vec"], r.params["vec2"]) for r in reports} == set(
        product(range(len(fresh)), repeat=2))
    assert_lhs_are_fresh_dots(reports, fresh)


def test_inner_blocks_dot_each_unordered_pair_once(monkeypatch):
    # the sweep builds one Gram per total, over every vector's components of
    # that total, and the inner blocks dot nothing else: each same-total
    # unordered pair of components is in exactly one Gram
    built, grams, calls, inside = [], [], [], []
    monkeypatch.setattr(
        identities, "sandwich_table", lambda *args: built.append(sandwich_table(*args)) or built[-1]
    )
    real_block, real_inner, real_gram = identities.inner_block, GradedVector.inner, exact_gram

    def counted_block(*args):
        inside.append(True)
        try:
            return real_block(*args)
        finally:
            inside.pop()

    def counted_inner(self, other):
        if inside:  # pairing and expansion checks call inner too
            calls.append((self, other))
        return real_inner(self, other)

    monkeypatch.setattr(identities, "inner_block", counted_block)
    monkeypatch.setattr(GradedVector, "inner", counted_inner)
    monkeypatch.setattr(identities, "exact_gram",
                        lambda parts, bounds: grams.append(parts) or real_gram(parts, bounds))
    run_identity_sweep(2, max_total=3)
    assert calls == []
    # a component shares the array of its table's top part, which names its key
    names = {id(component(table, n, m).parts[n + m + 1]): (vec, n, m)
             for vec, table in enumerate(built) for n, m in degree_pairs(3)}
    assert len(names) == len(built) * len(degree_pairs(3))
    keys = [[names[id(part)] for part in parts] for parts in grams]
    by_total = sorted(keys, key=lambda gram: sum(gram[0][1:]))
    assert by_total == [[key for key in sorted(names.values()) if sum(key[1:]) == total]
                        for total in range(4)]
    in_grams = sorted(pair for gram in keys for pair in combinations_with_replacement(gram, 2))
    assert in_grams == [(a, b) for a, b in combinations_with_replacement(sorted(names.values()), 2)
                        if sum(a[1:]) == sum(b[1:])]


def test_shared_dots_on_fraction_parts():
    # Fraction coefficients keep every part an object array, which the int64
    # sweeps never reach; the shared texts still equal independent dots, and
    # each block checks its tables against the closed forms of their own vectors
    third = InversionEigenvector.from_letter_coeffs(2, {1: Fraction(1, 3), -1: Fraction(-1, 3)}, -1)
    fresh = [(v, sandwich_table(v, 3)) for v in (third, vec(2, -1, 1))]
    assert component(fresh[0][1], 1, 1).parts[3].dtype == object
    dots = {}
    reports = [r for i, j in product(range(2), repeat=2) for r in inner_block(fresh, i, j, dots)]
    assert len(reports) == 4 * len(degree_pairs(3)) ** 2
    assert any(r.lhs.endswith("/9") for r in reports)
    assert all(r.passed for r in reports)
    assert_lhs_are_fresh_dots(reports, fresh)


# the exact columns of verify at sizes the benchmark does not run, hashed as
# perfbench/run.py hashes them
@pytest.mark.parametrize("rank, max_total, checks, sha256", [
    (4, 4, 3720, "304b2e76e2505bb841f252a2c86c301c94bb4a02abeaf1a1bfd8bc700f73f67b"),
    (2, 6, 7224, "21277df5fbcd2d5031121ddc31c82e6f64c5e85122f9dfb0b8ea43c5da9c9f33"),
    (3, 7, 21024, "4269d52d508b6d169e18f4510b53a5be40ee98ff5efad6643c04a355e1abc286"),
])
def test_sweep_rows_match_recorded_digest(rank, max_total, checks, sha256):
    rows = [[r.lemma, r.params, r.lhs, r.rhs] for r in run_identity_sweep(rank, max_total)]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert len(rows) == checks
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_verify_report_matches_sweep(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--rank", "2", "--max-total", "3", "--out", str(out)]) == 0
    untimed = lambda check: {k: v for k, v in check.items() if k != "elapsed_ms"}
    reported = [untimed(c) for c in json.loads(out.read_text())["checks"]]
    direct = [untimed(r.to_json_dict()) for r in run_identity_sweep(2, max_total=3)]
    assert reported == direct


def test_report_serialization():
    report = CheckReport(
        lemma="pairing_cases",
        params={"rank": 2, "n": 1, "m": 1},
        lhs=fraction_str(Fraction(1, 3)),
        rhs=fraction_str(Fraction(1, 3)),
        passed=True,
        elapsed_ms=1.25,
    )
    blob = json.dumps(report.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["pass"] is True
    assert parsed["lhs"] == "1/3"
    assert set(parsed) == {"lemma", "params", "lhs", "rhs", "pass", "elapsed_ms"}


# ------------------------------------------------------- negative controls


def inner_reports(rank, max_total):
    return [r for r in run_identity_sweep(rank, max_total) if r.lemma == "sandwich_inner"]


def closed_key(v, v2, n, m, n2, m2):
    """The (sign, sign', <v, v'>) key and the (n + m, n2 + m2, |n - n2|) form
    that ``sandwich_inner_closed`` depends on."""
    return (v.sign, v2.sign, inner_product(v.element, v2.element)), (n + m, n2 + m2, abs(n - n2))


def test_wrong_closed_form_fails_exactly_its_key_and_form(monkeypatch, tmp_path):
    # one (key, form) off by one fails the checks of that key and form in every
    # block that shares them, and no other check; verify exits 1
    vectors = all_test_vectors(3)
    target = ((1, 1, -2), (3, 3, 1))  # the two sign +1 vectors, either order
    real = identities.sandwich_inner_closed

    def wrong(v, v2, n, m, n2, m2):
        value = real(v, v2, n, m, n2, m2)
        return value + 1 if closed_key(v, v2, n, m, n2, m2) == target else value

    monkeypatch.setattr(identities, "sandwich_inner_closed", wrong)
    reports = inner_reports(3, 5)
    failed = [r for r in reports if not r.passed]
    key = lambda p: closed_key(vectors[p["vec"]], vectors[p["vec2"]], p["n"], p["m"], p["n2"],
                               p["m2"])
    assert failed == [r for r in reports if key(r.params) == target]
    # the forms (3, 3, 1) of the ordered pairs (2, 3) and (3, 2)
    assert len(failed) == 2 * 6
    assert {(r.params["vec"], r.params["vec2"]) for r in failed} == {(2, 3), (3, 2)}
    out = str(tmp_path / "v.json")
    assert main(["verify", "--rank", "3", "--max-total", "5", "--out", out]) == 1


def test_wrong_gram_entry_fails_exactly_the_check_that_reads_it(monkeypatch, tmp_path):
    # one off-diagonal entry of the total-2 Gram, vector 0's v_{1,1} against
    # vector 1's v_{2,0} (rows vec * 3 + n), is read by one check only
    real = identities.exact_gram

    def wrong(parts, bounds):
        gram = real(parts, bounds)
        if len(parts[0]) == chi_support_size(3, 2):  # the components of total 2
            gram[1, 5] += 1
        return gram

    monkeypatch.setattr(identities, "exact_gram", wrong)
    failed = [r for r in inner_reports(2, 3) if not r.passed]
    assert len(failed) == 1
    read = {"vec": 0, "vec2": 1, "n": 1, "m": 1, "n2": 2, "m2": 0}
    assert failed[0].params.items() >= read.items()
    out = str(tmp_path / "v.json")
    assert main(["verify", "--rank", "2", "--max-total", "3", "--out", out]) == 1
