import json
from fractions import Fraction

import pytest

from radialmasa.algebra import GradedVector, chi, inner_product, multiply
from radialmasa import identities
from radialmasa.cli import main
from radialmasa.identities import (
    CheckReport,
    _SandwichCache,
    all_test_vectors,
    degree_pairs,
    expansion_block,
    fraction_str,
    inner_block,
    pairing_block,
    pairing_closed,
    run_identity_sweep,
    sandwich_expansion_indices,
    sandwich_inner_closed,
    standard_test_vectors,
)


def vec(rank, sign, idx=0):
    return standard_test_vectors(rank)[sign][idx]


def vec_index(sign, idx=0):
    # the sweep numbers the two sign -1 vectors first, then the sign +1 ones
    return (0 if sign == -1 else 2) + idx


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
    cache = _SandwichCache(2)
    # brute force first: oracle value computed in the group algebra
    lhs = cache.component(v, 0, 1, 1).inner(cache.component(v, 0, 2, 0))
    assert lhs == 6
    assert sandwich_inner_closed(v, v, 1, 1, 2, 0) == 6


def test_inner_closed_sign_mismatch_is_zero():
    block = inner_block(_SandwichCache(2), 2, vec_index(-1), vec_index(1))
    report = row(block, n=1, m=1, n2=1, m2=1)
    assert (report.params["sign"], report.params["sign2"]) == (-1, 1)
    assert report.passed
    assert report.lhs == "0/1"


def test_inner_closed_degree_mismatch_is_zero():
    block = inner_block(_SandwichCache(2), 3, vec_index(-1), vec_index(-1))
    report = row(block, n=2, m=1, n2=1, m2=1)
    assert report.passed
    assert report.lhs == "0/1"


def test_inner_alternates_for_plus_sign():
    # sign +1 makes the geometric factor alternate: 3**(n+m) * (-3)**-|n-n2|
    v = vec(2, 1)
    cache = _SandwichCache(2)
    brute = cache.component(v, 0, 1, 0).inner(cache.component(v, 0, 0, 1))
    assert brute == -v.norm_sq()
    assert sandwich_inner_closed(v, v, 1, 0, 0, 1) == brute
    block = inner_block(cache, 1, vec_index(1), vec_index(1))
    report = row(block, n=1, m=0, n2=0, m2=1)
    assert report.passed


# ------------------------------------------------------- expansion


def test_expansion_trivial_case():
    report = row(expansion_block(_SandwichCache(2), 0, vec_index(-1)), n=0, m=0)
    assert report.passed


def test_expansion_indices_one_one():
    # chi_1 v chi_1 = v_{1,1} - sign * v  (all other components drop out)
    assert sorted(sandwich_expansion_indices(-1, 1, 1)) == sorted([(1, 1, 1), (1, 0, 0)])
    assert sorted(sandwich_expansion_indices(1, 1, 1)) == sorted([(1, 1, 1), (-1, 0, 0)])


def test_expansion_direct_small_cases():
    for rank in (2, 3):
        for sign in (-1, 1):
            block = expansion_block(_SandwichCache(rank), 5, vec_index(sign))
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
            block = pairing_block(_SandwichCache(rank), 4, vec_index(sign))
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


def record_sweep_caches(monkeypatch):
    """Make run_identity_sweep keep its caches, each logging writes to ``_components``."""
    caches, writes = [], []

    class CountingDict(dict):
        def __setitem__(self, key, value):
            writes.append(key)
            super().__setitem__(key, value)

    class RecordingCache(_SandwichCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._components = CountingDict()
            caches.append(self)

    monkeypatch.setattr(identities, "_SandwichCache", RecordingCache)
    return caches, writes


def test_sweep_multiplies_each_triple_once(monkeypatch):
    # one times_chi pass per (vector, n), each over chi_n v, and each chi_n v chi_m built once
    real = GradedVector.times_chi
    starts = []
    monkeypatch.setattr(
        GradedVector, "times_chi", lambda self, *args: starts.append(self) or real(self, *args)
    )
    caches, writes = record_sweep_caches(monkeypatch)
    run_identity_sweep(2, max_total=3)
    vectors = [v.element for v in all_test_vectors(2)]
    lefts = {
        (key, n): GradedVector.from_element(multiply(chi(n, 2), v))
        for key, v in enumerate(vectors)
        for n in range(4)
    }
    passes = [key_n for start in starts for key_n, left in lefts.items() if left == start]
    assert sorted(passes) == sorted(lefts)
    assert len(caches) == 1
    assert sorted(writes) == sorted(
        (key, n, m) for key in range(len(vectors)) for n, m in degree_pairs(3)
    )


@pytest.mark.parametrize("rank, max_total", [(2, 6), (3, 5), (4, 4)])
def test_sweep_triples_match_dict_product(monkeypatch, rank, max_total):
    # every triple the sweep reads equals chi_n v chi_m multiplied out word by word
    caches, _ = record_sweep_caches(monkeypatch)
    assert all(r.passed for r in run_identity_sweep(rank, max_total))
    (cache,) = caches
    vectors = all_test_vectors(rank)
    assert len(cache._components) == len(vectors) * len(degree_pairs(max_total))
    for (key, n, m), triple in cache._components.items():
        whole = multiply(multiply(chi(n, rank), vectors[key].element), chi(m, rank))
        assert triple == GradedVector.from_element(whole)


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
