"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> (<name>): PASS/FAIL`` line (visible
with ``pytest -s``) and enforces both the mathematical check and its
runtime budget.
"""

import math
import time

import numpy as np

from radialmasa.algebra import (
    GroupAlgebraElement,
    chi,
    chi_support_size,
    inner_product,
    multiply,
    radial_moment_exact,
)
from radialmasa.density import (
    density_closed_grid,
    density_normalization,
    density_series_grid,
    interior_grid,
    pairing_sweep,
    zero_scan,
)
from radialmasa.identities import run_identity_sweep
from radialmasa.spectral import (
    SpectralParams,
    chi_eval_recurrence,
    quad_lambda,
    trig_sum,
    trig_sum_partial,
)

RANKS = (2, 3)


def run_criterion(num, name, budget_s, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL "
              f"[{time.perf_counter() - t0:.1f}s]", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} ({name}): PASS "
          f"[{elapsed:.1f}s, budget {budget_s:.0f}s]", flush=True)
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeded {budget_s}s budget"


def test_criterion_1_exact_recurrence():
    def check():
        for rank in RANKS:
            one = GroupAlgebraElement.one(rank)
            cs = {n: chi(n, rank) for n in range(7)}
            residual = multiply(cs[1], cs[1]) - cs[2] - one.scale(2 * rank)
            assert residual.is_zero()
            for n in range(2, 6):
                residual = (
                    multiply(cs[1], cs[n]) - cs[n + 1] - cs[n - 1].scale(2 * rank - 1)
                )
                assert residual.is_zero(), (rank, n)
                # the radial generator is central for the radial sums
                assert multiply(cs[1], cs[n]) == multiply(cs[n], cs[1])

    run_criterion(1, "exact radial recurrences", 5.0, check)


def test_criterion_2_exact_norms():
    def check():
        for rank in RANKS:
            for n in range(1, 7):
                value = inner_product(chi(n, rank), chi(n, rank))
                assert value == 2 * rank * (2 * rank - 1) ** (n - 1), (rank, n)

    run_criterion(2, "exact radial norms", 10.0, check)


def test_criterion_3_sandwich_inner_and_expansion():
    def check():
        for rank in RANKS:
            reports = run_identity_sweep(
                rank, max_total=6, families=("sandwich_inner", "sandwich_expansion")
            )
            inner = [r for r in reports if r.lemma == "sandwich_inner"]
            assert inner and all(r.passed for r in inner), [
                r.params for r in inner if not r.passed
            ][:3]
            expansion = [r for r in reports if r.lemma == "sandwich_expansion"]
            assert expansion and all(r.passed for r in expansion), [
                r.params for r in expansion if not r.passed
            ][:3]

    run_criterion(3, "sandwich inner product and expansion identities", 300.0, check)


def test_criterion_4_pairing_case_formula():
    def check():
        for rank in RANKS:
            reports = run_identity_sweep(rank, max_total=6, families=("pairing_cases",))
            assert reports and all(r.passed for r in reports), [
                r.params for r in reports if not r.passed
            ][:3]
            # the zero rows are part of the sweep: confirm some were exercised
            zero_rows = [r for r in reports if r.lhs == "0/1" and r.rhs == "0/1"]
            assert zero_rows

    run_criterion(4, "six-case pairing formula", 300.0, check)


def test_criterion_5_spectral_oracle():
    def check():
        for rank in RANKS:
            params = SpectralParams(rank)
            for k in range(11):
                exact = float(radial_moment_exact(k, rank))
                quad = quad_lambda(lambda t, k=k: t**k, params, tol=1e-10)
                assert abs(quad - exact) <= 1e-8, (rank, k, quad, exact)
            for n in range(9):
                for m in range(9):
                    gram = quad_lambda(
                        lambda t: chi_eval_recurrence(n, t, params)
                        * chi_eval_recurrence(m, t, params),
                        params,
                        tol=1e-10,
                    )
                    expected = chi_support_size(n, rank) if n == m else 0.0
                    assert abs(gram - expected) <= 1e-8, (rank, n, m)

    run_criterion(5, "quadrature moments and Gram matrix", 30.0, check)


def test_criterion_6_geometric_sine_sum():
    def check():
        rng = np.random.default_rng(20240817)
        count = 10_000
        x = rng.uniform(-0.95, 0.95, count)
        theta = rng.uniform(0.0, 2.0 * math.pi, count)
        phi = rng.uniform(0.0, 2.0 * math.pi, count)
        shifts = np.where(
            rng.random(count) < 0.5,
            rng.integers(-10, 11, count).astype(float),
            rng.uniform(-10.0, 10.0, count),
        )
        for xi, th, ph, r in zip(x, theta, phi, shifts):
            closed = trig_sum(xi, th, ph, r)
            partial = trig_sum_partial(xi, th, ph, r, terms=200)
            bound = abs(xi) ** 201 / (1.0 - abs(xi)) + 1e-12
            assert abs(closed - partial) <= bound, (xi, th, ph, r)

    run_criterion(6, "geometric sine sum closed form", 10.0, check)


def test_criterion_7_series_vs_closed_form():
    def check():
        for rank in RANKS:
            params = SpectralParams(rank)
            pts = interior_grid(200, params)
            tt, ss = pts[:, None], pts[None, :]
            closed, guarded = density_closed_grid(tt, ss, params)
            assert not guarded.any()
            series, tail = density_series_grid(tt, ss, 60, params)
            assert float(np.abs(series - closed).max()) <= tail + 1e-10
            # tail bound validated against refinement where it is resolvable
            # in double precision
            for trunc in (10, 20):
                coarse, bound = density_series_grid(tt, ss, trunc, params)
                fine, _ = density_series_grid(tt, ss, 2 * trunc, params)
                assert float(np.abs(coarse - fine).max()) <= bound, (rank, trunc)

    run_criterion(7, "density series vs closed form with tail bounds", 120.0, check)


def test_criterion_8_pairing_triple_agreement():
    def check():
        for rank in RANKS:
            params = SpectralParams(rank)
            reports = pairing_sweep(params, max_total=6, tol=1e-6)
            assert len(reports) == 28
            for r in reports:
                assert r.value_exact == r.value_case, (rank, r.j, r.k)
                assert abs(r.value_quad - float(r.value_case)) <= 1e-6, (rank, r.j, r.k)
            norm = density_normalization(params, tol=1e-8)
            assert abs(norm - 1.0) <= 1e-8, rank

    run_criterion(8, "pairing agreement exact/case/quadrature", 180.0, check)


def test_criterion_9_zero_scan_sanity():
    def check():
        report = zero_scan(512, [1e-1, 1e-3, 1e-5], SpectralParams(2))
        f1 = report.fractions[1e-1]
        f3 = report.fractions[1e-3]
        f5 = report.fractions[1e-5]
        assert f1 >= f3 >= f5, report.fractions
        assert report.max_abs >= 1.0

    run_criterion(9, "zero-set scan sanity", 60.0, check)
