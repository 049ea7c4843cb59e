"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every comparison is exact (integer equality), and the two runtime
budgets are asserted with wall-clock measurements.
"""

import time
from collections import Counter
from fractions import Fraction

from conftest import h0_basis_independent
from gwa.algebra import GWASpec, Torus
from gwa.complexes import (
    COHOMOLOGY,
    HOMOLOGY,
    ComplexKind,
    bezout_d2_test,
    bezout_witness,
    center_dim,
    euler_homotopy_check,
    oracle_dims,
)
from gwa.formulas import coh_dims, duality_flag, hh_dims, twisted_dims
from gwa.invariants import (
    exp_triviality_on_h0,
    h0_bruteforce,
    invariant_gwa,
    omega_fixed_dim,
    reflectivity,
    simplicity_check,
    verify_invariant_identity,
)
from gwa.linalg import Schedule
from gwa.poly import Poly, ShiftSigma, degree_invariants, gcd_monic, parse_poly, sigma_pow
from gwa.scalars import zeta

H = Poly.gen()


def report(number: int, ok: bool, text: str):
    marker = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number}: {marker} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def oracle(spec, kind, p_max):
    return [int(v) for v in oracle_dims(spec, kind, p_max)]


def test_criterion_1_weyl():
    started = time.perf_counter()
    spec = GWASpec(H, ShiftSigma(1))
    hom_f = hh_dims(spec.a, spec.sigma, 5).dims
    coh_f = coh_dims(spec.a, spec.sigma, 5).dims
    hom_o = oracle(spec, HOMOLOGY, 5)
    coh_o = oracle(spec, COHOMOLOGY, 5)
    elapsed = time.perf_counter() - started
    ok = (
        hom_f == hom_o == [0, 0, 1, 0, 0, 0]
        and coh_f == coh_o == [1, 0, 0, 0, 0, 0]
        and elapsed < 5.0
    )
    report(1, ok, f"Weyl tables exact, both sources, {elapsed:.2f}s < 5s")


def test_criterion_2_regular_primitive_quotient():
    spec = GWASpec(parse_poly("1-h-h^2"), ShiftSigma(1))
    hom_f = hh_dims(spec.a, spec.sigma, 5).dims
    coh_f = coh_dims(spec.a, spec.sigma, 5).dims
    hom_o = oracle(spec, HOMOLOGY, 5)
    coh_o = oracle(spec, COHOMOLOGY, 5)
    flag = duality_flag(spec.a, spec.sigma)
    ok = (
        hom_f == hom_o == [1, 0, 1, 0, 0, 0]
        and coh_f == coh_o == [1, 0, 1, 0, 0, 0]
        and flag is True
    )
    report(2, ok, "regular quadratic case: [1,0,1,0,...] both ways, duality holds")


def test_criterion_3_singular_primitive_quotient():
    spec = GWASpec(Poly([Fraction(-1, 4), -1, -1]), ShiftSigma(1))
    hom_f = hh_dims(spec.a, spec.sigma, 4).dims
    coh_f = coh_dims(spec.a, spec.sigma, 4).dims
    hom_o = oracle(spec, HOMOLOGY, 4)
    coh_o = oracle(spec, COHOMOLOGY, 4)
    flag = duality_flag(spec.a, spec.sigma)
    ok = (
        hom_f == hom_o == [1, 0, 1, 1, 1]
        and coh_f == coh_o == [1, 0, 1, 1, 1]
        and flag is False
    )
    report(3, ok, "double-root quadratic case: [1,0,1,1,1] both ways, no duality")


def test_criterion_4_randomized_oracle_vs_formula(suite):
    started = time.perf_counter()
    failures = []
    for spec in suite:
        hom_f = hh_dims(spec.a, spec.sigma, 4).dims
        coh_f = coh_dims(spec.a, spec.sigma, 4).dims
        if oracle(spec, HOMOLOGY, 4) != hom_f:
            failures.append((str(spec), "homology"))
        if oracle(spec, COHOMOLOGY, 4) != coh_f:
            failures.append((str(spec), "cohomology"))
    elapsed = time.perf_counter() - started
    ok = not failures and len(suite) >= 20 and elapsed < 600.0
    report(4, ok,
           f"{len(suite)} polynomials, oracle = formula in degrees 0..4, "
           f"{elapsed:.1f}s < 600s; failures={failures}")


def test_criterion_5_twisted_suite(suite, monkeypatch):
    """Also counts the assemblies and the block tables built: the loop
    runs spec by spec, so the three twists and every bound of one normal
    form read one build of each (variant, degree) table."""
    import gwa.complexes as cx

    builds, assemblies = Counter(), [0]
    real_build, real_assemble = cx._build_block_table, cx._assemble

    def build(spec, variant, spots_of, p):
        builds[(spec, variant, spots_of, p)] += 1
        return real_build(spec, variant, spots_of, p)

    def assemble(*args):
        assemblies[0] += 1
        return real_assemble(*args)

    monkeypatch.setattr(cx, "_build_block_table", build)
    monkeypatch.setattr(cx, "_assemble", assemble)
    cx._block_tables.cache_clear()
    started = time.perf_counter()
    twists = [Fraction(-1), zeta(3), zeta(4)]
    failures = []
    for spec in suite:
        for w in twists:
            for variant in ("homology", "cohomology"):
                want = twisted_dims(spec.a, spec.sigma, variant, 4).dims
                kind = ComplexKind(variant, Torus(w))
                got = oracle(spec, kind, 4)
                if got != want:
                    failures.append((str(spec), variant, str(w), got, want))
    elapsed = time.perf_counter() - started
    rebuilt = [key for key, count in builds.items() if count > 1]
    ok = not failures and not rebuilt
    report(5, ok,
           f"twisted suite over {len(suite)} polynomials x 3 twists, both "
           f"variants, degrees 0..4 exact in {elapsed:.1f}s; "
           f"{sum(builds.values())} block tables built for {assemblies[0]} "
           f"assemblies, rebuilt={rebuilt}; failures={failures}")


def test_criterion_6_invariant_subalgebras():
    failures = []
    for text in ("h", "h^2-2", "h^3-h-1"):
        spec = GWASpec(parse_poly(text), ShiftSigma(1))
        if not simplicity_check(spec):
            failures.append((text, "simplicity"))
            continue
        for r in (2, 3):
            if not verify_invariant_identity(spec, r):
                failures.append((text, r, "identity"))
            fixed = invariant_gwa(spec, r)
            got = hh_dims(fixed.a, spec.sigma).dims[0]
            if got != r * spec.n - 1:
                failures.append((text, r, "hh0", got))
    report(6, not failures, f"invariant subalgebra consistency; failures={failures}")


def test_criterion_7_reflection_fixed_dimension():
    samples = [
        ("h", 0),
        ("1-h-h^2", -1),
        ("h^3-h", 0),
        ("h^3", 0),
        ("h^4-5*h^2+6", 0),
        ("h^5-2*h^3+h", 0),
    ]
    failures = []
    for text, rho in samples:
        a = parse_poly(text)
        spec = GWASpec(a, ShiftSigma(1))
        refl = reflectivity(a)
        if not refl.reflective or refl.rho != rho:
            failures.append((text, "reflectivity", refl))
            continue
        got = omega_fixed_dim(spec, Fraction(-1), refl.rho)
        if got != (spec.n + 1) // 2:
            failures.append((text, got, (spec.n + 1) // 2))
    ok = not failures and len(samples) >= 5
    report(7, ok, f"{len(samples)} reflective samples, fixed dim = "
                  f"floor((n+1)/2); failures={failures}")


def test_criterion_8_property_suite(suite):
    failures = []
    # d o d = 0 on assembled complexes, all kinds, twisted included: the
    # oracle certifies it exactly, once, at degree bound 4.
    chosen = [suite[0], suite[6], suite[10]]
    kinds = [HOMOLOGY, COHOMOLOGY,
             ComplexKind("homology", Torus(Fraction(-1))),
             ComplexKind("cohomology", Torus(zeta(4)))]
    for spec in chosen:
        for kind in kinds:
            try:
                oracle_dims(spec, kind, 3, Schedule(start=12))
            except Exception as exc:  # surfaced as a failure line, not a crash
                failures.append(("d o d", str(spec), kind.variant, str(exc)))
    # Euler homotopy identity on 50 random chains per spec.
    for spec in suite[:6]:
        if not euler_homotopy_check(spec, samples=50, seed=11):
            failures.append(("euler", str(spec)))
    # center is one-dimensional on all suite specs.
    for spec in suite:
        if int(center_dim(spec)) != 1:
            failures.append(("center", str(spec)))
    # power identities x^j y^j and y^j x^j for j <= 4.
    for spec in (suite[0], suite[5], suite[10]):
        for j in range(1, 5):
            up = Poly([1])
            down = Poly([1])
            for k in range(1, j + 1):
                up = up * sigma_pow(spec.a, k, spec.sigma)
            for k in range(j):
                down = down * sigma_pow(spec.a, -k, spec.sigma)
            if spec.x(j) * spec.y(j) != spec.from_poly(up):
                failures.append(("x^j y^j", str(spec), j))
            if spec.y(j) * spec.x(j) != spec.from_poly(down):
                failures.append(("y^j x^j", str(spec), j))
    # brute-force degree-zero basis independence.
    for spec in suite:
        if int(h0_bruteforce(spec)) != spec.n - 1:
            failures.append(("h0", str(spec)))
        if not h0_basis_independent(spec):
            failures.append(("h0 basis", str(spec)))
    # exponential automorphisms act trivially on degree-zero classes.
    for spec in (suite[3], suite[10]):
        for m in (1, 2):
            for lam in (Fraction(1), Fraction(3, 2)):
                if not exp_triviality_on_h0(spec, m, lam, 3):
                    failures.append(("exp", str(spec), m, str(lam)))
    report(8, not failures, f"property suite; failures={failures}")


def test_criterion_9_bezout_criterion(suite):
    failures = []
    for spec in suite:
        a, s = spec.a, spec.sigma
        coprime = gcd_monic(a, a.derivative()).degree == 0
        if bezout_d2_test(a, s) is not coprime:
            failures.append((str(spec), "flag"))
        if coprime:
            alpha, beta, gamma = bezout_witness(a, s)
            lhs = (sigma_pow(alpha, -1, s) - beta) * a \
                - sigma_pow(gamma, -1, s) * a.derivative()
            if lhs != Poly([1]):
                failures.append((str(spec), "witness", str(lhs)))
    report(9, not failures, f"degree-two surjectivity criterion with verified "
                            f"witnesses; failures={failures}")
