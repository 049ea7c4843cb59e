import random
import time
from fractions import Fraction

import pytest

from conftest import h0_basis_independent
import gwa.invariants
from gwa.algebra import GWASpec
from gwa.errors import HypothesisError, InputError
from gwa.formulas import hh_dims
from gwa.invariants import (
    GroupClass,
    GroupClassData,
    exp_triviality_on_h0,
    group_report,
    h0_bruteforce,
    invariant_gwa,
    omega_fixed_dim,
    reflectivity,
    simplicity_check,
    twisted_h0_bruteforce,
    verify_invariant_identity,
)
from gwa.poly import Poly, ShiftSigma, compose_scale, parse_poly, sigma_pow
from gwa.scalars import zeta

H = Poly.gen()
WEYL = GWASpec(H, ShiftSigma(1))


def test_invariant_gwa_examples():
    assert invariant_gwa(WEYL, 2).a == Poly([0, 2, 4])
    spec = GWASpec(Poly([-1, 0, 1]), ShiftSigma(1))
    assert invariant_gwa(spec, 1).a == spec.a
    expected = Poly([-1, 0, 4]) * (compose_scale(sigma_pow(spec.a, -1, spec.sigma), 2))
    assert invariant_gwa(spec, 2).a == expected
    assert invariant_gwa(spec, 3).a.degree == 6


def test_invariant_gwa_composes():
    for coeffs, h0 in (((0, 1), 1), ((-1, 0, 1), Fraction(1, 2))):
        spec = GWASpec(Poly(coeffs), ShiftSigma(h0))
        for r in (2, 3):
            for s in (2, 3):
                once = invariant_gwa(invariant_gwa(spec, r), s)
                joint = invariant_gwa(spec, r * s)
                assert once.a == joint.a


def test_verify_invariant_identity():
    assert verify_invariant_identity(WEYL, 2)
    assert verify_invariant_identity(WEYL, 1)
    spec = GWASpec(Poly([-1, 0, 1]), ShiftSigma(Fraction(1, 2)))
    assert verify_invariant_identity(spec, 3)
    with pytest.raises(InputError):
        verify_invariant_identity(WEYL, 7)


def _shifted_product(spec, factors):
    """prod_{j < factors} sigma^{-j}(a)."""
    product = Poly.const(1)
    for j in range(factors):
        product = product * sigma_pow(spec.a, -j, spec.sigma)
    return product


def _scaled_by_r_plus_1(spec, r):
    return GWASpec(compose_scale(_shifted_product(spec, r), r + 1), spec.sigma)


def _one_factor_dropped(spec, r):
    return GWASpec(compose_scale(_shifted_product(spec, r - 1), r), spec.sigma)


@pytest.mark.parametrize("name, broken", [
    ("invariant_gwa", _scaled_by_r_plus_1),
    ("invariant_gwa", _one_factor_dropped),
    # Shared by both sides of a comparison, a wrong rescaling would cancel.
    ("compose_scale", lambda p, r: p.compose_affine(r + 1, 0)),
], ids=["scaled-by-r+1", "factor-dropped", "rescaling"])
def test_verify_invariant_identity_rejects_a_broken_invariant_gwa(monkeypatch, name, broken):
    spec = GWASpec(Poly([-1, 0, 1]), ShiftSigma(Fraction(1, 2)))
    for r in (2, 3):
        assert verify_invariant_identity(spec, r)
    monkeypatch.setattr(gwa.invariants, name, broken)
    for r in (2, 3):
        assert not verify_invariant_identity(spec, r)


def test_simplicity_examples():
    assert simplicity_check(GWASpec(Poly([-1, 0, 1]), ShiftSigma(1))) is False
    assert simplicity_check(GWASpec(H ** 2, ShiftSigma(1))) is False
    assert simplicity_check(GWASpec(Poly([-2, 0, 1]), ShiftSigma(1))) is True
    # roots at 1 and 2 differ by two times the step 1/2
    assert simplicity_check(GWASpec(parse_poly("h^2-3*h+2"), ShiftSigma(Fraction(1, 2)))) is False
    assert simplicity_check(GWASpec(parse_poly("h^3-h-1"), ShiftSigma(1))) is True


def test_simplicity_rejects_cyclotomic_coefficients():
    spec = GWASpec(Poly([zeta(4), 0, 1]), ShiftSigma(1))
    with pytest.raises(HypothesisError):
        simplicity_check(spec)


def test_reflectivity_examples():
    r = reflectivity(Poly([1, -1, -1]))
    assert r.reflective and r.rho == -1
    r = reflectivity(H)
    assert r.reflective and r.rho == 0
    assert reflectivity(Poly([1, 1, 0, 1])).reflective is False


def test_h0_bruteforce_examples():
    assert int(h0_bruteforce(WEYL)) == 0
    cubic = GWASpec(H ** 3, ShiftSigma(1))
    assert int(h0_bruteforce(cubic)) == 2
    assert h0_basis_independent(cubic)
    assert int(h0_bruteforce(GWASpec(Poly([-1, 0, 1]), ShiftSigma(3)))) == 1


def test_twisted_h0_examples():
    assert int(twisted_h0_bruteforce(WEYL, Fraction(-1))) == 1
    assert int(twisted_h0_bruteforce(GWASpec(Poly([-2, 0, 1]), ShiftSigma(1)), zeta(3))) == 2
    assert int(twisted_h0_bruteforce(GWASpec(Poly([0, -1, 0, 1]), ShiftSigma(1)),
                                     Fraction(-1))) == 3
    with pytest.raises(HypothesisError):
        twisted_h0_bruteforce(WEYL, Fraction(1))


def test_omega_fixed_dim_examples():
    assert omega_fixed_dim(GWASpec(Poly([1, -1, -1]), ShiftSigma(1)),
                           Fraction(-1), Fraction(-1)) == 1
    assert omega_fixed_dim(WEYL, Fraction(-1), Fraction(0)) == 1
    assert omega_fixed_dim(GWASpec(Poly([6, 0, -5, 0, 1]), ShiftSigma(1)),
                           Fraction(-1), Fraction(0)) == 2


def _reflective_poly(rng, n, rho):
    """A random a of degree n whose roots are symmetric about rho / 2, so
    that a(rho - h) = (-1)^n a(h); roots may repeat."""
    roots = []
    for _ in range(n // 2):
        r = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        roots += [r, rho - r]
    if n % 2:
        roots.append(rho / 2)
    a = Poly.const(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2))))
    for r in roots:
        a = a * Poly((-r, 1))
    return a


def test_omega_fixed_dim_on_random_reflective_polynomials():
    """The fixed space of the reflection on twisted degree-zero homology
    (w = -1) has dimension floor((n+1)/2) for every reflective a."""
    rng = random.Random(16)
    started = time.perf_counter()
    for _ in range(40):
        n = rng.randint(1, 6)
        rho = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        a = _reflective_poly(rng, n, rho)
        assert reflectivity(a).rho == rho
        spec = GWASpec(a, ShiftSigma(rng.choice((Fraction(1), Fraction(2), Fraction(1, 2),
                                                 Fraction(-1)))))
        assert omega_fixed_dim(spec, Fraction(-1), rho) == (n + 1) // 2, (a, spec.sigma)
    assert time.perf_counter() - started < 2.0


def test_omega_fixed_dim_guards():
    spec = GWASpec(Poly([0, -1, 0, 1]), ShiftSigma(1))
    with pytest.raises(HypothesisError):
        omega_fixed_dim(spec, Fraction(-1), Fraction(7))  # not a reflection constant
    with pytest.raises(HypothesisError):
        omega_fixed_dim(spec, zeta(4), Fraction(0))  # reflection not centralizing
    with pytest.raises(HypothesisError):
        omega_fixed_dim(spec, Fraction(1), Fraction(0))


def test_exp_triviality_examples():
    cubic = GWASpec(H ** 3, ShiftSigma(1))
    assert exp_triviality_on_h0(cubic, 1, Fraction(1), 2)
    assert exp_triviality_on_h0(cubic, 3, Fraction(0), 3)
    assert exp_triviality_on_h0(GWASpec(Poly([-1, 0, 1]), ShiftSigma(1)),
                                2, Fraction(3, 2), 3)


def test_group_class_parse():
    data = GroupClassData.parse("order=2 omega=no\n# comment\norder=4 omega=yes\n")
    assert data.classes == (GroupClass(2, False), GroupClass(4, True))
    assert data.a1 == 1 and data.a2 == 1
    with pytest.raises(InputError):
        GroupClassData.parse("order=2")
    with pytest.raises(InputError):
        GroupClassData.parse("order=1 omega=no")
    with pytest.raises(InputError):
        GroupClassData.parse("order=x omega=no")


def test_group_report_examples():
    spec = GWASpec(Poly([-2, 0, 1]), ShiftSigma(1))
    rep = group_report(spec, GroupClassData.parse("order=2 omega=no"))
    assert rep.dims[2] == 3  # n * #classes - 1
    assert rep.meta["cyclic_crosscheck"]["ok"]

    trivial = group_report(spec, GroupClassData(()))
    assert trivial.dims[2] == spec.n - 1

    reflective = GWASpec(Poly([1, -1, -1]), ShiftSigma(1))
    rep = group_report(reflective, GroupClassData.parse("order=2 omega=yes"))
    assert rep.dims[2] == 2  # (n-1) + floor((n+1)/2) with n = 2


def test_group_report_refuses_without_simplicity():
    spec = GWASpec(Poly([-1, 0, 1]), ShiftSigma(1))  # roots differ by the step twice
    with pytest.raises(HypothesisError):
        group_report(spec, GroupClassData.parse("order=2 omega=no"))


def test_invariant_hh0_matches_group_count(suite):
    for spec in suite:
        try:
            if not simplicity_check(spec):
                continue
        except HypothesisError:
            continue
        for r in (2, 3):
            fixed = invariant_gwa(spec, r)
            assert fixed.a.degree == r * spec.n
            assert hh_dims(fixed.a, spec.sigma).dims[0] == r * spec.n - 1
