from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwa.errors import HypothesisError, InputError
from gwa.poly import (
    Poly,
    ShiftSigma,
    compose_scale,
    degree_invariants,
    format_poly,
    gcd_monic,
    parse_poly,
    poly_xgcd,
    sigma_pow,
)

H = Poly.gen()


def test_sigma_pow_examples():
    s = ShiftSigma(1)
    assert sigma_pow(H ** 2, 1, s) == Poly([1, -2, 1])
    assert sigma_pow(H, -1, s) == Poly([1, 1])
    assert sigma_pow(H ** 3, 2, ShiftSigma(Fraction(1, 2))) == Poly([-1, 3, -3, 1])


def test_sigma_pow_roundtrip():
    s = ShiftSigma(Fraction(2, 3))
    p = Poly([1, 0, -2, 5])
    assert sigma_pow(sigma_pow(p, 3, s), -3, s) == p
    assert sigma_pow(p, 0, s) == p


def test_gcd_examples():
    assert gcd_monic(H ** 2, 2 * H) == H
    # -(h+1/2)^2 against its derivative
    a = Poly([Fraction(-1, 4), -1, -1])
    assert gcd_monic(a, a.derivative()) == Poly([Fraction(1, 2), 1])
    a = H ** 3 - H
    assert gcd_monic(a, a.derivative()) == Poly([1])


def test_gcd_of_zeros_rejected():
    with pytest.raises(ValueError):
        gcd_monic(Poly(), Poly())


def test_degree_invariants_examples():
    s = ShiftSigma(1)
    assert degree_invariants(H, s) == (1, 0)
    assert degree_invariants(Poly([Fraction(-1, 4), -1, -1]), s) == (2, 1)
    assert degree_invariants(H ** 3, s) == (3, 2)


def test_degree_invariants_rejects_constant():
    with pytest.raises(HypothesisError):
        degree_invariants(Poly([3]), ShiftSigma(1))


def test_compose_scale_examples():
    assert compose_scale(H, 2) == Poly([0, 2])
    assert compose_scale(H ** 2 + 1, 3) == Poly([1, 0, 9])
    assert compose_scale(H * (H + 1), 2) == Poly([0, 2, 4])


def test_compose_scale_rejects_bad_factor():
    with pytest.raises(InputError):
        compose_scale(H, 0)


def test_parse_and_format_roundtrip():
    for text in ("h^2 - 3/2*h + 1", "-h", "h", "7", "h^5 - 2*h^4 + h^3"):
        p = parse_poly(text)
        assert parse_poly(format_poly(p)) == p
    assert parse_poly("[1, -3/2, 1]") == parse_poly("h^2 - 3/2*h + 1")
    assert parse_poly("4*H^2+2*H", var="H") == Poly([0, 2, 4])
    # Spaces between a digit and anything but a digit are ignored.
    assert parse_poly("2 h") == parse_poly("2*h") == Poly([0, 2])
    assert parse_poly("- h") == Poly([0, -1])
    assert parse_poly("h ^ 2") == Poly([0, 0, 1])
    assert parse_poly("3 / 2*h") == Poly([0, Fraction(3, 2)])


def test_parse_rejects_garbage():
    for text in ("", "x^2", "h^^2", "[1, oops]", "h**2",
                 # A bare sign is a term with nothing after it, not 1 or -1.
                 "h^2+1-", "h^2 - - 1", "h^2 +", "+", "-",
                 # A space must not join two digits into one number.
                 "h^2 3", "h^2 + 1 2", "1 0*h", "1 2/3", "1/2 3*h"):
        with pytest.raises(InputError):
            parse_poly(text)


def test_shift_sigma_rejects_zero():
    with pytest.raises(InputError):
        ShiftSigma(0)


small_polys = st.builds(
    Poly,
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
             min_size=0, max_size=5),
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


@settings(max_examples=50, deadline=None)
@given(small_polys, small_polys, st.integers(min_value=-3, max_value=3))
def test_sigma_is_ring_automorphism(p, q, k):
    s = ShiftSigma(Fraction(3, 2))
    assert sigma_pow(p * q, k, s) == sigma_pow(p, k, s) * sigma_pow(q, k, s)
    assert sigma_pow(p + q, k, s) == sigma_pow(p, k, s) + sigma_pow(q, k, s)


@settings(max_examples=50, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(p, q):
    g = gcd_monic(p, q)
    assert (p % g).is_zero()
    assert (q % g).is_zero()


@settings(max_examples=50, deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_common_divisor_divides_gcd(p, q, c):
    g = gcd_monic(p * c, q * c)
    assert (g % c.monic()).is_zero()


@settings(max_examples=50, deadline=None)
@given(small_polys, small_polys)
def test_derivative_linear_and_leibniz(p, q):
    assert (p + q).derivative() == p.derivative() + q.derivative()
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@settings(max_examples=50, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_xgcd_identity(p, q):
    g, s, t = poly_xgcd(p, q)
    assert s * p + t * q == g
    assert g == gcd_monic(p, q)


# Integral coefficients are stored as ints ------------------------------------

mixed_scalars = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    # An integral Fraction, which a Poly must store as its numerator.
    st.integers(min_value=-6, max_value=6).map(Fraction),
)
mixed_polys = st.lists(mixed_scalars, max_size=5).map(Poly)
nonzero_mixed = mixed_polys.filter(lambda p: not p.is_zero())


def stored_exactly(p: Poly) -> bool:
    """Every coefficient is an int, or a `Fraction` that is not an integer;
    so no float and no integral `Fraction`."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.coeffs)


def test_integral_coefficients_are_stored_as_ints():
    p = Poly([Fraction(4, 2), Fraction(1, 2), 3, Fraction(0)])
    assert p.coeffs == (2, Fraction(1, 2), 3)
    assert [type(c) for c in p.coeffs] == [int, Fraction, int]
    assert type(Poly.const(Fraction(-3)).leading()) is int
    assert (Poly([Fraction(1, 2)]) * 2).coeffs == (1,) and type((Poly([Fraction(1, 2)]) * 2)[0]) is int
    assert H[5] == 0 and type(H[5]) is int


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mixed_polys, mixed_polys, mixed_scalars)
def test_ring_operations_store_integral_results_as_ints(p, q, c):
    for r in (p + q, p - q, -p, p * q, p * c, p.derivative(), p ** 2):
        assert stored_exactly(r), r


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mixed_polys, nonzero_mixed)
def test_division_and_gcds_stay_exact(p, q):
    quot, rem = divmod(p, q)
    assert stored_exactly(quot) and stored_exactly(rem)
    assert quot * q + rem == p and rem.degree < q.degree
    assert stored_exactly(q.monic()) and q.monic().leading() == 1
    if not p.is_zero():
        g = gcd_monic(p, q)
        assert stored_exactly(g)
        g2, s, t = poly_xgcd(p, q)
        assert all(stored_exactly(r) for r in (g2, s, t))
        assert g2 == g and s * p + t * q == g


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6).map(Poly),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6).map(Poly))
def test_integer_division_by_a_unit_stays_over_z(p, q):
    """Over Z a divisor with leading coefficient 1 or -1 divides in int
    arithmetic: quotient and remainder are over Z."""
    if q.is_zero():
        return
    q = q - Poly.monomial(q.degree, q.leading() - 1)  # leading coefficient 1
    quot, rem = divmod(p, q)
    assert all(type(c) is int for c in quot.coeffs + rem.coeffs)


def horner(p: Poly, scale, shift) -> Poly:
    """p(scale*h + shift) by Horner's rule on `Poly` products: the
    reference for `compose_affine`."""
    arg = Poly((shift, scale))
    out = Poly()
    for c in reversed(p.coeffs):
        out = out * arg + c
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mixed_polys, mixed_scalars.filter(lambda s: s != 1 and s != 0),
       mixed_scalars.filter(lambda c: c != 0))
def test_compose_affine_shifts_then_scales(p, scale, shift):
    """p(s*h + c) with s != 1 and c != 0 together equals the Horner
    reference: a shift and a scale, in that order."""
    got = p.compose_affine(scale, shift)
    assert got == horner(p, scale, shift)
    assert stored_exactly(got)


def test_compose_affine_examples():
    # (2h + 1)^2 = 4h^2 + 4h + 1, where scaling first would give (2(h + 1))^2.
    assert (H ** 2).compose_affine(2, 1) == Poly([1, 4, 4])
    assert (H ** 3 - H).compose_affine(-1, 3) == horner(H ** 3 - H, -1, 3)
    assert Poly([Fraction(1, 2), 0, 1]).compose_affine(Fraction(1, 3), Fraction(-2)) \
        == Poly([Fraction(9, 2), Fraction(-4, 3), Fraction(1, 9)])
