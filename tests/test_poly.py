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
