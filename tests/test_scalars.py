import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwa.poly import cyclotomic_polynomial, Poly
from gwa.scalars import (
    Cyclotomic,
    ScalarFieldError,
    cyclotomic_coeffs,
    euler_phi,
    parse_rational,
    zeta,
)


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == Poly([-1, 1])
    assert cyclotomic_polynomial(2) == Poly([1, 1])
    assert cyclotomic_polynomial(4) == Poly([1, 0, 1])
    assert cyclotomic_polynomial(3) == Poly([1, 1, 1])
    assert cyclotomic_polynomial(6) == Poly([1, -1, 1])


def test_cyclotomic_product_recovers_x_m_minus_1():
    # prod over divisors d of m of Phi_d = x^m - 1
    for m in (1, 2, 3, 4, 6, 8, 12, 15):
        prod = Poly([1])
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * Poly(cyclotomic_coeffs(d))
        expected = Poly([-1] + [0] * (m - 1) + [1])
        assert prod == expected


def test_invert_rational():
    assert 1 / Fraction(2, 3) == Fraction(3, 2)


def test_zeta4_square_is_minus_one():
    z = zeta(4)
    assert z * z == -1


def test_zeta3_sum_of_powers_vanishes():
    z = zeta(3)
    assert 1 + z + z * z == 0


def test_zeta_has_exact_multiplicative_order():
    for m in (2, 3, 4, 5, 6, 8, 12):
        z = zeta(m)
        for j in range(1, m):
            assert z ** j != 1
        assert z ** m == 1


def test_mixed_orders_rejected():
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(ScalarFieldError):
            op(zeta(3), zeta(4))
        with pytest.raises(ScalarFieldError):
            op(Cyclotomic(5, [1, 2]), zeta(12))


def test_rationals_embed_at_any_order():
    assert zeta(4) + Fraction(1, 2) == Cyclotomic(4, (Fraction(1, 2), Fraction(1)))
    assert Fraction(2) * zeta(3) == zeta(3) + zeta(3)


def test_order_cap():
    with pytest.raises(ScalarFieldError):
        zeta(65)
    assert zeta(65, cap=128) ** 65 == 1


def test_print_format():
    assert str(1 + 2 * zeta(4)) == "(1 + 2*z) @ zeta4"
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert str(Fraction(5)) == "5"


def test_canonical_reduction_gives_representation_equality():
    z = zeta(4)
    a = (z + 1) * (z - 1)   # z^2 - 1 = -2
    assert a.coeffs == (Fraction(-2), Fraction(0))
    assert euler_phi(4) == 2 and len(a.coeffs) == 2


scalars = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.builds(
        lambda a, b: Cyclotomic(4, (a, b)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(scalars)
def test_inverse_is_two_sided(a):
    if a == 0:
        return
    inv = a.inverse() if isinstance(a, Cyclotomic) else 1 / a
    assert a * inv == 1
    assert inv * a == 1


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7, 8, 12, 61, 105])
def test_inverse_of_fraction_coefficients(order):
    """The inverse through the norm, on elements with Fraction coefficients
    and on rational ones."""
    rng = random.Random(order)
    d = euler_phi(order)
    for _ in range(8 if d < 10 else 2):
        x = Cyclotomic(order, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                               for _ in range(d)])
        if x:
            assert x * x.inverse() == 1
    assert Cyclotomic.from_rational(order, Fraction(-2, 3)).inverse() == Fraction(-3, 2)


@pytest.mark.parametrize("order", [1, 2])
def test_degree_one_orders_multiply_in_z(order):
    """Orders 1 and 2 give Q, whose ring Z has bare ints as elements."""
    x = Cyclotomic(order, [Fraction(2, 3)])
    y = Cyclotomic(order, [Fraction(-5, 4)])
    assert (x * y).coeffs == (Fraction(-5, 6),)
    assert (x / y).coeffs == (Fraction(-8, 15),)
    assert (x ** 3).coeffs == (Fraction(8, 27),)
    assert (x ** -2).coeffs == (Fraction(9, 4),)
    z = zeta(order)
    assert z.coeffs == ((Fraction(1),) if order == 1 else (Fraction(-1),))
    assert (z * z).coeffs == (Fraction(1),)
    assert (z ** 3 / x).coeffs == ((Fraction(3, 2),) if order == 1 else (Fraction(-3, 2),))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 12, 105])
def test_powers_of_zeta_reduce_modulo_order(order):
    """z^p for 0 <= p < 2m, as `zeta(m, p)`, as a power, as a running
    product and as a coefficient list longer than m, agree; so does a long
    list with rational coefficients and its sum of c_k z^k."""
    z = zeta(order, cap=order)
    power = Cyclotomic.from_rational(order, 1)
    for p in range(2 * order):
        assert zeta(order, p, cap=order) == z ** p == power
        assert Cyclotomic(order, [0] * p + [1]) == power
        power = power * z
    assert Cyclotomic(order, [0] * order + [1]) == 1
    rng = random.Random(order)
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3 * order + 1)]
    expected, power = Cyclotomic.from_rational(order, 0), Cyclotomic.from_rational(order, 1)
    for c in coeffs:
        expected, power = expected + c * power, power * z
    got = Cyclotomic(order, coeffs)
    assert got == expected and len(got.coeffs) == euler_phi(order)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(3, 0).inverse()


def _raw_product(x, y):
    """The coefficients of the product of x and y as polynomials in zeta,
    before any reduction modulo the cyclotomic polynomial."""
    out = [Fraction(0)] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize("order", [3, 4, 6, 5, 7, 8, 12, 105])
def test_product_matches_reduced_raw_product(order):
    # Phi_105 is the first cyclotomic polynomial with a coefficient other
    # than 0 and +-1.
    rng = random.Random(order)
    d = euler_phi(order)
    phi = Poly(cyclotomic_coeffs(order))

    def draw():
        kind = rng.randrange(4)
        if kind == 0:
            return Cyclotomic.from_rational(order, 0)
        if kind == 1:
            return Cyclotomic.from_rational(order, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        return Cyclotomic(order, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                  for _ in range(d)])

    for _ in range(40):
        x, y = draw(), draw()
        raw = _raw_product(x, y)
        got = x * y
        assert got.order == order
        assert got == Cyclotomic(order, raw)
        assert all(type(c) is Fraction for c in got.coeffs)
        # The same residue from polynomial division by Phi_m.
        rem = Poly(raw) % phi
        assert got.coeffs == tuple(rem[i] for i in range(d))
    q = Fraction(-3, 2)
    x = draw()
    assert (x * q).coeffs == tuple(c * q for c in x.coeffs)
    assert all(type(c) is Fraction for c in (x * 0).coeffs)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 12])
def test_division_by_a_rational_scales_the_coefficients(order, monkeypatch):
    """x / c equals x * (1/c) for an int or `Fraction` c, and for c as a
    rational `Cyclotomic`; so does a product with a rational `Cyclotomic`.
    None of them takes an inverse or a ring product."""
    rng = random.Random(order)
    d = euler_phi(order)
    x = Cyclotomic(order, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)])
    divisors = [3, -7, Fraction(2, 5), Fraction(-9, 4), Fraction(6)]
    monkeypatch.setattr(Cyclotomic, "inverse", lambda self: pytest.fail("inverse taken"))
    for c in divisors:
        want = x * Fraction(1, c) if isinstance(c, int) else x * (1 / c)
        assert x / c == want and want.coeffs == tuple(v / c for v in x.coeffs)
        assert all(type(v) is Fraction for v in (x / c).coeffs)
        rational = Cyclotomic.from_rational(order, c)
        assert x / rational == want
        assert x * rational == rational * x == x * c
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        x / Cyclotomic.from_rational(order, 0)


def test_division_across_orders_is_rejected():
    """A rational divisor scales at any order, but a `Cyclotomic` divisor of
    another order is rejected, as it is in every other operation."""
    with pytest.raises(ScalarFieldError):
        zeta(5) / Cyclotomic.from_rational(3, 2)
    with pytest.raises(ScalarFieldError):
        zeta(5) / zeta(12)
    assert zeta(5) / Fraction(1, 2) == zeta(5) * 2
