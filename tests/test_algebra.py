from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwa.algebra import (
    Composite,
    ExpX,
    ExpY,
    GWASpec,
    Omega,
    Torus,
    apply_automorphism,
    commutator,
    multiply,
    twisted_commutator,
)
from gwa.errors import HypothesisError
from gwa.poly import Poly, ShiftSigma, sigma_pow
from gwa.scalars import zeta

H = Poly.gen()
WEYL = GWASpec(H, ShiftSigma(1))
CUBIC = GWASpec(H ** 3, ShiftSigma(1))
BREG = GWASpec(Poly([1, -1, -1]), ShiftSigma(1))  # 1 - h(h+1)


def sigma(spec, p, k=1):
    return sigma_pow(p, k, spec.sigma)


def test_defining_relations():
    for spec in (WEYL, CUBIC, GWASpec(Poly([-1, 0, 1]), ShiftSigma(Fraction(1, 2)))):
        x, y, h = spec.x(), spec.y(), spec.h()
        assert x * y == spec.from_poly(sigma(spec, spec.a))
        assert y * x == spec.from_poly(spec.a)
        assert x * h == spec.monomial(1, sigma(spec, H))
        # r y = y sigma(r): normalized, y h picks up the inverse shift.
        assert y * h == spec.monomial(-1, sigma(spec, H, -1))
        assert h * y == spec.monomial(-1, H)


def test_weyl_commutator_sign_convention():
    # The relations give [x, y] = sigma(a) - a = -1 for a = h, step 1.
    x, y = WEYL.x(), WEYL.y()
    assert commutator(x, y) == WEYL.from_poly(Poly([-1]))


def test_commutator_examples():
    h = CUBIC.h()
    assert commutator(h, h * h).is_zero()
    hy = CUBIC.monomial(-1, H)
    expected = H * CUBIC.a - sigma(CUBIC, H * CUBIC.a)
    assert commutator(hy, CUBIC.x()) == CUBIC.from_poly(expected)
    assert commutator(CUBIC.x(), CUBIC.y()) == CUBIC.from_poly(
        sigma(CUBIC, CUBIC.a) - CUBIC.a
    )


def test_twisted_commutator_examples():
    w = Fraction(2)
    g = Torus(w)
    x, y = CUBIC.x(), CUBIC.y()
    assert twisted_commutator(x, y, g) == CUBIC.from_poly(
        sigma(CUBIC, CUBIC.a) - w * CUBIC.a
    )
    # identity torus reduces to the plain commutator
    gid = Torus(Fraction(1))
    u = CUBIC.monomial(-1, H) + CUBIC.h(2)
    assert twisted_commutator(u, x, gid) == commutator(u, x)
    h = CUBIC.h()
    assert twisted_commutator(h, h, g).is_zero()


def test_gwa_power_identities():
    # x^j y^j and y^j x^j against the sigma-shifted products, j <= 4.
    for spec in (WEYL, CUBIC, GWASpec(Poly([-2, 0, 1]), ShiftSigma(2))):
        for j in range(1, 5):
            lhs = spec.x(j) * spec.y(j)
            prod = Poly([1])
            for k in range(1, j + 1):
                prod = prod * sigma(spec, spec.a, k)
            assert lhs == spec.from_poly(prod)
            lhs = spec.y(j) * spec.x(j)
            prod = Poly([1])
            for k in range(j):
                prod = prod * sigma(spec, spec.a, -k)
            assert lhs == spec.from_poly(prod)


def test_weight_component_examples():
    u = CUBIC.h() + CUBIC.x() * 3 + CUBIC.y(2)
    assert u.weight_component(0) == CUBIC.h()
    assert u.weight_component(1) == CUBIC.x() * 3
    assert u.weight_component(-2) == CUBIC.y(2)
    xy = CUBIC.x() * CUBIC.y()
    assert xy.weight_component(1).is_zero()
    g = ExpY(2, Fraction(1))
    img = apply_automorphism(g, CUBIC.h(2))
    assert img.weight_component(0) == CUBIC.h(2)


def test_torus_action():
    w = Fraction(3)
    g = Torus(w)
    u = CUBIC.monomial(1, H ** 2)
    assert apply_automorphism(g, u) == u * w
    assert apply_automorphism(g, CUBIC.h(2)) == CUBIC.h(2)
    assert apply_automorphism(g, CUBIC.y()) == CUBIC.y() * Fraction(1, 3)
    # Negative weights take negative powers of w, exactly.
    assert apply_automorphism(Torus(zeta(4)), CUBIC.y(3)) == CUBIC.y(3) * zeta(4)
    assert apply_automorphism(Torus(-2), CUBIC.y(2)) == CUBIC.y(2) * Fraction(1, 4)


def test_exp_y_images():
    # h -> h + m*lambda*h0*y^m; with h0 = 1 this is the classical formula.
    for m, lam in ((1, Fraction(1)), (2, Fraction(3, 2))):
        g = ExpY(m, lam)
        expected = CUBIC.h() + CUBIC.monomial(-m, Poly([m * lam]))
        assert apply_automorphism(g, CUBIC.h()) == expected
        assert apply_automorphism(g, CUBIC.y()) == CUBIC.y()
    gx = ExpX(2, Fraction(1, 2))
    expected = CUBIC.h() - CUBIC.monomial(2, Poly([1]))
    assert apply_automorphism(gx, CUBIC.h()) == expected


def test_omega_images():
    om = Omega(Fraction(-1))
    assert apply_automorphism(om, BREG.h()) == BREG.from_poly(Poly([0, -1]))
    assert apply_automorphism(om, BREG.x()) == BREG.y()
    assert apply_automorphism(om, BREG.y()) == BREG.x()  # (-1)^n with n = 2


def test_omega_rejects_bad_rho():
    with pytest.raises(HypothesisError):
        apply_automorphism(Omega(Fraction(5)), BREG.x())


def test_automorphisms_preserve_relations():
    cases = [
        (BREG, Omega(Fraction(-1))),
        (CUBIC, ExpY(1, Fraction(2))),
        (CUBIC, ExpX(2, Fraction(1, 3))),
        (CUBIC, Torus(zeta(4))),
        (WEYL, Composite([ExpY(1, Fraction(1)), Torus(Fraction(2))])),
    ]
    for spec, g in cases:
        gx = apply_automorphism(g, spec.x())
        gy = apply_automorphism(g, spec.y())
        gh = apply_automorphism(g, spec.h())
        assert gy * gx == apply_automorphism(g, spec.from_poly(spec.a))
        assert gx * gy == apply_automorphism(g, spec.from_poly(sigma(spec, spec.a)))
        assert gx * gh == apply_automorphism(g, spec.from_poly(sigma(spec, H))) * gx
        assert gh * gy == gy * apply_automorphism(g, spec.from_poly(sigma(spec, H)))


def test_exp_automorphisms_invert():
    for make in (ExpY, ExpX):
        g = make(2, Fraction(3, 2))
        ginv = make(2, Fraction(-3, 2))
        for u in (CUBIC.x(), CUBIC.y(), CUBIC.h()):
            assert apply_automorphism(ginv, apply_automorphism(g, u)) == u


def test_element_format():
    u = CUBIC.monomial(2, Poly([-1, 0, 1])) + CUBIC.y() * 3
    assert str(u) == "(h^2 - 1)*x^2 + 3*y"


def _random_element(spec, rng_data):
    terms = {}
    for w, coeffs in rng_data:
        terms[w] = terms.get(w, Poly()) + Poly(coeffs)
    return spec.element(terms)


element_data = st.lists(
    st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
    ),
    min_size=0,
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(element_data, element_data, element_data)
def test_multiplication_associative(da, db, dc):
    spec = GWASpec(Poly([-1, 0, 1]), ShiftSigma(1))
    u, v, t = (_random_element(spec, d) for d in (da, db, dc))
    assert (u * v) * t == u * (v * t)
    assert multiply(u, v) == u * v


@settings(max_examples=40, deadline=None)
@given(element_data, element_data)
def test_weight_additivity(da, db):
    spec = GWASpec(Poly([0, -1, 0, 1]), ShiftSigma(1))
    u, v = _random_element(spec, da), _random_element(spec, db)
    sums = {i + j for i in u.terms for j in v.terms}
    assert set((u * v).terms).issubset(sums)


@settings(max_examples=25, deadline=None)
@given(element_data, element_data)
def test_automorphisms_are_algebra_maps(da, db):
    spec = GWASpec(Poly([0, -1, 0, 1]), ShiftSigma(1))
    u, v = _random_element(spec, da), _random_element(spec, db)
    for g in (Torus(Fraction(2)), ExpY(1, Fraction(1)), ExpX(1, Fraction(1, 2))):
        assert apply_automorphism(g, u * v) == (
            apply_automorphism(g, u) * apply_automorphism(g, v)
        )


def test_peeled_shifts_of_a_are_cached_per_a_and_h0():
    """The sigma^t(a) that products peel are computed once per (a, h0, t):
    for one a under several h0, in turn, each equals `sigma_pow`, and the
    products that peel them satisfy the defining relations."""
    import gwa.algebra

    a = Poly([-2, 1, 0, 3])
    for h0 in (1, Fraction(1, 2), -2, 1):
        spec = GWASpec(a, ShiftSigma(h0))
        for t in range(-3, 4):
            assert gwa.algebra._sigma_a(spec, t) == sigma_pow(a, t, spec.sigma), (h0, t)
        x, y = spec.x(), spec.y()
        assert y * x == spec.from_poly(a)
        assert x * y == spec.from_poly(sigma(spec, a))
        assert (x * y) * y == spec.monomial(-1, sigma(spec, a))
        assert (x * x) * (y * y) == spec.from_poly(sigma(spec, a, 2) * sigma(spec, a))
    assert gwa.algebra._shifted_a.cache_info().currsize == 1
