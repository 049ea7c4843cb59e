"""The oracle's integral normal form and the twist as a block scalar."""

from fractions import Fraction

import pytest

import gwa.complexes as cx
from gwa.algebra import GWASpec, Torus, apply_automorphism
from gwa.complexes import (
    COHOMOLOGY,
    HOMOLOGY,
    ComplexKind,
    assemble_total_matrix,
    integral_normal_form,
    oracle_dims,
    row_homology_dims,
)
from gwa.errors import HypothesisError, InternalConsistencyError
from gwa.linalg import Schedule, TruncatedSpace
from gwa.poly import Poly, ShiftSigma
from gwa.scalars import zeta


def test_normal_form_of_a_fractional_step():
    """a = h^2 - 1/4 with h0 = 1/2: a(t/2) = (t^2 - 1)/4."""
    spec = GWASpec(Poly([Fraction(-1, 4), 0, 1]), ShiftSigma(Fraction(1, 2)))
    normal, lam = integral_normal_form(spec)
    assert normal.a == Poly([-1, 0, 1]) and normal.sigma.h0 == 1
    assert lam == Fraction(1, 4)
    assert all(c.denominator == 1 for c in normal.a.coeffs)


def test_normal_form_is_primitive_with_a_positive_leading_coefficient(suite):
    for spec in suite:
        normal, lam = integral_normal_form(spec)
        b = normal.a
        assert (normal.n, normal.sigma.h0) == (spec.n, 1)
        assert all(c.denominator == 1 for c in b.coeffs) and b.leading() > 0
        assert cx.gcd(*(c.numerator for c in b.coeffs)) == 1
        assert b * lam == spec.a.compose_affine(spec.sigma.h0, 0)
    # -1/4 - h - h^2 = -(h + 1/2)^2: the sign goes into lam.
    normal, lam = integral_normal_form(GWASpec(Poly([Fraction(-1, 4), -1, -1]), ShiftSigma(1)))
    assert normal.a == Poly([1, 4, 4]) and lam == Fraction(-1, 4)


def test_normal_form_needs_a_rational_polynomial():
    with pytest.raises(HypothesisError):
        integral_normal_form(GWASpec(Poly([zeta(4), 0, 1]), ShiftSigma(1)))


@pytest.mark.parametrize("run", [
    lambda spec: oracle_dims(spec, HOMOLOGY, 1),
    lambda spec: row_homology_dims(spec, COHOMOLOGY),
], ids=["oracle_dims", "row_homology_dims"])
def test_a_broken_normal_form_is_an_internal_error(monkeypatch, run):
    spec = GWASpec(Poly([Fraction(-1, 4), 0, 1]), ShiftSigma(Fraction(1, 2)))
    real = cx.integral_normal_form

    def broken(spec):
        normal, lam = real(spec)
        return normal, lam * 2  # lam * b(t) is now 2 a(h0 t)

    monkeypatch.setattr(cx, "integral_normal_form", broken)
    with pytest.raises(InternalConsistencyError, match="normal form"):
        run(spec)


@pytest.mark.parametrize("w", [None, Fraction(-1), zeta(3)], ids=["Q", "w=-1", "zeta3"])
def test_normal_form_matrices_have_the_same_pattern_and_pivots(suite, w):
    """Each assembled matrix of the normal form has the zero pattern and
    the pivot columns of the matrix of (a, h0), as a diagonal rescaling
    of it must."""
    for spec in suite:
        normal, _ = integral_normal_form(spec)
        for variant in ("homology", "cohomology"):
            kind = ComplexKind(variant, None if w is None else Torus(w))
            for p in range(4):
                raw, new = (assemble_total_matrix(s, kind, p, 4, 4 + spec.n + 1)
                            for s in (spec, normal))
                assert [[bool(v) for v in row] for row in raw.rows] == \
                    [[bool(v) for v in row] for row in new.rows]
                assert raw._pivot_columns() == new._pivot_columns()


def _rescaled(spec: GWASpec, c, mu) -> GWASpec:
    """(a, h0) -> (c * a(mu * h), h0 / mu), an isomorphic algebra."""
    return GWASpec(spec.a.compose_affine(mu, 0) * c, ShiftSigma(spec.sigma.h0 / mu))


def _table(stabs):
    return [(s.value, s.stabilized_at, s.history) for s in stabs]


@pytest.mark.parametrize("w", [None, Fraction(-1), zeta(3)], ids=["Q", "w=-1", "zeta3"])
def test_oracle_is_invariant_under_rescaling(monkeypatch, suite, w):
    """Values and histories of `oracle_dims` are those of (a, h0) for
    (c * a(mu h), h0 / mu); so are those of the rescaled spec computed
    as given, with the normal form switched off."""
    schedule = Schedule(start=4)
    rescalings = [(Fraction(-2), Fraction(3)), (Fraction(3, 4), Fraction(-1, 2))]
    for i, spec in enumerate(suite):
        for variant in ("homology", "cohomology"):
            kind = ComplexKind(variant, None if w is None else Torus(w))
            want = _table(oracle_dims(spec, kind, 1, schedule))
            for c, mu in rescalings:
                assert _table(oracle_dims(_rescaled(spec, c, mu), kind, 1, schedule)) == want
            with monkeypatch.context() as patch:
                patch.setattr(cx, "_normalized", lambda spec: spec)
                c, mu = rescalings[i % 2]
                assert _table(oracle_dims(_rescaled(spec, c, mu), kind, 1, schedule)) == want


def _fill_term(rows, dom, cod, copy_dom, copy_cod, g_poly, c):
    """Add p |-> g_poly * p(h - c) between two copies, column e the
    product g_poly * (h - c)^e in exact `Poly` arithmetic."""
    for e in range(dom.degree_bound + 1):
        image = g_poly * Poly([-c, 1]) ** e
        for deg, v in enumerate(image.coeffs):
            if v:
                rows[cod.index(deg, copy_cod)][dom.index(e, copy_dom)] += v


def _reference_total_matrix(spec, kind, p, b_dom, b_cod):
    """The total differential out of degree p as assembled term by term,
    each term's right factor twisted with `apply_automorphism` and filled
    on its own with `Poly` arithmetic, not with `_fill_block`."""
    homology = kind.variant == "homology"
    dom_map, dom_copies = cx._copy_index(cx.spots(p))
    cod_map, cod_copies = cx._copy_index(cx.spots(p - 1 if homology else p + 1))
    dom = TruncatedSpace(kind.field_order, dom_copies, b_dom)
    cod = TruncatedSpace(kind.field_order, cod_copies, b_cod)
    rows = [[Fraction(0)] * dom.dim for _ in range(cod.dim)]
    dce, df = cx._dce_terms(spec), cx._df_terms(spec)
    sign = -1 if homology else 1
    here, there = (dom_map, cod_map) if homology else (cod_map, dom_map)
    for (spot, slot), copy in here.items():
        i, k = spot
        routes = [((i, k - 1), dce[slot])] if k >= 1 else []
        if i >= 1:
            routes.append(((i - 1, k + 1), df[slot]))
        for route_spot, terms in routes:
            for u, route_slot, v in terms:
                other = there.get((route_spot, route_slot))
                if other is None:
                    continue
                if homology:
                    left, right, dom_slot, cod_slot, copy_dom, copy_cod = (
                        v, u, slot, route_slot, copy, other)
                else:
                    left, right, dom_slot, cod_slot, copy_dom, copy_cod = (
                        u, v, route_slot, slot, other, copy)
                pref = cx._prefactor(spec, sign * cx.slot_weight(dom_slot))
                if kind.twist is not None:
                    right = apply_automorphism(kind.twist, right)
                value = left * pref * right
                g_poly = cx._poly_at(value, sign * cx.slot_weight(cod_slot))
                _fill_term(rows, dom, cod, copy_dom, copy_cod, g_poly,
                           cx._element_weight(left) * spec.sigma.h0)
    return rows


@pytest.mark.parametrize("w", [Fraction(-1), Fraction(2), Fraction(1, 2),
                               zeta(3), zeta(4), zeta(5)],
                         ids=["-1", "2", "1/2", "zeta3", "zeta4", "zeta5"])
def test_block_scalar_equals_twisting_each_term(w):
    """Scaling each block by w^k gives the matrices of twisting every
    term's right factor, in degrees 0..4 and both variants, on the normal
    form and off it."""
    specs = [GWASpec(Poly([0, -1, 1, 2]), ShiftSigma(1)),
             GWASpec(Poly([Fraction(1, 3), 0, Fraction(-3, 2)]), ShiftSigma(Fraction(2, 3)))]
    for spec in specs:
        b_dom, b_cod = 3, 3 + spec.n + 1
        for variant in ("homology", "cohomology"):
            kind = ComplexKind(variant, Torus(w))
            for p in range(5):
                got = assemble_total_matrix(spec, kind, p, b_dom, b_cod)
                assert got.rows == _reference_total_matrix(spec, kind, p, b_dom, b_cod), \
                    (spec, variant, p)


def _fraction_rank(rows) -> int:
    """Rank by Gauss-Jordan elimination on `Fraction`s: the reference the
    oracle's fraction-free ranks are checked against."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / top[col]
                work[i] = [a - f * b for a, b in zip(work[i], top)]
        rank += 1
    return rank


@pytest.mark.parametrize("w", [None, Fraction(-1)], ids=["Q", "-1"])
def test_normal_form_cells_are_ints(suite, w):
    """Over Q and for w = -1 every cell the oracle assembles on the
    integral normal form is a plain int, in degrees 0..3 and both variants."""
    for spec in suite:
        normal = cx._normalized(spec)
        for variant in ("homology", "cohomology"):
            kind = ComplexKind(variant, None if w is None else Torus(w))
            for p in range(4):
                tm = assemble_total_matrix(normal, kind, p, 3, 3 + normal.n + 1)
                assert all(type(v) is int for row in tm.rows for v in row), \
                    (spec.a, variant, p)


def _assert_exact_fraction_cells(spec, kind, degrees):
    """The maps out of `degrees` have int and `Fraction` cells, some of them
    not integers, equal to the term-by-term `Poly` reference, and each rank
    equals the `Fraction` reference rank."""
    fractional = False
    for p in degrees:
        b_dom, b_cod = 3, 3 + spec.n + 1
        tm = assemble_total_matrix(spec, kind, p, b_dom, b_cod)
        cells = [v for row in tm.rows for v in row]
        assert all(type(v) in (int, Fraction) for v in cells)
        fractional |= any(type(v) is Fraction and v.denominator != 1 for v in cells)
        assert tm.rows == _reference_total_matrix(spec, kind, p, b_dom, b_cod), (spec, p)
        assert tm.rank() == _fraction_rank(tm.rows), (spec, p)
    assert fractional


@pytest.mark.parametrize("w", [Fraction(1, 2), Fraction(2)], ids=["1/2", "2"])
@pytest.mark.parametrize("variant", ["homology", "cohomology"])
def test_rational_twist_with_fractional_powers_keeps_exact_cells(w, variant):
    """w^k folded into a block is not an integer for w = 1/2, nor for w = 2
    on the blocks of weight -1: those cells stay exact `Fraction`s, and the
    ranks are those of plain `Fraction` elimination."""
    kind = ComplexKind(variant, Torus(w))
    for a in ([0, -1, 0, 1], [-6, 1, 1], [0, 0, 2, 1]):
        _assert_exact_fraction_cells(cx._normalized(GWASpec(Poly(a), ShiftSigma(1))),
                                     kind, range(4))


@pytest.mark.parametrize("kind", [HOMOLOGY, COHOMOLOGY], ids=["homology", "cohomology"])
def test_assembly_off_the_normal_form_keeps_a_fractional_shift(kind):
    """Assembled directly on (a, h0) with h0 = 1/2, the shifts c = +-1/2
    stay `Fraction`s, and every rank is that of the normal form."""
    spec = GWASpec(Poly([Fraction(-1, 4), 0, 1]), ShiftSigma(Fraction(1, 2)))
    normal = cx._normalized(spec)
    _assert_exact_fraction_cells(spec, kind, range(1, 4))
    for p in range(4):
        b_dom, b_cod = 3, 3 + spec.n + 1
        assert (assemble_total_matrix(spec, kind, p, b_dom, b_cod).rank()
                == assemble_total_matrix(normal, kind, p, b_dom, b_cod).rank())
