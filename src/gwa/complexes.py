"""The resolution-based (co)homology oracle.

The free bimodule resolution of A has the shape A (x) Lambda^k V (x) A for
V = <e_x, e_y, e_h>, doubled into a two-parameter array whose rows carry a
Chevalley-Eilenberg-style differential and whose columns carry the vertical
maps written ".df" below.  Both families are stored at the bimodule level as
formal sums of terms u (x) e_J (x) v with u, v in A; the chain complexes
computing homology (coefficients acting through the bimodule) and cohomology
(Hom into the bimodule) are induced from the same tables, so a single
exactness check -- the assembled total differentials composing to zero --
guards every variant, twisted or not.

Everything is restricted to the weight-zero part, where each component is a
finite sum of copies of k[h]; the Euler homotopy (exposed as
`euler_homotopy_check`) is what justifies the restriction.

The oracle computes on the integral normal form.  The substitution
h = h0*t with the rescaling x -> lam*x identifies A(k[h], a, h - h0) with
A(k[t], b, t - 1), b = a(h0*t)/lam primitive in Z[t]
(`integral_normal_form`); `oracle_dims` and `row_homology_dims` rewrite
their spec to it once, after an exact check of lam*b(t) = a(h0*t).  Under
h^e = h0^e t^e each truncated matrix is a diagonal rescaling of the one of
(a, h0), so every rank, pivot column and stabilization history is the same.

Each block of an assembled matrix is an operator p |-> g(h) p(h - c)
between two copies of k[h]: c = k*h0 for the weight k of the factor acting
on the left, one of -1, 0 and 1 (checked in `_build_block_table`).  A torus
twist x -> w x, y -> w^{-1} y scales a term whose right factor has weight k
by w^k.  So assembly is a twist-free block table per algebra, variant and
degree, built once in integer `Poly` arithmetic on the normal form
(`_block_table`), and a fill at the bounds asked for that scales each
block by its w^k (`_fill`).  The block form makes d o d = 0 decidable on
the columns of degree at most `D_SQUARED_BOUND`, at every truncation at
once (`_check_d_squared`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

from .algebra import GWAElement, GWASpec, Torus, commutator
from .errors import HypothesisError, InputError, InternalConsistencyError
from .linalg import (
    Schedule,
    StabilizedDim,
    TruncatedMap,
    TruncatedSpace,
    _ring,
    compose_is_zero,
    homology_dim_at,
    rank_rows,
    stabilize,
)
from .poly import Poly, ShiftSigma, exact, gcd_monic, poly_xgcd, sigma_pow
from .scalars import Cyclotomic, field_order

GENERATORS = ("x", "y", "h")
GENERATOR_WEIGHTS = {"x": 1, "y": -1, "h": 0}

#: Wedge basis slots per exterior degree, in canonical x < y < h order.
BASIS = {
    0: ((),),
    1: (("x",), ("y",), ("h",)),
    2: (("x", "y"), ("x", "h"), ("y", "h")),
    3: (("x", "y", "h"),),
}


#: Largest |shift| c of a block p |-> g(h) p(h - c) of an assembled map:
#: the weight of the factor acting on the left, which is x, y or a
#: polynomial in h.  `_assemble` checks it on every block.
MAX_SHIFT = 1

#: Domain degree bound at which d o d = 0 is certified.  A block of d o d
#: is p |-> sum_s G_s(h) p(h - s) with |s| <= 2 * MAX_SHIFT, so it has at
#: most 2 * (2 * MAX_SHIFT) + 1 shifts.  If it kills 1, h, ...,
#: h^(2 * (2 * MAX_SHIFT)), every G_s is zero, because the matrix of the
#: (h - s)^e over k(h) is a Vandermonde matrix in distinct values.  So the
#: bound is 2 * (2 * MAX_SHIFT) = 4.
D_SQUARED_BOUND = 2 * (2 * MAX_SHIFT)


def slot_weight(slot: tuple) -> int:
    return sum(GENERATOR_WEIGHTS[v] for v in slot)


@dataclass(frozen=True)
class ComplexKind:
    """Which complex to build: homology or cohomology, optionally twisted by
    a diagonal (torus) automorphism."""

    variant: str  # "homology" | "cohomology"
    twist: Torus | None = None

    def __post_init__(self):
        if self.variant not in ("homology", "cohomology"):
            raise InputError(f"unknown variant {self.variant!r}")
        if self.twist is not None and not isinstance(self.twist, Torus):
            raise InputError("only diagonal (torus) twists are supported")

    @property
    def field_order(self) -> int | None:
        if self.twist is None:
            return None
        return field_order(self.twist.w)


HOMOLOGY = ComplexKind("homology")
COHOMOLOGY = ComplexKind("cohomology")


def _wedge(extra: str, slot: tuple):
    """Sign-normalized wedge e_extra ^ e_slot; None if the generator repeats."""
    if extra in slot:
        return None
    merged = (extra,) + slot
    order = {g: i for i, g in enumerate(GENERATORS)}
    sign = 1
    arranged = list(merged)
    for i in range(len(arranged)):
        for j in range(len(arranged) - 1 - i):
            if order[arranged[j]] > order[arranged[j + 1]]:
                arranged[j], arranged[j + 1] = arranged[j + 1], arranged[j]
                sign = -sign
    return sign, tuple(arranged)


def _eh_expansion(p: Poly, spec: GWASpec, left_shift: int = 0, right_shift: int = 0):
    """Terms of the noncommutative derivative of p along e_h.

    h^k expands to sum_{i=0}^{k-1} h^i (x) e_h (x) h^{k-i-1}; optional sigma
    powers are applied to the left/right polynomial factors.
    """
    s = spec.sigma
    terms = []
    for k in range(1, p.degree + 1):
        c = p[k]
        if not c:
            continue
        for i in range(k):
            left = Poly.monomial(i, c)
            right = Poly.monomial(k - i - 1)
            if left_shift:
                left = sigma_pow(left, left_shift, s)
            if right_shift:
                right = sigma_pow(right, right_shift, s)
            terms.append((spec.from_poly(left), spec.from_poly(right)))
    return terms


# The term tables are kept for one algebra: all the oracle calls of a job
# read those of the job's own normal form, and a larger cache would only
# keep the tables of finished jobs alive.
@lru_cache(maxsize=1)
def _dce_terms(spec: GWASpec):
    """Row differential at the bimodule level: slot -> [(u, target_slot, v)].

    The differential is the Chevalley-Eilenberg one for the generator triple,
    with bracket symbols taken from the actual relations: [x, y] = sigma(a)-a
    expanded along e_h, [x, h] = -h0 x, [y, h] = h0 y.
    """
    one = spec.one()
    h0 = exact(spec.sigma.h0)
    gens = {"x": spec.x(), "y": spec.y(), "h": spec.h()}
    sa_minus_a = sigma_pow(spec.a, 1, spec.sigma) - spec.a

    def bracket_terms(v1: str, v2: str):
        if (v1, v2) == ("x", "y"):
            return [(u, "h", v) for u, v in _eh_expansion(sa_minus_a, spec)]
        if (v1, v2) == ("x", "h"):
            return [(spec.from_poly(Poly.const(-h0)), "x", one)]
        if (v1, v2) == ("y", "h"):
            return [(spec.from_poly(Poly.const(h0)), "y", one)]
        raise InputError(f"no bracket for ({v1}, {v2})")

    table = {slot: [] for k in BASIS for slot in BASIS[k]}
    for k in (1, 2, 3):
        for slot in BASIS[k]:
            terms = []
            for pos, name in enumerate(slot):
                rest = slot[:pos] + slot[pos + 1:]
                sign = 1 if pos % 2 == 0 else -1
                terms.append((gens[name] * sign, rest, one))
                terms.append((one * (-sign), rest, gens[name]))
            for p1 in range(len(slot)):
                for p2 in range(p1 + 1, len(slot)):
                    bsign = -1 if (p1 + p2) % 2 == 1 else 1  # (-1)^{(p1+1)+(p2+1)}
                    rest = tuple(v for t, v in enumerate(slot) if t not in (p1, p2))
                    for u, w, v in bracket_terms(slot[p1], slot[p2]):
                        wedge = _wedge(w, rest)
                        if wedge is None:
                            continue
                        wsign, target = wedge
                        terms.append((u * (bsign * wsign), target, v))
            table[slot] = terms
    return table


@lru_cache(maxsize=1)
def _df_terms(spec: GWASpec):
    """Vertical differential at the bimodule level, raising the wedge degree.

    These are the free-resolution analogues of right multiplication by the
    extra relation, written out slot by slot; the assembled d o d = 0 checks
    pin the signs.
    """
    one = spec.one()
    a = spec.a
    table = {slot: [] for k in BASIS for slot in BASIS[k]}

    table[()] = (
        [(spec.y(), ("x",), one), (one, ("y",), spec.x())]
        + [(-u, ("h",), v) for u, v in _eh_expansion(a, spec)]
    )
    table[("x",)] = (
        [(-one, ("x", "y"), spec.x())]
        + [(u, ("x", "h"), v) for u, v in _eh_expansion(a, spec, left_shift=1)]
    )
    table[("y",)] = (
        [(spec.y(), ("x", "y"), one)]  # -y e_y^e_x reordered
        + [(u, ("y", "h"), v) for u, v in _eh_expansion(a, spec, right_shift=1)]
    )
    table[("h",)] = [
        (spec.y(), ("x", "h"), one),   # -y e_h^e_x reordered
        (one, ("y", "h"), spec.x()),   # -e_h^e_y x reordered
    ]
    table[("y", "h")] = [(spec.y(), ("x", "y", "h"), one)]
    table[("x", "h")] = [(-one, ("x", "y", "h"), spec.x())]
    table[("x", "y")] = [
        (-u, ("x", "y", "h"), v)
        for u, v in _eh_expansion(a, spec, left_shift=1, right_shift=1)
    ]
    return table


# Weight-zero spaces and induced matrices ------------------------------------


def spots(p: int):
    """(row, wedge degree) pairs contributing to total degree p = k + 2*row."""
    return [((p - k) // 2, k) for k in range(min(p, 3) + 1) if (p - k) % 2 == 0]


def _copy_index(kind_spots):
    out = {}
    c = 0
    for spot in kind_spots:
        _, k = spot
        for slot in BASIS[k]:
            out[(spot, slot)] = c
            c += 1
    return out, c


def _prefactor(spec: GWASpec, weight: int) -> GWAElement:
    if weight == 0:
        return spec.one()
    return spec.x() if weight > 0 else spec.y()


def _poly_at(value: GWAElement, weight: int) -> Poly:
    """Coefficient polynomial of a weight-homogeneous element at `weight`."""
    extra = [w for w in value.terms if w != weight]
    if extra:
        raise InternalConsistencyError(
            f"element {value} has unexpected weight components {extra}"
        )
    return value.coefficient(weight)


def _fill_block(rows, dom_space, cod_space, copy_dom, copy_cod, g_coeffs, c, s):
    """Add the block of p |-> s * g * p(h - c) between two k[h] copies, g the
    polynomial of the coefficients `g_coeffs` and s an element of the map's
    ring: an int over Z (folded into g), an int d-tuple over Z[zeta_m].

    Column e is the image of h^e, g * (h - c)^e, of degree deg(g) + e, each
    built from the previous one on plain coefficient lists: int arithmetic
    on the normal form, whatever the field.  Each value v is added into its
    cell as it is, or as the tuple v * s, coefficient by coefficient.
    """
    top = len(g_coeffs) - 1 + dom_space.degree_bound
    if top > cod_space.degree_bound:
        raise InternalConsistencyError(
            f"image degree {top} overflows codomain bound {cod_space.degree_bound}"
        )
    tupled = type(s) is tuple
    dom_copies, cod_copies = dom_space.copies, cod_space.copies
    cur = list(g_coeffs) if tupled else [v * s for v in g_coeffs]
    for e in range(dom_space.degree_bound + 1):
        if e and c:
            # Multiply by (h - c): new[i] = cur[i-1] - c * cur[i].
            cur = [-c * cur[0]] + [a - c * b for a, b in zip(cur, cur[1:])] + [cur[-1]]
        col = e * dom_copies + copy_dom
        # Without a shift, column e is g moved up by e degrees.
        for deg, v in enumerate(cur, 0 if c else e):
            if v:
                row = rows[deg * cod_copies + copy_cod]
                if tupled:
                    row[col] = tuple(map(add, row[col], map(v.__mul__, s)))
                else:
                    row[col] += v


def _element_weight(u: GWAElement) -> int:
    ws = u.weights()
    if len(ws) > 1:
        raise InternalConsistencyError(f"non-homogeneous factor {u}")
    return ws[0] if ws else 0


def assemble_total_matrix(spec: GWASpec, kind: ComplexKind, p: int,
                          b_dom: int, b_cod: int) -> TruncatedMap:
    """Weight-zero matrix of the total differential out of degree p.

    For the homology variant this is d_p : T_p -> T_{p-1}; for cohomology it
    is the cochain differential delta_p : C^p -> C^{p+1}.  The horizontal and
    vertical families anticommute, so no interleaving signs are needed.
    """
    return _assemble(spec, kind, spots, p, b_dom, b_cod)


def _assemble_single_row(spec: GWASpec, kind: ComplexKind, k: int,
                         b_dom: int, b_cod: int) -> TruncatedMap:
    """Row differential only (no vertical part) out of wedge degree k."""
    return _assemble(spec, kind, _row_spots, k, b_dom, b_cod)


def _row_spots(k: int):
    """The one spot of row 0 in wedge degree k; none outside 0..3."""
    return [(0, k)] if 0 <= k <= 3 else []


def _assemble(spec: GWASpec, kind: ComplexKind, spots_of, p: int,
              b_dom: int, b_cod: int) -> TruncatedMap:
    """Weight-zero matrix of the differential out of degree p, from the sum
    of the components at `spots_of(p)` to those at `spots_of(p - 1)`
    (homology) or `spots_of(p + 1)` (cohomology), at bounds (b_dom, b_cod):
    the twist-free block table of `spec` (`_block_table`), filled with the
    twist of `kind` (`_fill`)."""
    return _fill(_block_table(spec, kind.variant, spots_of, p), kind, b_dom, b_cod)


# The block tables are kept for one algebra, like the term tables: a job's
# oracle calls all read its own normal form, whatever the twist and bounds.
@lru_cache(maxsize=1)
def _block_tables(spec: GWASpec) -> dict:
    return {}


def _block_table(spec: GWASpec, variant: str, spots_of, p: int):
    """(domain copies, codomain copies, blocks, over_z) of the differential
    out of degree p, for every twist and bound: `blocks` maps (copy_dom,
    copy_cod, c, weight) to g's coefficients in p |-> w^weight g(h) p(h - c),
    all ints if `over_z`.  Built once per key, for the last algebra only."""
    tables = _block_tables(spec)
    key = (variant, spots_of, p)
    if key not in tables:
        tables[key] = _build_block_table(spec, variant, spots_of, p)
    return tables[key]


def _build_block_table(spec: GWASpec, variant: str, spots_of, p: int):
    """`_block_table(spec, variant, spots_of, p)`, built.

    The routes out of a spot (i, k) are the row differential to (i, k-1) and
    the vertical one to (i-1, k+1); row 0 has no vertical route, so a single
    row's spots give the row differential alone.

    The terms that meet in one pair of copies, with the same shift and the
    same twist weight, act through one polynomial: their sum, which is
    filled once.  A shift beyond `MAX_SHIFT` raises
    `InternalConsistencyError`: the d o d certificate assumes none.  On an
    integral spec (h0 = 1 and a in Z[t]), as the oracle's normal form is,
    every product is int arithmetic, and a coefficient that is not an int
    raises `InternalConsistencyError`.
    """
    homology = variant == "homology"
    dom_map, dom_copies = _copy_index(spots_of(p))
    cod_map, cod_copies = _copy_index(spots_of(p - 1 if homology else p + 1))
    dce = _dce_terms(spec)
    df = _df_terms(spec)
    # The coefficients are A with the left action untwisted and the right
    # one through the twist: b |> m <| c = b m g(c).  Homology reads the
    # routes from the domain's spots: m (x) (u e_J v) |-> (v |> m <| u) (x) e_J.
    # Cohomology reads them from the codomain's, as delta f = f o D, and
    # finds the domain slots feeding each: (delta f)(u e_I v) = u |> f(e_I) <| v.
    # The torus g scales c of weight k by w^k, so m <| c = w^k (m c): the
    # products run untwisted and w^k is the block's scalar.
    sign = -1 if homology else 1
    here, there = (dom_map, cod_map) if homology else (cod_map, dom_map)
    sums: dict[tuple, Poly] = {}
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
                    left, right, dom_slot, cod_slot = v, u, slot, route_slot
                    copy_dom, copy_cod = copy, other
                else:
                    left, right, dom_slot, cod_slot = u, v, route_slot, slot
                    copy_dom, copy_cod = other, copy
                pref = _prefactor(spec, sign * slot_weight(dom_slot))
                g_poly = _poly_at(left * pref * right, sign * slot_weight(cod_slot))
                shift = _element_weight(left)
                if abs(shift) > MAX_SHIFT:
                    raise InternalConsistencyError(
                        f"block shift {shift} exceeds the certified bound {MAX_SHIFT}"
                    )
                key = (copy_dom, copy_cod, shift, _element_weight(right))
                sums[key] = sums[key] + g_poly if key in sums else g_poly
    h0 = exact(spec.sigma.h0)
    blocks = {(copy_dom, copy_cod, shift * h0, weight): g_poly.coeffs
              for (copy_dom, copy_cod, shift, weight), g_poly in sums.items() if g_poly}
    over_z = {type(v) for (*_, c, _), g in blocks.items() for v in (c, *g)} <= {int}
    if h0 == 1 and all(type(c) is int for c in spec.a.coeffs) and not over_z:
        raise InternalConsistencyError(
            f"the block table of the integral spec {spec} is not over Z")
    return dom_copies, cod_copies, blocks, over_z


def _fill(table, kind: ComplexKind, b_dom: int, b_cod: int) -> TruncatedMap:
    """The map of the block table `table` under the twist of `kind`,
    truncated at domain and codomain degree bounds (b_dom, b_cod).

    On a table over Z (the normal form's) with w a unit (-1 or a root of
    unity, as on every CLI run), each w^k is a ring element (`_units`) and
    the cells are written as ring elements: no `Cyclotomic` or `Fraction`
    is built.  Otherwise (w = 2 or 1/2, or off the normal form) the blocks
    fill field scalars, which the public `TruncatedMap` clears by one lcm.
    """
    dom_copies, cod_copies, blocks, over_z = table
    order, twist, ring = kind.field_order, kind.twist, _ring(kind.field_order)
    dom_space = TruncatedSpace(order, dom_copies, b_dom)
    cod_space = TruncatedSpace(order, cod_copies, b_cod)
    units = dict.fromkeys((-1, 0, 1), ring.one) if twist is None else _units(ring, twist.w)
    integral = over_z and units is not None and all(weight in units for *_, weight in blocks)
    rows = [[ring.zero if integral else 0] * dom_space.dim for _ in range(cod_space.dim)]
    for (copy_dom, copy_cod, c, weight), g_coeffs in blocks.items():
        if not integral and twist is not None:
            g_coeffs = [v * twist.w ** weight for v in g_coeffs]
        _fill_block(rows, dom_space, cod_space, copy_dom, copy_cod, g_coeffs, c,
                    units[weight] if integral else 1)
    return (TruncatedMap._of if integral else TruncatedMap)(dom_space, cod_space, rows)


def _units(ring, w) -> dict | None:
    """{k: w^k} for k = -1, 0, 1 in `ring` if w is a unit of it, else None:
    1/w is w's cofactor beyond Z, where norms are positive, and w in Z."""
    coeffs = w.coeffs if isinstance(w, Cyclotomic) else (w,)
    q = coeffs[0].numerator if ring.degree == 1 else tuple(v.numerator for v in coeffs)
    if any(v.denominator != 1 for v in coeffs) or abs(ring.norm(q, ring.cofactor(q))) != 1:
        return None
    return {-1: q if ring.degree == 1 else ring.cofactor(q), 0: ring.one, 1: q}


def _check_d_squared(kind: ComplexKind, pairs, map_out, margin: int) -> None:
    """Exact d o d = 0 for each pair (q, source) of `pairs`: the map out of
    q after the map out of source, certified once for every truncation
    bound.

    `map_out(q, b_dom)` is the map out of degree q at bounds
    (b_dom, b_dom + margin).  Each product takes the inner map at domain
    bound B = `D_SQUARED_BOUND` and the outer one at B + margin.  The
    assembly's overflow check bounds every block's polynomial degree by the
    margin, so these slices hold the whole images of the domain columns of
    degree <= B, and the product is the composite on them, exactly.  A
    block of d o d is sum_s G_s(h) p(h - s) over at most B + 1 shifts s (the
    `_assemble` guard), so if it kills 1, h, ..., h^B, then every G_s = 0
    and it is zero at every bound (see `D_SQUARED_BOUND`).

    The certificate trusts the block form: a corruption of the matrices
    that bypasses `_fill_block` and lies only in columns of degree > B is
    not seen.  The first nonzero product raises `InternalConsistencyError`.
    """
    bound = D_SQUARED_BOUND
    for q, source in pairs:
        if not compose_is_zero(map_out(q, bound + margin), map_out(source, bound)):
            raise InternalConsistencyError(
                f"d o d != 0 at the maps out of {source} and {q} "
                f"({kind.variant}, twist={kind.twist})"
            )


def integral_normal_form(spec: GWASpec) -> tuple[GWASpec, Fraction]:
    """The algebra A(k[t], b, t - 1) isomorphic to `spec`, and the scalar lam.

    The substitution h = h0*t with the rescaling x -> lam*x identifies
    A(k[h], a, h - h0) with it for b(t) = a(h0*t)/lam.  lam is the content
    of a(h0*t), signed so that b is primitive in Z[t] with a positive
    leading coefficient.  n and d are those of a.
    """
    if any(isinstance(c, Cyclotomic) for c in spec.a.coeffs):
        raise HypothesisError(f"the oracle needs a rational polynomial a, got {spec.a}")
    h0 = spec.sigma.h0
    scaled = [c * h0 ** i for i, c in enumerate(spec.a.coeffs)]
    lam = Fraction(gcd(*(c.numerator for c in scaled)),
                   lcm(*(c.denominator for c in scaled)))
    if scaled[-1] < 0:
        lam = -lam
    return GWASpec(Poly([c / lam for c in scaled]), ShiftSigma(1)), lam


def _normalized(spec: GWASpec) -> GWASpec:
    """`integral_normal_form(spec)`, checked exactly: h0 = 1, b primitive in
    Z[t] with a positive leading coefficient, and lam*b(t) = a(h0*t), the
    right side by Horner's rule."""
    normal, lam = integral_normal_form(spec)
    b = normal.a
    if not (normal.sigma.h0 == 1
            and all(c.denominator == 1 for c in b.coeffs)
            and gcd(*(c.numerator for c in b.coeffs)) == 1 and b.leading() > 0
            and b * lam == spec.a.compose_affine(spec.sigma.h0, 0)):
        raise InternalConsistencyError(
            f"{normal} with lam={lam} is not the integral normal form of {spec}"
        )
    return normal


def oracle_dims(spec: GWASpec, kind: ComplexKind, p_max: int = 5,
                schedule: Schedule | None = None) -> list[StabilizedDim]:
    """Stabilized (co)homology dimensions in degrees 0..p_max.

    The complex is that of the total differentials out of degrees
    0..p_max+1 in homology and -1..p_max in cohomology (the map out of -1
    has no columns), assembled on the integral normal form of `spec`; see
    `_stabilized_homology` for how each D is evaluated.  A call that
    stabilizes at its second D assembles each of these degrees once.
    """
    if schedule is None:
        schedule = Schedule.default(spec.n)
    spec = _normalized(spec)
    return _stabilized_homology(
        kind,
        lambda q, b_dom, b_cod: assemble_total_matrix(spec, kind, q, b_dom, b_cod),
        p_max + 1, schedule, spec.n + 1)


def row_homology_dims(spec: GWASpec, kind: ComplexKind,
                      schedule: Schedule | None = None):
    """Stabilized row (E1-level) dimensions at the four wedge positions.

    The complex is that of the row differentials out of wedge degrees
    0..4 in homology and -1..3 in cohomology (those out of 4 and -1 have no
    columns), assembled on the integral normal form and evaluated as in
    `oracle_dims` (see `_stabilized_homology`).

    Positions follow the tensor-factor indexing of the row complexes: for the
    homology variant position j is the Lambda^j spot; for cohomology the
    functional at Hom(Lambda^k) is reported at position j = 3 - k, matching
    the duality pairing that turns those functionals into wedge coefficients.
    """
    if schedule is None:
        schedule = Schedule.default(spec.n)
    spec = _normalized(spec)
    dims = _stabilized_homology(
        kind,
        lambda k, b_dom, b_cod: _assemble_single_row(spec, kind, k, b_dom, b_cod),
        4, schedule, spec.n + 1)
    return dims if kind.variant == "homology" else dims[::-1]


def _stabilized_homology(kind: ComplexKind, assemble, reported: int,
                         schedule: Schedule, margin: int) -> list[StabilizedDim]:
    """Stabilized (co)homology in degrees 0..reported-1 of the complex whose
    map out of degree q is `assemble(q, b_dom, b_cod)`.

    The value in degree q reads the pair (q, source): the maps out of q and
    out of source, the degree whose map lands in q (q+1 in homology, q-1 in
    cohomology).  One list of these pairs drives the evaluation and the
    d o d check.  A source with no components (degree -1 in cohomology,
    wedge degree 4 of the rows in homology) is assembled like any other
    degree, into a map with no columns, so it gives no boundaries.

    At each truncation bound D the value in degree q is `homology_dim_at`
    of the map out of q (domain bound D, with margin on the codomain so
    kernels are genuine) and the map out of its source on a larger domain:
    the nullity of the first, less the rank of the second, plus the rank of
    its rows above degree D.  The schedule raises D until the whole
    dimension vector repeats.

    The truncations nest: in degree-major order the matrix at smaller
    bounds is the top-left block of the matrix at larger ones.  So each
    degree is assembled once, at the bounds that the schedule's next D
    needs, and every matrix an evaluation uses is sliced from that assembly
    by `TruncatedMap.truncate`, which checks exactly that the cut drops only
    zeros.  A degree is assembled again only when a slice outgrows it.

    The d o d = 0 check, which `homology_dim_at` relies on, runs once per
    call, before the first `homology_dim_at`, on the same pairs, at the
    small bound `D_SQUARED_BOUND` that certifies it for every D
    (`_check_d_squared`).  Its maps are slices of the first D's assemblies;
    a degree is assembled at the certificate's bounds only if its first
    assembly is smaller than them.

    The check also makes each slice's rank a count of the assembly's pivot
    columns (`TruncatedMap.rank`), so each ranked assembly is eliminated
    once.  Only the ranks of N_top take an elimination per D.
    """
    assembled: dict[int, TruncatedMap] = {}
    step = 1 if kind.variant == "homology" else -1
    pairs = [(q, q + step) for q in range(reported)]
    checked = False

    def sliced(q: int, b_dom: int, reach: int) -> TruncatedMap:
        big = assembled.get(q)
        if big is None or big.domain.degree_bound < b_dom:
            big = assemble(q, reach + margin, reach + 2 * margin)
            assembled[q] = big
        return big.truncate(b_dom, b_dom + margin)

    def evaluate(d: int):
        nonlocal checked
        reach = schedule.lookahead(d)
        maps = [(sliced(q, d, reach), sliced(source, d + margin, reach))
                for q, source in pairs]
        if not checked:
            _check_d_squared(kind, pairs,
                             lambda q, b_dom: sliced(q, b_dom, D_SQUARED_BOUND), margin)
            checked = True
        return tuple(homology_dim_at(out, into) for out, into in maps)

    values, at, history = stabilize(evaluate, schedule)
    return [
        StabilizedDim(v, at, tuple((dd, vals[q]) for dd, vals in history))
        for q, v in enumerate(values)
    ]


# Diagnostics beyond the dimension tables ------------------------------------


def bezout_witness(a: Poly, s: ShiftSigma):
    """Solution (alpha, beta, gamma) of (sigma^{-1}(alpha) - beta) a
    - sigma^{-1}(gamma) a' = 1, or None when gcd(a, a') != 1."""
    g, p, q = poly_xgcd(a, a.derivative())
    if g.degree != 0:
        return None
    alpha = Poly()
    beta = -p
    gamma = -sigma_pow(q, 1, s)
    return alpha, beta, gamma


def bezout_d2_test(a: Poly, s: ShiftSigma) -> bool:
    """Whether the degree-two comparison map is onto: true iff gcd(a, a') = 1.

    When true, an explicit witness from the extended Euclidean algorithm is
    verified by substitution before reporting success.
    """
    if a.is_constant():
        raise HypothesisError("a must be non-constant")
    witness = bezout_witness(a, s)
    coprime = gcd_monic(a, a.derivative()).degree == 0
    if witness is None:
        return False
    if not coprime:
        raise InternalConsistencyError("witness exists but gcd is non-trivial")
    alpha, beta, gamma = witness
    lhs = (sigma_pow(alpha, -1, s) - beta) * a - sigma_pow(gamma, -1, s) * a.derivative()
    if lhs != Poly.const(1):
        raise InternalConsistencyError(f"witness fails: got {lhs}")
    return True


def _chain_dce(spec: GWASpec, chain: dict) -> dict:
    """Row differential on a full (untruncated, all-weight) chain."""
    dce = _dce_terms(spec)
    out: dict = {}
    for slot, m in chain.items():
        for u, target, v in dce[slot]:
            value = v * m * u
            if value.is_zero():
                continue
            out[target] = out.get(target, spec.zero()) + value
    return {k: v for k, v in out.items() if not v.is_zero()}


def _chain_insert_h(spec: GWASpec, chain: dict) -> dict:
    """The homotopy: minus the wedge with e_h on the left, sign-normalized."""
    out: dict = {}
    for slot, m in chain.items():
        wedge = _wedge("h", slot)
        if wedge is None:
            continue
        sign, target = wedge
        term = m * (-sign)
        out[target] = out.get(target, spec.zero()) + term
    return {k: v for k, v in out.items() if not v.is_zero()}


def _chain_scale(chain: dict, c) -> dict:
    return {k: v * c for k, v in chain.items() if not (v * c).is_zero()}


def _chain_add(spec: GWASpec, c1: dict, c2: dict) -> dict:
    out = dict(c1)
    for k, v in c2.items():
        out[k] = out.get(k, spec.zero()) + v
    return {k: v for k, v in out.items() if not v.is_zero()}


def euler_homotopy_check(spec: GWASpec, samples: int = 50, seed: int = 0) -> bool:
    """Verify (d s + s d)(c) = h0 * weight(c) * c on random homogeneous chains.

    s is the e_h-insertion homotopy; the identity (with the h0 factor, which
    is 1 in the classical normalization) is what makes the Euler map an
    isomorphism on nonzero weights and justifies the weight-zero reduction.
    """
    rng = random.Random(seed)
    h0 = spec.sigma.h0
    for _ in range(samples):
        k = rng.randint(0, 3)
        slot = BASIS[k][rng.randint(0, len(BASIS[k]) - 1)]
        w = rng.randint(-3, 3)
        deg = rng.randint(0, 3)
        p = Poly([Fraction(rng.randint(-4, 4)) for _ in range(deg)] + [Fraction(1)])
        m = spec.monomial(w, p)
        chain = {slot: m}
        weight = w + slot_weight(slot)
        lhs = _chain_add(
            spec,
            _chain_dce(spec, _chain_insert_h(spec, chain)),
            _chain_insert_h(spec, _chain_dce(spec, chain)),
        )
        rhs = _chain_scale(chain, h0 * weight)
        if lhs != rhs:
            return False
    return True


def center_dim(spec: GWASpec, schedule: Schedule | None = None) -> StabilizedDim:
    """Dimension of weight-zero elements commuting with x, y and h (expect 1)."""
    if schedule is None:
        schedule = Schedule.default(spec.n)
    x, y, h = spec.x(), spec.y(), spec.h()

    def evaluate(d: int) -> int:
        rows = [[Fraction(0)] * (d + 1) for _ in range(3 * (d + 1))]
        for j in range(d + 1):
            p = spec.from_poly(Poly.monomial(j))
            for block, gen in enumerate((x, y, h)):
                com = commutator(p, gen)
                for w, poly in com.terms.items():
                    for deg, c in enumerate(poly.coeffs):
                        if c:
                            rows[block * (d + 1) + deg][j] += c
        return (d + 1) - rank_rows(rows, d + 1, None)

    value, at, history = stabilize(evaluate, schedule)
    return StabilizedDim(value, at, tuple(history))
