import sys
from fractions import Fraction

import pytest
from conftest import field_matrix

from gwa._cyclotomic_ring import CyclotomicIntegers
from gwa.algebra import GWASpec, Torus, apply_automorphism
import gwa.complexes
from gwa.complexes import (
    COHOMOLOGY,
    D_SQUARED_BOUND,
    HOMOLOGY,
    ComplexKind,
    _assemble_single_row,
    assemble_total_matrix,
    bezout_d2_test,
    bezout_witness,
    center_dim,
    euler_homotopy_check,
    integral_normal_form,
    oracle_dims,
    row_homology_dims,
)
from gwa.errors import HypothesisError, InputError, InternalConsistencyError
from gwa.formulas import coh_dims, hh_dims, twisted_dims
from gwa.linalg import (
    Schedule,
    TruncatedMap,
    TruncatedSpace,
    _kernels,
    compose_is_zero,
    rank_rows,
)
from gwa.poly import Poly, ShiftSigma, gcd_monic, sigma_pow
from gwa.scalars import Cyclotomic, zeta

H = Poly.gen()
WEYL = GWASpec(H, ShiftSigma(1))
CUBIC = GWASpec(H ** 3, ShiftSigma(1))
SQFREE = GWASpec(Poly([-1, 0, 1]), ShiftSigma(1))


def dims(stabs):
    return [int(v) for v in stabs]


def _filled(dom_copies, cod_copies, b_dom, b_cod, blocks, order=None):
    """Expected matrix built from per-(src copy, dst copy) polynomial maps."""
    dom = TruncatedSpace(order, dom_copies, b_dom)
    cod = TruncatedSpace(order, cod_copies, b_cod)
    rows = [[Fraction(0)] * dom.dim for _ in range(cod.dim)]
    for src, dst, func in blocks:
        for e in range(b_dom + 1):
            img = func(Poly.monomial(e))
            for deg, c in enumerate(img.coeffs):
                if c:
                    rows[cod.index(deg, dst)][dom.index(e, src)] += c
    return TruncatedMap(dom, cod, rows)


@pytest.mark.parametrize("spec", [WEYL, CUBIC, GWASpec(Poly([-2, 0, 1]), ShiftSigma(2)),
                                  GWASpec(Poly([0, -1, 0, 1]), ShiftSigma(Fraction(1, 2)))])
def test_row_differentials_match_displayed_formulas(spec):
    """The assembled weight-zero row maps agree entry by entry with the
    closed formulas for the three homology rows (global sign +1)."""
    s = spec.sigma
    a = spec.a
    n = spec.n
    b_dom, b_cod = 8, 8 + n + 1

    def sg(p, k=1):
        return sigma_pow(p, k, s)

    # wedge degree 1 -> 0: slots (x: s0), (y: t), (h: u)
    got = _assemble_single_row(spec, HOMOLOGY, 1, b_dom, b_cod)
    want = _filled(3, 1, b_dom, b_cod, [
        (0, 0, lambda p: p * a - sg(p * a)),
        (1, 0, lambda p: sg(sg(p, -1) * a) - sg(p, -1) * a),
    ])
    assert got.rows == want.rows

    # wedge degree 2 -> 1: slots (xy: p), (xh: q), (yh: r) -> (x, y, h)
    da = sg(a.derivative()) - a.derivative()
    got = _assemble_single_row(spec, HOMOLOGY, 2, b_dom, b_cod)
    want = _filled(3, 3, b_dom, b_cod, [
        (0, 0, lambda p: sg(p, -1) - p),
        (0, 1, lambda p: p - sg(p)),
        (0, 2, lambda p: -p * da),
        (1, 2, lambda q: q * a - sg(q * a)),
        (2, 2, lambda r: sg(sg(r, -1) * a) - sg(r, -1) * a),
    ])
    assert got.rows == want.rows

    # wedge degree 3 -> 2: slot (xyh: w) -> (xy, xh, yh)
    got = _assemble_single_row(spec, HOMOLOGY, 3, b_dom, b_cod)
    want = _filled(1, 3, b_dom, b_cod, [
        (0, 1, lambda w: -(w - sg(w, -1))),
        (0, 2, lambda w: w - sg(w)),
    ])
    assert got.rows == want.rows


@pytest.mark.parametrize("w", [Fraction(-1), Fraction(2), zeta(4)])
def test_twisted_row_differentials_match_displayed_formulas(w):
    """Twisted cochain rows against the displayed formulas, translated
    through the duality pairing; global signs recorded: +1 in degree one,
    -1 in degree three."""
    spec = GWASpec(Poly([-2, 0, 1]), ShiftSigma(1))
    s, a, n = spec.sigma, spec.a, spec.n
    order = None if isinstance(w, Fraction) else w.order
    kind = ComplexKind("cohomology", Torus(w))
    b_dom, b_cod = 8, 8 + n + 1
    winv = 1 / w if isinstance(w, Fraction) else w.inverse()

    def sg(p, k=1):
        return sigma_pow(p, k, s)

    # Hom(L^1) -> Hom(L^2): domain slots (x: t~, y: s~, h: u~),
    # target slots (xy, xh, yh); dictionary t = t~, v = -s~, u = u~.
    got = _assemble_single_row(spec, kind, 1, b_dom, b_cod)
    da = sg(a.derivative()) - a.derivative()
    want = _filled(3, 3, b_dom, b_cod, [
        (0, 0, lambda t: t * sg(a) * winv - sg(t, -1) * a),
        (1, 0, lambda sq: -(sg(-sq * a) - (-sq) * a * w)),
        (2, 0, lambda u: -u * da),
        (2, 1, lambda u: sg(u) - u * w),
        (2, 2, lambda u: sg(u, -1) - u * winv),
    ], order=order)
    assert got.rows == want.rows

    # Hom(L^2) -> Hom(L^3): pairing dictionary reads the functionals as
    # p = f(e_yh)-poly, q = -f(e_xh)-poly, r = f(e_xy); against the closed
    # formula (sigma - w.Id)((w^{-1} sigma^{-1}(q) - p) a) the assembled map
    # is off by the single global sign recorded here.
    got = _assemble_single_row(spec, kind, 2, b_dom, b_cod)
    GLOBAL_SIGN_DEGREE_3 = -1

    def shift_minus_w(p):
        return sg(p) - p * w

    want = _filled(3, 1, b_dom, b_cod, [
        (1, 0, lambda q: GLOBAL_SIGN_DEGREE_3 * shift_minus_w(sg(-q, -1) * a * winv)),
        (2, 0, lambda p: GLOBAL_SIGN_DEGREE_3 * shift_minus_w(-p * a)),
    ], order=order)
    assert got.rows == want.rows


def test_d_compose_d_zero_all_kinds():
    """The oracle's exact d o d = 0 certificate, at degree bound 4, on the
    maps out of degrees 0..4; a nonzero product raises."""
    specs = [WEYL, SQFREE, GWASpec(Poly([0, 0, 1]), ShiftSigma(Fraction(1, 2)))]
    kinds = [HOMOLOGY, COHOMOLOGY,
             ComplexKind("homology", Torus(Fraction(-1))),
             ComplexKind("cohomology", Torus(zeta(3)))]
    for spec in specs:
        for kind in kinds:
            assert len(oracle_dims(spec, kind, 3, Schedule(start=10))) == 4


def _product_is_zero(outer: TruncatedMap, inner: TruncatedMap) -> bool:
    """outer o inner = 0, as a plain product of the cells in the field."""
    inner_rows = [[(t, v) for t, v in enumerate(row) if v] for row in field_matrix(inner)]
    for row in field_matrix(outer):
        acc = {}
        for j, c in enumerate(row):
            if c:
                for t, v in inner_rows[j]:
                    acc[t] = c * v + acc.get(t, 0)
        if any(acc.values()):
            return False
    return True


def _oracle_pairs(kind, p_max):
    """The (q, source) pairs that the oracle's dimensions in degrees
    0..p_max read: the map out of q and the one into q, out of q+1 in
    homology and q-1 in cohomology."""
    step = 1 if kind.variant == "homology" else -1
    return [(q, q + step) for q in range(p_max + 1)]


def _complex_pairs(kind, p_max):
    """The (outer, inner) pairs of consecutive maps out of degrees
    0..p_max+1."""
    return [(q, q + 1) if kind.variant == "homology" else (q + 1, q)
            for q in range(p_max + 1)]


def _full_size_d_squared_is_zero(spec, kind, pairs):
    """The reference: d o d = 0 for each (outer, inner) pair of degrees, on
    the full matrices of the default schedule's first D, the inner maps at
    bounds (D, D + m) and the outer ones at (D + m, D + 2m), on the integral
    normal form."""
    normal, _ = integral_normal_form(spec)
    d, m = Schedule.default(spec.n).start, spec.n + 1
    assemble = gwa.complexes.assemble_total_matrix  # as the oracle looks it up
    for outer, inner in pairs:
        if not _product_is_zero(assemble(normal, kind, outer, d + m, d + 2 * m),
                                assemble(normal, kind, inner, d, d + m)):
            return False
    return True


@pytest.mark.parametrize("w, n_max", [(None, 5), (Fraction(-1), 5), (zeta(3), 5), (zeta(5), 2)],
                         ids=["Q", "w=-1", "zeta3", "zeta5"])
def test_full_size_d_squared_is_zero_at_the_first_d(suite, w, n_max):
    """The product that the certificate at degree bound 4 replaced, on the
    full matrices of the first D, is still zero, for the maps out of
    degrees 0..3, one degree past those the oracle reads in cohomology.
    (The certificate itself runs on these polynomials in every oracle test
    and criterion.)"""
    for variant in ("homology", "cohomology"):
        kind = ComplexKind(variant, None if w is None else Torus(w))
        for spec in suite:
            if spec.n <= n_max:
                pairs = _complex_pairs(kind, 2)
                assert _full_size_d_squared_is_zero(spec, kind, pairs), (spec.a, variant)


class _Certified(Exception):
    """Raised in place of the first `homology_dim_at`: the d o d check passed."""


def _faulted_block_runs(monkeypatch, spec, kind, p_max, fault):
    """For no fault (the key None) and for each block of the maps that the
    oracle reads, in fill order: whether the oracle's certificate and the
    full-size reference, on the oracle's pairs, each pass when that one
    block is faulted.  The fault "shift" fills the block with its shift c
    replaced by c + 1 (in `_fill_block`); the fault "entry" adds 1 to the
    constant coefficient of its entry in the block table (in a copy of what
    `_block_table` returns, so the cached table stays whole)."""
    real_assemble, real_fill = gwa.complexes.assemble_total_matrix, gwa.complexes._fill_block
    real_table = gwa.complexes._block_table
    state = {"target": None}

    def assemble(spec, kind, p, b_dom, b_cod):
        state["block"] = [p, 0]
        return real_assemble(spec, kind, p, b_dom, b_cod)

    def fill(rows, dom, cod, copy_dom, copy_cod, g_coeffs, c, s):
        if fault == "shift" and tuple(state["block"]) == state["target"]:
            c += 1
        state["block"][1] += 1
        real_fill(rows, dom, cod, copy_dom, copy_cod, g_coeffs, c, s)

    def table(spec, variant, spots_of, p):
        dom_copies, cod_copies, blocks, over_z = real_table(spec, variant, spots_of, p)
        target = state["target"]
        if fault == "entry" and target is not None and target[0] == p:
            blocks = dict(blocks)
            key = list(blocks)[target[1]]
            g = blocks[key]
            blocks[key] = (g[0] + 1,) + g[1:]
        return dom_copies, cod_copies, blocks, over_z

    def certified(dp, dnext):
        raise _Certified

    monkeypatch.setattr(gwa.complexes, "assemble_total_matrix", assemble)
    monkeypatch.setattr(gwa.complexes, "_fill_block", fill)
    monkeypatch.setattr(gwa.complexes, "_block_table", table)
    monkeypatch.setattr(gwa.complexes, "homology_dim_at", certified)
    pairs = _oracle_pairs(kind, p_max)
    targets = [None]
    for p in sorted({q for pair in pairs for q in pair}):
        assemble(spec, kind, p, 0, spec.n + 1)
        targets += [(p, j) for j in range(state["block"][1])]
    runs = {}
    for state["target"] in targets:
        try:
            oracle_dims(spec, kind, p_max)
        except _Certified:
            passed = True
        except InternalConsistencyError as exc:
            assert "d o d" in str(exc)
            passed = False
        runs[state["target"]] = (passed, _full_size_d_squared_is_zero(spec, kind, pairs))
    return runs


@pytest.mark.parametrize("kind", [HOMOLOGY, COHOMOLOGY], ids=["homology", "cohomology"])
def test_certificate_misses_no_block_fault_the_full_size_check_catches(monkeypatch, kind):
    """A wrong shift in one block of `_fill_block` bypasses the
    `_block_table` guard and breaks the lemma's hypothesis.  On h^3 - h at
    p_max 2, over every block of every degree the oracle reads, the
    certificate catches exactly the faults that the full-size products of
    the same pairs at the first D catch; with no fault both pass."""
    spec = GWASpec(Poly([0, -1, 0, 1]), ShiftSigma(1))
    runs = _faulted_block_runs(monkeypatch, spec, kind, 2, "shift")
    caught = [block for block, (passed, _) in runs.items() if not passed]
    assert runs[None] == (True, True) and caught
    assert [block for block, (passed, reference) in runs.items() if passed != reference] == []


@pytest.mark.parametrize("kind", [HOMOLOGY, COHOMOLOGY], ids=["homology", "cohomology"])
def test_certificate_misses_no_table_fault_the_full_size_check_catches(monkeypatch, kind):
    """A wrong coefficient in one entry of the cached block table reaches
    every fill of that degree.  On h^3 - h at p_max 2, over every entry of
    every degree the oracle reads, the certificate catches exactly the
    faults that the full-size products at the first D catch, and it catches
    each of them here; with no fault both pass."""
    spec = GWASpec(Poly([0, -1, 0, 1]), ShiftSigma(1))
    runs = _faulted_block_runs(monkeypatch, spec, kind, 2, "entry")
    assert runs.pop(None) == (True, True)
    assert runs and all(not passed for passed, _ in runs.values())
    assert [block for block, (passed, reference) in runs.items() if passed != reference] == []


def _central_difference(bound: int) -> TruncatedMap:
    """p |-> p(h + 1) - 2 p(h) + p(h - 1) on k[h] at degree bound `bound`:
    three blocks with the shifts -1, 0 and 1, each scaled by 1, the one
    of Z."""
    space = TruncatedSpace(None, 1, bound)
    rows = [[0] * space.dim for _ in range(space.dim)]
    for g, c in ((1, -1), (-2, 0), (1, 1)):
        gwa.complexes._fill_block(rows, space, space, 0, 0, (g,), c, 1)
    return TruncatedMap(space, space, rows)


def test_the_certificate_bound_is_tight():
    """The square of the central difference, the fourth one, has shifts
    -2..2 and kills 1, h, h^2 and h^3 but not h^4: a certificate below
    degree bound 4 would pass a nonzero d o d of this form."""
    below = _central_difference(D_SQUARED_BOUND - 1)
    assert compose_is_zero(below, below)
    at = _central_difference(D_SQUARED_BOUND)
    assert not compose_is_zero(at, at)


def _add_a_term_of_shift_two(monkeypatch):
    """Add to the row differential out of e_x the terms y (x) x^2 and
    x^2 (x) y: weight-balanced, with a factor of weight 2 on either side."""
    real = gwa.complexes._dce_terms

    def widened(spec):
        table = dict(real(spec))
        x, y = spec.x(), spec.y()
        table[("x",)] = table[("x",)] + [(y, (), x * x), (x * x, (), y)]
        return table

    monkeypatch.setattr(gwa.complexes, "_dce_terms", widened)
    # The block tables were built from the unwidened terms.
    gwa.complexes._block_tables.cache_clear()


@pytest.mark.parametrize("kind", [HOMOLOGY, COHOMOLOGY], ids=["homology", "cohomology"])
def test_a_block_shift_beyond_the_certified_bound_raises(monkeypatch, kind):
    # The map reading the row differential out of e_x: in homology the one
    # out of degree 1, in cohomology (which reads routes from the codomain)
    # the one out of degree 0.
    p, m = (1 if kind is HOMOLOGY else 0), SQFREE.n + 1
    assemble_total_matrix(SQFREE, kind, p, 4, 4 + m)
    _add_a_term_of_shift_two(monkeypatch)
    with pytest.raises(InternalConsistencyError, match="shift 2 exceeds"):
        assemble_total_matrix(SQFREE, kind, p, 4, 4 + m)
    with pytest.raises(InternalConsistencyError, match="shift 2 exceeds"):
        oracle_dims(SQFREE, kind, 2)


def _clear_table_caches():
    """Empty the one-algebra caches that a block table is built from."""
    import gwa.algebra

    for cache in (gwa.complexes._block_tables, gwa.complexes._dce_terms,
                  gwa.complexes._df_terms, gwa.algebra._shifted_a):
        cache.cache_clear()


TABLE_KEYS = [(variant, spots_of, p) for p in range(-1, 6)
              for variant in ("homology", "cohomology")
              for spots_of in (gwa.complexes.spots, gwa.complexes._row_spots)]


def test_each_cached_block_table_is_its_own_build(suite):
    """Read in turn for both variants, both kinds of spots and degrees
    -1..5, every cached table equals a fresh build of its own key; the
    variants' tables differ."""
    cx = gwa.complexes
    for spec in suite[:8]:
        normal = cx._normalized(spec)
        _clear_table_caches()
        for key in TABLE_KEYS:
            assert cx._block_table(normal, *key) == cx._build_block_table(normal, *key), key
        assert cx._block_table(normal, "homology", cx.spots, 2) \
            != cx._block_table(normal, "cohomology", cx.spots, 2)


def _fractions_built(run) -> int:
    """The number of `Fraction`s constructed while `run()` runs."""
    codes = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 builds results there
        codes.add(Fraction._from_coprime_ints.__func__.__code__)
    return _calls_to(codes, run)


def _calls_to(codes, run) -> int:
    """The number of calls of the functions with the code objects `codes`
    while `run()` runs."""
    built = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            built[0] += 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(outer)
    return built[0]


def test_block_tables_of_the_normal_form_are_built_over_z(suite):
    """On the integral normal form a table build, its term tables and its
    peeled shifts of a included, constructs no `Fraction`, and every shift
    and coefficient of the tables is an int."""
    cx = gwa.complexes
    for spec in suite:
        normal = cx._normalized(spec)
        _clear_table_caches()
        assert _fractions_built(lambda: [cx._block_table(normal, *key) for key in TABLE_KEYS]) == 0
        for key in TABLE_KEYS:
            _, _, blocks, over_z = cx._block_table(normal, *key)
            assert over_z
            assert all(type(c) is int and all(type(v) is int for v in g)
                       for (_, _, c, _), g in blocks.items()), (spec.a, key)
    # The probe sees a construction where there is one.
    assert _fractions_built(lambda: Poly([Fraction(1, 2)]) * Fraction(2, 3)) > 0


@pytest.mark.parametrize("order", [3, 5], ids=["zeta3", "zeta5"])
def test_cyclotomic_constructions_do_not_grow_with_the_bound(order):
    """The fill turns each w^k into a ring element once and writes int
    tuples into the cells, so an oracle run over Q(zeta_m) builds as many
    `Cyclotomic`s from a large first truncation bound as from a small one:
    none per cell."""
    codes = {Cyclotomic.__init__.__code__, Cyclotomic._make.__func__.__code__}
    spec = GWASpec(Poly([0, -1, 0, 1]), ShiftSigma(1))
    kinds = [ComplexKind(variant, Torus(zeta(order))) for variant in ("homology", "cohomology")]

    def run(start):
        _clear_table_caches()
        return [oracle_dims(spec, kind, 2, Schedule(start=start)) for kind in kinds]

    assert run(4)[0] == run(16)[0]
    assert _calls_to(codes, lambda: run(4)) == _calls_to(codes, lambda: run(16))
    # The probe sees a construction where there is one.
    assert _calls_to(codes, lambda: zeta(order) * zeta(order)) > 0


@pytest.mark.parametrize("w", [None, Fraction(-1), zeta(3), zeta(5)],
                         ids=["Q", "w=-1", "zeta3", "zeta5"])
def test_an_oracle_run_scales_no_row(monkeypatch, w):
    """The cells are ring elements from the fill to the last rank: the
    fill, `TruncatedMap.rank`, the N_top ranks of `homology_dim_at` and
    `compose_is_zero` call no `scale`, and neither does anything else in
    an oracle run on the normal form."""
    callers = []
    real = CyclotomicIntegers.scale

    def scale(ring, values):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(ring, values)

    monkeypatch.setattr(CyclotomicIntegers, "scale", scale)
    for variant in ("homology", "cohomology"):
        kind = ComplexKind(variant, None if w is None else Torus(w))
        oracle_dims(CUBIC, kind, 2)
    assert callers == []
    # The probe sees a call where there is one.
    rank_rows([[Fraction(1, 2)]], 1, kind.field_order)
    assert len(callers) == 1


def test_a_block_table_of_an_integral_spec_off_z_raises(monkeypatch):
    """On an integral spec a coefficient that is not an int raises."""
    real = gwa.complexes._dce_terms

    def halved(spec):
        table = dict(real(spec))
        table[("x",)] = [(u * Fraction(1, 2), slot, v) for u, slot, v in table[("x",)]]
        return table

    monkeypatch.setattr(gwa.complexes, "_dce_terms", halved)
    gwa.complexes._block_tables.cache_clear()
    with pytest.raises(InternalConsistencyError, match="not over Z"):
        assemble_total_matrix(SQFREE, HOMOLOGY, 1, 4, 7)


@pytest.mark.parametrize("kind, schedule", [
    (HOMOLOGY, None), (COHOMOLOGY, None),
    (HOMOLOGY, Schedule(start=12, window=3)), (COHOMOLOGY, Schedule(start=12, window=3)),
    (HOMOLOGY, Schedule(start=1, step=1, d_max=3)),
    (COHOMOLOGY, Schedule(start=1, step=1, d_max=3)),
], ids=["homology", "cohomology", "homology-3D", "cohomology-3D",
        "homology-below-4", "cohomology-below-4"])
def test_d_squared_runs_once_at_the_certificate_bounds(monkeypatch, kind, schedule):
    """Every `compose_is_zero` of a run multiplies the outer map at domain
    bound 4 + m by the inner one at 4, and all of them run before the
    first `homology_dim_at`, so at no later D.  With a schedule whose D
    stays below 4 the certificate's maps are assembled at its own bounds."""
    events = []
    real_check, real_dim = gwa.complexes.compose_is_zero, gwa.complexes.homology_dim_at

    def check(outer, inner):
        events.append((outer.domain.degree_bound, inner.domain.degree_bound))
        return real_check(outer, inner)

    def dim(dp, dnext):
        events.append("dim")
        return real_dim(dp, dnext)

    monkeypatch.setattr(gwa.complexes, "compose_is_zero", check)
    monkeypatch.setattr(gwa.complexes, "homology_dim_at", dim)
    p_max, m = 2, CUBIC.n + 1
    stabs = oracle_dims(CUBIC, kind, p_max, schedule)
    table = hh_dims if kind is HOMOLOGY else coh_dims
    assert dims(stabs) == table(CUBIC.a, CUBIC.sigma, p_max).dims
    first = events.index("dim")
    assert events[:first] == [(D_SQUARED_BOUND + m, D_SQUARED_BOUND)] * (p_max + 1)
    assert "dim" not in events[:first] and set(events[first:]) == {"dim"}


@pytest.mark.parametrize("kind", [HOMOLOGY, COHOMOLOGY], ids=["homology", "cohomology"])
@pytest.mark.parametrize("assembly, run", [
    ("assemble_total_matrix", lambda kind: oracle_dims(CUBIC, kind, 3)),
    ("_assemble_single_row", lambda kind: row_homology_dims(CUBIC, kind)),
], ids=["total", "rows"])
def test_certificate_multiplies_the_pairs_the_dimensions_read(monkeypatch, kind, assembly, run):
    """Each `compose_is_zero` of a run multiplies the two maps that one
    `homology_dim_at` reads, degree q's and its source's, and every such
    pair is multiplied once.  No map is assembled that no dimension reads.
    Both runs report four degrees: p_max 3, and the four wedge positions."""
    degree, checked, read = {}, [], []
    real_assemble = getattr(gwa.complexes, assembly)
    real_check, real_dim = gwa.complexes.compose_is_zero, gwa.complexes.homology_dim_at

    def assemble(spec, kind, p, b_dom, b_cod):
        out = real_assemble(spec, kind, p, b_dom, b_cod)
        degree[id(out)] = (p, out)  # the map is kept, so its id is not reused
        return out

    def degrees(outer, inner):
        return tuple(degree[id(f._source or f)][0] for f in (outer, inner))

    monkeypatch.setattr(gwa.complexes, assembly, assemble)
    monkeypatch.setattr(gwa.complexes, "compose_is_zero",
                        lambda outer, inner: checked.append(degrees(outer, inner))
                        or real_check(outer, inner))
    monkeypatch.setattr(gwa.complexes, "homology_dim_at",
                        lambda dp, dnext: read.append(degrees(dp, dnext))
                        or real_dim(dp, dnext))
    run(kind)
    assert checked == read[:4] == _oracle_pairs(kind, 3)
    assert set(read) == set(checked)
    assert sorted(p for p, _ in degree.values()) == sorted({q for pair in checked for q in pair})


@pytest.mark.parametrize("w", [None, Fraction(-1), zeta(3), zeta(4), zeta(5)],
                         ids=["Q", "w=-1", "zeta3", "zeta4", "zeta5"])
def test_sliced_differentials_equal_fresh_assembly(suite, w):
    """Every block the oracle slices from a larger assembly is the matrix a
    fresh assembly at those bounds gives, in every degree shape."""
    bound = 3
    for variant in ("homology", "cohomology"):
        kind = ComplexKind(variant, None if w is None else Torus(w))
        for spec in suite:
            m = spec.n + 1
            for p in range(5):
                big = assemble_total_matrix(spec, kind, p, bound + m + 1, bound + 2 * m + 2)
                # The oracle's outgoing and incoming shapes, and the smallest.
                for b_dom, b_cod in [(bound, bound + m), (bound + m, bound + 2 * m), (0, m)]:
                    got = big.truncate(b_dom, b_cod)
                    want = assemble_total_matrix(spec, kind, p, b_dom, b_cod)
                    assert (got.domain, got.codomain) == (want.domain, want.codomain)
                    assert got.rows == want.rows, (spec.a, variant, p, b_dom, b_cod)


def test_slice_that_drops_a_nonzero_entry_raises():
    m = assemble_total_matrix(CUBIC, HOMOLOGY, 1, 8, 12)
    # The leading terms of a*p - sigma(a*p) cancel: d_1(h^8) has degree 10.
    m.truncate(8, 10)
    with pytest.raises(InternalConsistencyError):
        m.truncate(8, 9)
    with pytest.raises(InputError):
        m.truncate(9, 12)


def test_a_zeta3_slice_compares_dropped_cells_with_the_ring_zero():
    """Over Q(zeta3) a cell is a pair of ints, and the zero pair is truthy:
    a cut that drops only zero cells is accepted, and one that drops a
    nonzero cell of a kept column raises."""
    z = zeta(3)
    dom, cod = TruncatedSpace(3, 1, 1), TruncatedSpace(3, 1, 2)
    ok = TruncatedMap(dom, cod, [[1, z], [z, 0], [0, 0]])
    assert ok.rows[2] == [(0, 0), (0, 0)]
    assert ok.truncate(1, 1).rows == ok.rows[:2]
    bad = TruncatedMap(dom, cod, [[1, z], [z, 0], [0, z]])
    with pytest.raises(InternalConsistencyError, match="drops a nonzero"):
        bad.truncate(1, 1)
    assert bad.truncate(0, 1).rows == [[(1, 0)], [(0, 1)]]


def _count_assemblies(monkeypatch):
    """Record (degree, b_dom, b_cod) of every assembly the oracle makes."""
    calls = []
    real = gwa.complexes.assemble_total_matrix

    def spy(spec, kind, p, b_dom, b_cod):
        calls.append((p, b_dom, b_cod))
        return real(spec, kind, p, b_dom, b_cod)

    monkeypatch.setattr(gwa.complexes, "assemble_total_matrix", spy)
    return calls


@pytest.mark.parametrize("kind", [HOMOLOGY, COHOMOLOGY], ids=["homology", "cohomology"])
def test_oracle_assembles_each_degree_once(monkeypatch, kind):
    calls = _count_assemblies(monkeypatch)
    checks = []
    real_check = gwa.complexes.compose_is_zero
    monkeypatch.setattr(gwa.complexes, "compose_is_zero",
                        lambda outer, inner: checks.append(1) or real_check(outer, inner))
    p_max = 2
    stabs = oracle_dims(CUBIC, kind, p_max)
    assert [d for d, _ in stabs[0].history] == [12, 16]
    # Cohomology reads the maps out of -1..p_max (the one out of -1 has no
    # columns) and assembles none out of p_max+1.
    degrees = range(p_max + 2) if kind is HOMOLOGY else range(-1, p_max + 1)
    assert sorted(p for p, _, _ in calls) == list(degrees)
    m = CUBIC.n + 1
    assert {p: (b_dom, b_cod) for p, b_dom, b_cod in calls} == {
        p: (16 + m, 16 + 2 * m) for p in degrees}
    assert len(checks) == p_max + 1  # d o d = 0, once per degree, at the first D only


def test_oracle_reassembles_when_the_schedule_goes_on(monkeypatch):
    """At D = 20 the incoming maps outgrow the first assembly (bounds
    16 + 4 = 20) and the outgoing ones still fit it.  So only degrees with
    an incoming map that is read are assembled again: 1..3 in homology,
    -1..1 in cohomology (boundaries into degree q come out of q-1)."""
    calls = _count_assemblies(monkeypatch)
    p_max = 2
    stabs = oracle_dims(CUBIC, HOMOLOGY, p_max, Schedule(start=12, window=3))
    assert [d for d, _ in stabs[0].history] == [12, 16, 20]
    assert dims(stabs) == hh_dims(CUBIC.a, CUBIC.sigma, p_max).dims
    assert sorted(p for p, b_dom, _ in calls if b_dom > 20) == [1, 2, 3]
    assert len(calls) == (p_max + 2) + 3

    calls.clear()
    stabs = oracle_dims(CUBIC, COHOMOLOGY, p_max, Schedule(start=12, window=3))
    assert [d for d, _ in stabs[0].history] == [12, 16, 20]
    assert dims(stabs) == coh_dims(CUBIC.a, CUBIC.sigma, p_max).dims
    assert sorted(p for p, b_dom, _ in calls if b_dom > 20) == [-1, 0, 1]
    assert len(calls) == (p_max + 2) + 3


@pytest.mark.parametrize("kind, window, ranked_assemblies",
                         [(HOMOLOGY, 2, 3), (HOMOLOGY, 3, 6),
                          (COHOMOLOGY, 2, 3), (COHOMOLOGY, 3, 5)],
                         ids=["homology-2D", "homology-3D", "cohomology-2D", "cohomology-3D"])
def test_oracle_eliminates_each_ranked_assembly_once(monkeypatch, kind, window,
                                                     ranked_assemblies):
    """One full-size elimination per assembled matrix that the oracle
    ranks, plus one of N_top per degree with boundaries and per D.

    With p_max 2 the ranked assemblies are those of degrees 1..3 in
    homology (the map out of degree 0 has no rows) and 0..2 in cohomology
    (the map out of degree -1 has no columns).  At a third D, 20, the
    outgoing maps still fit the first assembly (16 + n + 1 = 20 for the
    cubic), and the incoming maps that are read are assembled again and
    ranked: three more in homology, two in cohomology.
    """
    ranked = {}
    n_top = []
    shapes = []
    real_dim, real_echelon = gwa.complexes.homology_dim_at, _kernels.echelon_int

    def dim_spy(dp, dnext):
        for f in (dp, dnext):
            big = f._source or f
            if big.rows and big.domain.dim:
                ranked[id(big)] = (big.codomain.dim, big.domain.dim)
        n_top.append(len(dnext.rows) > dp.domain.dim and dnext.domain.dim > 0)
        return real_dim(dp, dnext)

    def echelon_spy(rows, ncols):
        shapes.append((len(rows), ncols))
        return real_echelon(rows, ncols)

    monkeypatch.setattr(gwa.complexes, "homology_dim_at", dim_spy)
    monkeypatch.setattr(_kernels, "echelon_int", echelon_spy)
    p_max = 2
    stabs = oracle_dims(CUBIC, kind, p_max, Schedule(start=12, window=window))
    ds = [d for d, _ in stabs[0].history]
    assert ds == [12, 16, 20][:window]
    assert len(ranked) == ranked_assemblies
    full = sorted(ranked.values())
    assert sorted(shape for shape in shapes if shape in full) == full
    assert sum(n_top) == (p_max + 1 if kind is HOMOLOGY else p_max) * len(ds)
    assert len(shapes) == len(full) + sum(n_top)


@pytest.mark.parametrize("w, n_max", [(None, 5), (Fraction(-1), 5), (zeta(3), 3), (zeta(5), 2)],
                         ids=["Q", "w=-1", "zeta3", "zeta5"])
def test_oracle_slice_ranks_are_pivot_counts(monkeypatch, suite, w, n_max):
    """Every map the oracle ranks, in degrees 0..3, has the rank of a fresh
    elimination of its own rows, though a slice reads it from the pivot
    columns of the assembly it was cut from."""
    real = gwa.complexes.homology_dim_at
    slices = []

    def checked(dp, dnext):
        order = dp.field_order or dnext.field_order
        for f in (dp, dnext):
            assert f.rank() == rank_rows(field_matrix(f), f.domain.dim, order)
        slices.append(dp._source is not None)
        return real(dp, dnext)

    monkeypatch.setattr(gwa.complexes, "homology_dim_at", checked)
    for variant in ("homology", "cohomology"):
        kind = ComplexKind(variant, None if w is None else Torus(w))
        for spec in suite:
            if spec.n <= n_max:
                oracle_dims(spec, kind, 3, Schedule(start=4))
    assert slices and all(slices)


@pytest.mark.parametrize("order", [5, 8], ids=["zeta5", "zeta8"])
def test_oracle_matches_twisted_formulas_beyond_degree_two(suite, order):
    """Over Q(zeta5) and Q(zeta8), fields of degree four, the oracle's
    twisted dimensions equal the formulas' for the suite's n <= 3."""
    for variant in ("homology", "cohomology"):
        kind = ComplexKind(variant, Torus(zeta(order)))
        for spec in suite:
            if spec.n <= 3:
                want = twisted_dims(spec.a, spec.sigma, variant, 2).dims
                assert dims(oracle_dims(spec, kind, 2)) == want, (str(spec), variant)


def test_oracle_examples():
    assert dims(oracle_dims(WEYL, HOMOLOGY, 4)) == [0, 0, 1, 0, 0]
    assert dims(oracle_dims(CUBIC, HOMOLOGY, 4)) == [2, 1, 2, 2, 2]
    sq = GWASpec(H ** 2, ShiftSigma(1))
    assert dims(oracle_dims(sq, COHOMOLOGY, 4)) == [1, 0, 1, 1, 1]


def test_row_homology_assembles_each_wedge_degree_once(monkeypatch):
    """The rows take the same certificate: d o d = 0 on slices at domain
    bounds 4 + m and 4 of the first D's assemblies, for the four pairs the
    dimensions read.  The map out of wedge degree 4, which has no columns,
    is the one into wedge degree 3."""
    calls, checks = [], []
    real, real_check = gwa.complexes._assemble_single_row, gwa.complexes.compose_is_zero

    def spy(spec, kind, k, b_dom, b_cod):
        calls.append((k, b_dom, b_cod))
        return real(spec, kind, k, b_dom, b_cod)

    def check(outer, inner):
        checks.append((outer.domain.degree_bound, inner.domain.degree_bound))
        return real_check(outer, inner)

    monkeypatch.setattr(gwa.complexes, "_assemble_single_row", spy)
    monkeypatch.setattr(gwa.complexes, "compose_is_zero", check)
    stabs = row_homology_dims(CUBIC, HOMOLOGY)
    assert [d for d, _ in stabs[0].history] == [12, 16]
    m = CUBIC.n + 1
    assert sorted(calls) == [(k, 16 + m, 16 + 2 * m) for k in range(5)]
    assert checks == [(D_SQUARED_BOUND + m, D_SQUARED_BOUND)] * 4


def test_oracle_rejects_a_broken_map(monkeypatch):
    real = gwa.complexes.assemble_total_matrix

    def broken(spec, kind, p, b_dom, b_cod):
        out = real(spec, kind, p, b_dom, b_cod)
        if p == 1:
            # Row 0 (degree 0) is kept by every slice, so only d o d can fail.
            out.rows[0] = [Fraction(1)] * out.domain.dim
        return out

    monkeypatch.setattr(gwa.complexes, "assemble_total_matrix", broken)
    with pytest.raises(InternalConsistencyError, match="d o d"):
        oracle_dims(CUBIC, HOMOLOGY, 2)


def test_row_homology_rejects_a_broken_row_map(monkeypatch):
    real = gwa.complexes._assemble_single_row

    def broken(spec, kind, k, b_dom, b_cod):
        out = real(spec, kind, k, b_dom, b_cod)
        if k == 1:
            # Row 0 (degree 0) is kept by every slice, so only d o d can fail.
            out.rows[0] = [Fraction(1)] * out.domain.dim
        return out

    monkeypatch.setattr(gwa.complexes, "_assemble_single_row", broken)
    with pytest.raises(InternalConsistencyError, match="d o d"):
        row_homology_dims(CUBIC, HOMOLOGY)


def test_row_homology_tables():
    assert dims(row_homology_dims(CUBIC, HOMOLOGY)) == [2, 1, 0, 1]
    assert dims(row_homology_dims(WEYL, HOMOLOGY)) == [0, 0, 1, 1]
    kc = ComplexKind("cohomology", Torus(Fraction(-1)))
    assert dims(row_homology_dims(SQFREE, kc)) == [2, 2, 0, 0]


def test_twisted_cohomology_low_degrees_vanish():
    for w in (Fraction(-1), zeta(3)):
        kind = ComplexKind("cohomology", Torus(w))
        got = dims(oracle_dims(SQFREE, kind, 2))
        assert got[0] == 0 and got[1] == 0


def test_bezout_examples():
    s = ShiftSigma(1)
    assert bezout_d2_test(Poly([-1, 0, 1]), s) is True
    assert bezout_d2_test(H ** 2, s) is False
    assert bezout_d2_test(H, s) is True


def test_bezout_witness_identity_on_suite(suite):
    for spec in suite:
        s = spec.sigma
        a = spec.a
        coprime = gcd_monic(a, a.derivative()).degree == 0
        assert bezout_d2_test(a, s) is coprime
        if coprime:
            alpha, beta, gamma = bezout_witness(a, s)
            lhs = (sigma_pow(alpha, -1, s) - beta) * a \
                - sigma_pow(gamma, -1, s) * a.derivative()
            assert lhs == Poly([1])


def test_euler_homotopy():
    assert euler_homotopy_check(SQFREE, samples=50, seed=3)
    assert euler_homotopy_check(GWASpec(Poly([0, -1, 0, 1]), ShiftSigma(Fraction(1, 2))),
                                samples=30, seed=7)


def test_center_dims():
    assert int(center_dim(WEYL)) == 1
    assert int(center_dim(GWASpec(H ** 2, ShiftSigma(1)))) == 1
    assert int(center_dim(GWASpec(Poly([0, -1, 0, 1]), ShiftSigma(2)))) == 1


def test_coefficient_bimodule_axioms():
    """The coefficients the assembly acts on: A with b |> m = b m and
    m <| c = m g(c), g the twist (the identity when there is none)."""
    spec = GWASpec(Poly([-1, 0, 1]), ShiftSigma(1))
    for twist in (None, Torus(Fraction(-1)), Torus(zeta(4))):
        def g(c):
            return c if twist is None else apply_automorphism(twist, c)

        m = spec.monomial(1, H) + spec.from_poly(Poly([2, 1]))
        a = spec.x() + spec.h()
        b = spec.y(2) * 3
        # associativity of each action and commutation of the two sides
        assert a * (b * m) == (a * b) * m
        assert (m * g(a)) * g(b) == m * g(a * b)
        assert a * (m * g(b)) == (a * m) * g(b)


def test_complex_kind_validation():
    with pytest.raises(InputError):
        ComplexKind("middle")
    with pytest.raises(InputError):
        ComplexKind("homology", twist="not a torus")
    with pytest.raises(HypothesisError):
        bezout_d2_test(Poly([5]), ShiftSigma(1))
