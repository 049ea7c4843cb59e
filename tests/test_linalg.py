import random
from fractions import Fraction
from math import lcm

import pytest
from conftest import field_matrix

import gwa.linalg
from gwa._cyclotomic_ring import CyclotomicIntegers, ring as _ring
from gwa.algebra import GWASpec, Torus
from gwa.complexes import ComplexKind, assemble_total_matrix
from gwa.errors import InputError, InternalConsistencyError, StabilizationError
from gwa.invariants import h0_bruteforce
from gwa.linalg import (
    Schedule,
    TruncatedMap,
    TruncatedSpace,
    _kernels,
    compose_is_zero,
    homology_dim_at,
    kernel_raw,
    rank_rows,
    stabilize,
)
from gwa.poly import Poly, ShiftSigma, sigma_pow
from gwa.scalars import Cyclotomic, cyclotomic_coeffs, euler_phi, zeta

H = Poly.gen()
S1 = ShiftSigma(1)


def restriction_of_scalars(rows, order: int):
    """Integer matrix of the same map viewed over the rationals.

    Each cyclotomic entry becomes the phi(order) x phi(order) block of
    multiplication by it in the power basis; ranks multiply by phi(order).
    """
    d = euler_phi(order)
    basis = [Cyclotomic.zeta(order, k) if k else Cyclotomic.from_rational(order, 1)
             for k in range(d)]
    out = []
    for row in rows:
        block_rows = [[] for _ in range(d)]
        for v in row:
            cv = v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(order, v)
            for b in basis:
                col = (cv * b).coeffs
                for i in range(d):
                    block_rows[i].append(col[i])
        out.extend(block_rows)
    return out


def _to_field(v, order):
    """`v` as a `Fraction` (order None) or a `Cyclotomic` of that order."""
    if isinstance(v, Cyclotomic) and v.order == order:
        return v
    q = v.rational_value() if isinstance(v, Cyclotomic) else Fraction(v)
    return q if order is None else Cyclotomic.from_rational(order, q)


def field_echelon(rows, ncols, order=None):
    """Forward elimination with unit pivots in Q or Q(zeta_m), the
    reference for the pivot columns of the Bareiss kernels.

    Pivot columns are tried left to right; each pivot row is scaled to a
    leading 1 and cleared from the rows below it only.  Returns
    (pivot_columns, echelon_rows): row i has a 1 in column pivot_columns[i]
    and zeros in the earlier pivot columns.
    """
    if order is not None and euler_phi(order) == 1:
        order = None
    zero = _to_field(0, order)
    work = [[_to_field(v, order) if v else zero for v in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][col]
        top = work[r] = [v * inv if v else zero for v in work[r]]
        for i in range(r + 1, len(work)):
            f = work[i][col]
            if f:
                work[i] = [a - f * b if b else a for a, b in zip(work[i], top)]
        pivots.append(col)
        r += 1
    return pivots, work[:r]


def image_rows(op, d):
    """Rows spanning op(h^j) for j <= d, keeping the images of degree <= d."""
    rows = []
    for j in range(d + 1):
        img = op(Poly.monomial(j))
        if img.degree <= d:
            rows.append([img[i] for i in range(d + 1)])
    return rows


def codim_of_image(ops, schedule, order=None):
    """Stabilized codimension of the span of the images of `ops` in k[h]."""
    def evaluate(d):
        rows = [row for op in ops for row in image_rows(op, d)]
        return (d + 1) - rank_rows(rows, d + 1, order)

    return stabilize(evaluate, schedule)[0]


def id_minus_sigma_times(q):
    """p -> p q - sigma(p q)."""
    return lambda p: p * q - sigma_pow(p * q, 1, S1)


def shift_minus_w_times(w, q):
    """p -> sigma(p q) - w p q, an isomorphism of k[h] when w != 1."""
    return lambda p: sigma_pow(p * q, 1, S1) - p * q * w


def is_integral(v):
    return all(isinstance(e, int) or (isinstance(e, Cyclotomic)
                                      and all(c.denominator == 1 for c in e.coeffs))
               for e in v)


def test_codim_examples():
    sched = Schedule(start=12)
    assert codim_of_image([id_minus_sigma_times(H ** 2)], sched) == 1
    both = [id_minus_sigma_times(H ** 3), id_minus_sigma_times(3 * H ** 2)]
    assert codim_of_image(both, sched) == 1  # d - 1 with d = 2
    assert codim_of_image([shift_minus_w_times(Fraction(-1), H ** 2)], sched) == 2


def test_codim_stabilization_start_independent():
    op = id_minus_sigma_times(H ** 3)
    assert codim_of_image([op], Schedule(start=12)) == \
        codim_of_image([op], Schedule(start=20))


def zero_map(dom, cod):
    return TruncatedMap(dom, cod, [[Fraction(0)] * dom.dim for _ in range(cod.dim)])


def test_homology_dim_trivial_cases():
    space = TruncatedSpace(None, 1, 6)
    zero = zero_map(space, TruncatedSpace(None, 1, 8))
    zero_in = zero_map(TruncatedSpace(None, 1, 4), space)
    assert homology_dim_at(zero, zero_in) == space.dim - 0  # D+1 with no boundaries

    ident = TruncatedMap(space, space, [[1 if i == j else 0 for j in range(space.dim)]
                                        for i in range(space.dim)])
    assert homology_dim_at(ident, zero_in) == 0


def test_injectivity_of_multiply_then_shift():
    # p -> pa - sigma(pa) is injective on polynomials: two-term complex has
    # no kernel in degree one.
    op = id_minus_sigma_times(H ** 2 - 1)
    rows = [[Fraction(0)] * 9 for _ in range(12)]
    for j in range(9):
        img = op(Poly.monomial(j))
        for i, c in enumerate(img.coeffs):
            rows[i][j] = c
    assert kernel_raw(rows, 9) == []
    assert rank_rows(rows, 9) == 9


def test_rank_plus_nullity():
    rng = random.Random(11)
    for _ in range(30):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(nc)] for _ in range(nr)]
        r = rank_rows(rows, nc)
        k = len(kernel_raw(rows, nc))
        assert r + k == nc


def _random_entry(rng, order, size):
    if order is None:
        return Fraction(rng.randint(-size, size), rng.randint(1, 3))
    return Cyclotomic(order, [Fraction(rng.randint(-size, size), rng.randint(1, 3))
                              for _ in range(euler_phi(order))])


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for order in (None, 3, 4, 5):  # Q, two quadratic fields, a quartic one
        for _ in range(20):
            nr, nc = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[_random_entry(rng, order, 4) for _ in range(nc)] for _ in range(nr)]
            if nr > 1:
                # A dependent row makes the kernel larger than nc - nr.
                rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
            basis = kernel_raw(rows, nc, order)
            assert len(basis) == nc - rank_rows(rows, nc, order)
            assert rank_rows(basis, nc, order) == len(basis)
            for v in basis:
                assert is_integral(v), (order, v)
                assert all(sum((c * x for c, x in zip(row, v)), Fraction(0)) == 0
                           for row in rows)


def test_cyclotomic_rank_and_kernel():
    z = zeta(4)
    rows = [[1 + 0 * z, z], [z, -1 + 0 * z]]  # second row = z * first
    assert rank_rows(rows, 2, 4) == 1
    vs = kernel_raw(rows, 2, 4)
    assert len(vs) == 1
    for row in rows:
        assert sum(c * x for c, x in zip(row, vs[0])) == 0


def test_cyclotomic_rank_matches_restriction_of_scalars():
    rng = random.Random(23)
    for order in (3, 4):
        for _ in range(12):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            rows = [
                [Cyclotomic(order, (Fraction(rng.randint(-3, 3)),
                                    Fraction(rng.randint(-3, 3))))
                 for _ in range(nc)]
                for _ in range(nr)
            ]
            direct = rank_rows(rows, nc, order)
            restricted = restriction_of_scalars(rows, order)
            assert rank_rows(restricted, nc * euler_phi(order)) == direct * euler_phi(order)


def test_generic_degree_four_field_against_restriction():
    # phi(5) = 4 exercises the generic (non-quadratic) elimination path.
    rng = random.Random(3)
    for _ in range(4):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [
            [Cyclotomic(5, tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)))
             for _ in range(nc)]
            for _ in range(nr)
        ]
        direct = rank_rows(rows, nc, 5)
        restricted = restriction_of_scalars(rows, 5)
        assert rank_rows(restricted, nc * 4) == direct * 4
        k = len(kernel_raw(rows, nc, 5))
        assert direct + k == nc


def test_compose_is_zero_detects_nonzero():
    s1 = TruncatedSpace(None, 1, 2)
    ident = TruncatedMap(s1, s1, [[1 if i == j else 0 for j in range(3)] for i in range(3)])
    assert not compose_is_zero(ident, ident)
    zero = zero_map(s1, s1)
    assert compose_is_zero(zero, ident)
    assert compose_is_zero(ident, zero)


def test_stabilize_gives_up():
    with pytest.raises(StabilizationError):
        stabilize(lambda d: d, Schedule(start=12, d_max=40))


def test_stabilized_dim_records_schedule():
    spec = GWASpec(H ** 2 - 1, S1)
    out = h0_bruteforce(spec, Schedule(start=12))
    assert [d for d, _ in out.history] == list(range(12, out.stabilized_at + 1, 4))
    assert out.stabilized_at >= 12 + 4
    assert out.history[-1][1] == out.value
    assert int(out) == out.value == 1


def homology_dim_reference(dp, dnext):
    """rank([K | N]) - rank(N), K a kernel basis of dp padded into dnext's
    codomain and N the columns of dnext: dim ker(dp) - dim(ker(dp) meet
    im(dnext)) with no assumption on dp o dnext."""
    order = dp.field_order or dnext.field_order
    ambient = dnext.codomain.dim
    zero = Fraction(0)
    kernel = [v + [zero] * (ambient - len(v))
              for v in kernel_raw(field_matrix(dp), dp.domain.dim, order)]
    n_cols = [list(col) for col in zip(*field_matrix(dnext))]
    return (rank_rows(kernel + n_cols, ambient, order)
            - rank_rows(n_cols, ambient, order))


@pytest.mark.parametrize("w", [None, Fraction(-1), zeta(3), zeta(4), zeta(5)],
                         ids=["Q", "w=-1", "zeta3", "zeta4", "zeta5"])
def test_homology_dim_matches_kernel_reference(suite, w):
    """The three-rank formula equals the kernel-basis one on assembled
    differentials, in degrees 0..3, at two truncation bounds.  Over the
    cyclotomic fields the reference's field sweep is slow, so they take the
    suite's polynomials of degree <= 3."""
    n_max = 5 if w is None or w == -1 else 3
    for variant in ("homology", "cohomology"):
        kind = ComplexKind(variant, None if w is None else Torus(w))
        for spec in (s for s in suite if s.n <= n_max):
            m = spec.n + 1
            for bound in (0, 2):
                maps = [(assemble_total_matrix(spec, kind, p, bound, bound + m),
                         assemble_total_matrix(spec, kind, p, bound + m, bound + 2 * m))
                        for p in range(5)]
                for q in range(4):
                    dp = maps[q][0]
                    if variant == "homology":
                        dnext = maps[q + 1][1]
                    elif q > 0:
                        dnext = maps[q - 1][1]
                    else:
                        continue  # no boundaries into cochain degree 0
                    assert homology_dim_at(dp, dnext) == homology_dim_reference(dp, dnext), \
                        (spec.a, variant, q, bound)


# Row preparation and the Bareiss kernels -------------------------------------


def _random_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 6)))


def _mixed_scalar(rng, order, other_orders=(3, 4, 5, 6)):
    """A random scalar of Q (order None) or Q(zeta_order), in any of the
    representations matrices carry: int 0, ints, `Fraction`s, rational
    `Cyclotomic`s (of an order drawn from `other_orders` or of `order`) and
    field elements."""
    kind = rng.randrange(6 if order else 5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-6, 6)
    if kind in (2, 3):
        return _random_rational(rng)
    if kind == 4:
        return Cyclotomic.from_rational(rng.choice(other_orders), _random_rational(rng))
    return Cyclotomic(order, [_random_rational(rng) for _ in range(euler_phi(order))])


def _mixed_rows(rng, order, nr, nc, other_orders=(3, 4, 5, 6)):
    rows = [[_mixed_scalar(rng, order, other_orders) for _ in range(nc)] for _ in range(nr)]
    if nr > 2 and rng.random() < 0.5:
        # A dependent row lowers the rank.
        rows[-1] = [_in_field(a, order) + _in_field(b, order) for a, b in zip(rows[0], rows[1])]
    if nc > 1 and rng.random() < 0.3:
        for row in rows:
            row[rng.randrange(nc)] = Fraction(0)
    return rows


def _in_field(v, order):
    """`v` as a `Fraction` (order None) or a scalar that mixes with
    Q(zeta_order): rational `Cyclotomic`s of other orders become `Fraction`s."""
    if isinstance(v, Cyclotomic) and v.order != order:
        return v.rational_value()
    return Fraction(v) if order is None else v


def _assert_positive_multiple(out, row, order, as_scalar):
    """out == k * row for one rational k > 0."""
    row = [_in_field(v, order) for v in row]
    k = next((as_scalar(e) / v for e, v in zip(out, row) if v), None)
    if k is None:
        assert all(not as_scalar(e) for e in out)
        return
    if isinstance(k, Cyclotomic):
        k = k.rational_value()  # raises unless k is rational
    assert k > 0
    assert all(as_scalar(e) == k * v for e, v in zip(out, row))


@pytest.mark.parametrize("order", [None, 3, 4, 6, 5, 12],
                         ids=["Q", "zeta3", "zeta4", "zeta6", "zeta5", "zeta12"])
def test_row_preparation_scales_rows_by_positive_integers(order):
    rng = random.Random(41 if order is None else order)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 7)
        rows = _mixed_rows(rng, order, nr, nc)
        for row in rows:
            out = _ring(order or 1).scale(row)[1]
            if order is None:
                assert all(type(e) is int for e in out)
                _assert_positive_multiple(out, row, order, Fraction)
            else:
                d = euler_phi(order)
                assert all(len(e) == d and all(type(a) is int for a in e) for e in out)
                _assert_positive_multiple(out, row, order, lambda e: Cyclotomic(order, e))
        assert rank_rows(rows, nc, order) == len(field_echelon(rows, nc, order)[0])


def test_int_rows_over_q_pass_through_unscaled():
    """A row of plain ints, as the oracle assembles over Q, is scaled by 1
    and handed on as it is; a row with an integral `Fraction` is still
    made into a new row of ints.  Ranking and the d o d product leave the
    int rows of an assembled map as they were."""
    rng = random.Random(5)
    for _ in range(20):
        row = [rng.randint(-9, 9) for _ in range(rng.randint(0, 7))]
        den, out = _ring(1).scale(row)
        assert den == 1 and out is row
    mixed = [Fraction(2), 3, 0]
    out = _ring(1).scale(mixed)[1]
    assert out == [2, 3, 0] and out is not mixed and all(type(e) is int for e in out)
    spec = GWASpec(Poly([0, -1, 0, 1]), S1)
    outer = assemble_total_matrix(spec, ComplexKind("homology"), 1, 8, 12)
    inner = assemble_total_matrix(spec, ComplexKind("homology"), 2, 4, 8)
    before = [list(row) for row in outer.rows], [list(row) for row in inner.rows]
    assert outer.rank() == len(field_echelon(outer.rows, outer.domain.dim)[0])
    assert compose_is_zero(outer, inner)
    assert (outer.rows, inner.rows) == before


@pytest.mark.parametrize("order", [None, 5], ids=["Q", "zeta5"])
def test_an_entry_of_another_field_is_an_input_error(order):
    """A non-rational scalar of another field, zeta3 here, is refused by
    the row scaling of every routine that takes field scalars, over Q and
    over zeta5 alike, and never read as an element of the field: by
    `rank_rows`, by `kernel_raw`, and by the map constructor, so that no
    map, and no d o d product, holds it."""
    rows = [[1, zeta(3)], [Fraction(1, 2), 0]]
    with pytest.raises(InputError):
        rank_rows(rows, 2, order)
    with pytest.raises(InputError):
        kernel_raw(rows, 2, order)
    _as_map([[1, 0], [0, 1]], 2, order)
    with pytest.raises(InputError):
        _as_map(rows, 2, order)


@pytest.mark.parametrize("order", [None, 3, 5], ids=["Q", "zeta3", "zeta5"])
def test_rank_rows_takes_a_maps_cells_as_they_are(monkeypatch, order):
    """`rank_rows` and `kernel_raw` read rows of ring elements, a map's
    cells, as they are (a rank of them calls no `scale`), and give the rank
    and null space of the field rows the cells stand for; rows of field
    scalars are scaled."""
    rng = random.Random(23)
    calls = []
    real = CyclotomicIntegers.scale

    def scale(ring, values):
        calls.append(len(values))
        return real(ring, values)

    monkeypatch.setattr(CyclotomicIntegers, "scale", scale)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = _mixed_rows(rng, order, nr, nc, other_orders=(order or 4,))
        cells = _as_map(rows, nc, order).rows
        calls.clear()
        rank = rank_rows(cells, nc, order)
        assert calls == []
        basis = kernel_raw(cells, nc, order)
        assert len(basis) == nc - rank
        assert rank == rank_rows(rows, nc, order)
        assert basis == kernel_raw(rows, nc, order)
    calls.clear()
    rank_rows([[Fraction(1, 2), 1]], 2, order)
    assert calls == [2]


def _zero_product_pair(rng, order, nr, nc):
    """outer (nr x nc) and inner with outer o inner = 0: inner's columns
    are kernel vectors of outer, rescaled and re-represented at random."""
    outer = _mixed_rows(rng, order, nr, nc, other_orders=(order or 4,))
    kernel = kernel_raw(outer, nc, order) or [[0] * nc]
    cols = []
    for _ in range(rng.randint(1, 4)):
        v = rng.choice(kernel)
        s = _random_rational(rng) or Fraction(1)
        if order is not None and rng.random() < 0.5:
            s = s * zeta(order)
        cols.append([_represent(rng, s * e, order) for e in v])
    inner = [list(r) for r in zip(*cols)]
    return outer, inner


def _represent(rng, v, order):
    """`v` as an int, a `Fraction` or a `Cyclotomic`, whichever it fits."""
    if isinstance(v, Cyclotomic) and not v.is_rational():
        return v
    q = Fraction(v.rational_value() if isinstance(v, Cyclotomic) else v)
    choice = rng.randrange(3)
    if choice == 0 and q.denominator == 1:
        return int(q)
    if choice == 1:
        return Cyclotomic.from_rational(order or 4, q)
    return q


def _as_map(rows, ncols, order):
    dom = TruncatedSpace(order, 1, ncols - 1)
    cod = TruncatedSpace(order, 1, len(rows) - 1)
    return TruncatedMap(dom, cod, rows)


def _field_product_is_zero(outer, inner, order):
    """Whether outer times inner is zero, by the dense product in the field."""
    return not any(
        sum((_in_field(a, order) * _in_field(col[j], order) for j, a in enumerate(row)),
            Fraction(0))
        for row in outer for col in zip(*inner))


def _denominator(v):
    """The lcm of the denominators of v's rational coefficients."""
    return lcm(*(Fraction(c).denominator
                 for c in (v.coeffs if isinstance(v, Cyclotomic) else (v,))))


@pytest.mark.parametrize("order", [None, 3, 4, 5, 6, 7, 8, 12],
                         ids=["Q", "zeta3", "zeta4", "zeta5", "zeta6", "zeta7", "zeta8", "zeta12"])
def test_compose_is_zero_matches_the_field_product(order):
    rng = random.Random(43 if order is None else 43 + order)
    outcomes = set()
    uneven_zero_products = 0
    for trial in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(2, 6)
        outer, inner = _zero_product_pair(rng, order, nr, nc)
        if trial % 3 == 1:
            # A nonzero product, or a near miss: one inner entry changed.
            i, j = rng.randrange(nc), rng.randrange(len(inner[0]))
            inner[i][j] = inner[i][j] + _random_rational(rng)
        elif trial % 3 == 2:
            inner = _mixed_rows(rng, order, nc, rng.randint(1, 4), other_orders=(order or 4,))
        a = _as_map(outer, nc, order)
        b = _as_map(inner, len(inner[0]), order)
        expected = _field_product_is_zero(outer, inner, order)
        assert compose_is_zero(a, b) == expected
        outcomes.add(expected)
        # Inner rows with different denominators: a zero product that scaling
        # inner other than by one integer for the whole matrix would break.
        uneven_zero_products += expected and len(
            {lcm(*map(_denominator, row)) for row in inner}) > 1
    assert outcomes == {True, False}
    assert uneven_zero_products >= 3, uneven_zero_products
    if order is not None:
        # A product whose only nonzero coefficient is that of zeta.
        one = _as_map([[1]], 1, order)
        assert not compose_is_zero(one, _as_map([[zeta(order)]], 1, order))


def echelon_int_reference(rows, ncols):
    """Integer Bareiss that updates every cell from the pivot column on."""
    m = [list(r) for r in rows]
    nr = len(m)
    pivots = []
    prev = 1
    r = 0
    for col in range(ncols):
        if r == nr:
            break
        best = -1
        best_abs = 0
        for i in range(r, nr):
            v = m[i][col]
            if v and (best < 0 or abs(v) < best_abs):
                best, best_abs = i, abs(v)
        if best < 0:
            continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][col]
        for i in range(r + 1, nr):
            f = m[i][col]
            if f or piv != prev:
                for j in range(col, ncols):
                    m[i][j] = (piv * m[i][j] - f * m[r][j]) // prev
        pivots.append(col)
        prev = piv
        r += 1
    return r, pivots, m[:r]


def lazy_catch_ups(rows, ncols, update, size, zero, one):
    """How often the eager Bareiss sweep touches a row, as pivot or as a row
    to update, after it sat idle (zero in the pivot column) through two or
    more stages whose pivot differed from the previous one: the rows whose
    scaling the lazy kernels defer and then catch up.  `update(piv, x, f,
    y, prev)` is the exact step (piv * x - f * y) / prev."""
    m = [list(r) for r in rows]
    nr = len(m)
    idle = [0] * nr
    catch_ups = 0
    prev = one
    r = 0
    for col in range(ncols):
        if r == nr:
            break
        candidates = [i for i in range(r, nr) if m[i][col] != zero]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: size(m[i][col]))
        m[r], m[best] = m[best], m[r]
        idle[r], idle[best] = idle[best], idle[r]
        piv = m[r][col]
        catch_ups += idle[r] >= 2
        for i in range(r + 1, nr):
            f = m[i][col]
            if f != zero:
                catch_ups += idle[i] >= 2
                idle[i] = 0
            elif piv != prev:
                idle[i] += 1
            m[i][col:] = [update(piv, x, f, y, prev) for x, y in zip(m[i][col:], m[r][col:])]
        prev = piv
        r += 1
    return catch_ups


def assembled_maps(suite, kinds):
    """Degree-major inputs: the maps out of degrees 1..3 at small bounds,
    for the suite's polynomials of degree 2 and 3."""
    for spec in suite:
        if spec.n in (2, 3):
            for kind in kinds:
                for p in (1, 2, 3):
                    yield assemble_total_matrix(spec, kind, p, 4, 4 + spec.n + 1)


def test_echelon_int_matches_reference(suite):
    rng = random.Random(17)
    inputs = []
    for _ in range(120):
        nr, nc = rng.randint(1, 7), rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(nc)]
                for _ in range(nr)]
        if nr > 2 and rng.random() < 0.5:
            # An integer combination of two rows makes the matrix rank-deficient.
            u, v = rng.randint(-3, 3), rng.randint(1, 3)
            rows[-1] = [u * x + v * y for x, y in zip(rows[0], rows[1])]
        if nc > 1 and rng.random() < 0.3:
            zero = rng.randrange(nc)
            for row in rows:
                row[zero] = 0
        inputs.append((rows, nc))
    kinds = [ComplexKind("homology"), ComplexKind("cohomology"),
             ComplexKind("homology", Torus(Fraction(-1)))]
    inputs += [(tm.rows, tm.domain.dim) for tm in assembled_maps(suite, kinds)]
    seen = {"deficient": 0, "zero_column": 0, "nontrivial_prev": 0, "lazy": 0}
    for rows, nc in inputs:
        nr = len(rows)
        got = _kernels.echelon_int(rows, nc)
        assert got == echelon_int_reference(rows, nc)
        rank, pivots, ech = got
        seen["deficient"] += rank < min(nr, nc)
        seen["zero_column"] += any(all(row[j] == 0 for row in rows) for j in range(nc))
        seen["nontrivial_prev"] += rank >= 2 and abs(ech[0][pivots[0]]) != 1
        seen["lazy"] += lazy_catch_ups(
            rows, nc, lambda p, x, f, y, q: (p * x - f * y) // q, abs, 0, 1)
    assert all(seen.values()), seen


def test_eliminations_look_the_kernels_up_at_call_time(monkeypatch):
    """Spies set on the kernel module after the field backends are in use
    see every Bareiss call of `rank_rows` and `homology_dim_at`, and a spy
    on `rank_rows` sees the N_top rank; a reference kept from before the
    patch would bypass them.  The entries
    `echelon_int` and `echelon_quad` call `echelon_cyclo` through
    the module, so the spy on that name sees every rank, over Q too."""
    spec = GWASpec(H ** 2 - 1, S1)
    kinds = {"echelon_int": ComplexKind("homology"),
             "echelon_quad": ComplexKind("homology", Torus(zeta(3))),
             "echelon_cyclo": ComplexKind("homology", Torus(zeta(5)))}
    chains = {"echelon_int": ["echelon_int", "echelon_cyclo"],
              "echelon_quad": ["echelon_quad", "echelon_cyclo"],
              "echelon_cyclo": ["echelon_cyclo"]}
    for kind in kinds.values():
        rank_rows([[1]], 1, kind.field_order)
    calls = []
    for name in kinds:
        def spy(*args, _real=getattr(_kernels, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(_kernels, name, spy)
    assert rank_rows([[1, 2], [2, 4]], 2) == 1
    assert rank_rows([[zeta(3), 1], [zeta(3) ** 2, zeta(3)]], 2, 3) == 1
    assert rank_rows([[zeta(5), 1], [zeta(5) ** 2, zeta(5)]], 2, 5) == 1
    assert calls == [call for name in kinds for call in chains[name]]
    # The N_top rank is a `rank_rows`, looked up at call time too, so a
    # wrapper on that name times the quartic sweep, which no kernel name
    # other than `echelon_cyclo` sees.
    ranked = []
    real_rank_rows = gwa.linalg.rank_rows

    def rank_spy(rows, ncols, order):
        ranked.append(order)
        return real_rank_rows(rows, ncols, order)

    monkeypatch.setattr(gwa.linalg, "rank_rows", rank_spy)
    for name, kind in kinds.items():
        m = spec.n + 1
        dp = assemble_total_matrix(spec, kind, 1, 2, 2 + m)
        dnext = assemble_total_matrix(spec, kind, 2, 2 + m, 2 + 2 * m)
        calls.clear()
        ranked.clear()
        homology_dim_at(dp, dnext)
        assert calls == chains[name] * 3
        assert ranked == [kind.field_order]


def _quad_mul_reference(a0, a1, b0, b1, b, c):
    t = a1 * b1
    return a0 * b0 - c * t, a0 * b1 + a1 * b0 - b * t


def _quad_divexact_reference(u0, u1, v0, v1, b, c):
    n = v0 * v0 - b * v0 * v1 + c * v1 * v1
    w0, w1 = _quad_mul_reference(u0, u1, v0 - b * v1, -v1, b, c)
    return w0 // n, w1 // n


def echelon_quad_reference(rows, ncols, b, c):
    """Bareiss over Z[z]/(z^2 + b z + c) with one exact division by the
    previous pivot per updated cell, through its conjugate."""
    m = [[(e[0], e[1]) for e in row] for row in rows]
    nr = len(m)
    pivots = []
    prev = (1, 0)
    r = 0
    for col in range(ncols):
        if r == nr:
            break
        best = -1
        best_size = 0
        for i in range(r, nr):
            v0, v1 = m[i][col]
            if v0 or v1:
                size = abs(v0) + abs(v1)
                if best < 0 or size < best_size:
                    best, best_size = i, size
        if best < 0:
            continue
        m[r], m[best] = m[best], m[r]
        p0, p1 = m[r][col]
        q0, q1 = prev
        for i in range(r + 1, nr):
            f0, f1 = m[i][col]
            if not (f0 or f1 or p0 != q0 or p1 != q1):
                continue
            for j in range(col, ncols):
                t0, t1 = _quad_mul_reference(p0, p1, *m[i][j], b, c)
                s0, s1 = _quad_mul_reference(f0, f1, *m[r][j], b, c)
                m[i][j] = _quad_divexact_reference(t0 - s0, t1 - s1, q0, q1, b, c)
        pivots.append(col)
        prev = (p0, p1)
        r += 1
    return r, pivots, m[:r]


@pytest.mark.parametrize("order", [3, 4, 6], ids=["zeta3", "zeta4", "zeta6"])
def test_echelon_quad_matches_reference(suite, order):
    """The ring kernel over a field of degree two gives the pair sweep's
    (rank, pivots, rows)."""
    c, b, _ = cyclotomic_coeffs(order)
    ring = _ring(order)
    rng = random.Random(order)
    inputs = []
    for _ in range(80):
        nr, nc = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[(rng.randint(-5, 5), rng.randint(-5, 5)) if rng.random() < 0.7 else (0, 0)
                 for _ in range(nc)] for _ in range(nr)]
        if nr > 2 and rng.random() < 0.5:
            # A Z[z]-combination of two rows makes the matrix rank-deficient.
            u, v = (rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-3, 3), 1)
            rows[-1] = [tuple(x + y for x, y in zip(_quad_mul_reference(*u, *e0, b, c),
                                                    _quad_mul_reference(*v, *e1, b, c)))
                        for e0, e1 in zip(rows[0], rows[1])]
        if nc > 1 and rng.random() < 0.3:
            zero = rng.randrange(nc)
            for row in rows:
                row[zero] = (0, 0)
        inputs.append((rows, nc))
    kinds = [ComplexKind(variant, Torus(zeta(order))) for variant in ("homology", "cohomology")]
    inputs += [(tm.rows, tm.domain.dim) for tm in assembled_maps(suite, kinds)]

    def update(p, x, f, y, q):
        t0, t1 = _quad_mul_reference(*p, *x, b, c)
        s0, s1 = _quad_mul_reference(*f, *y, b, c)
        return _quad_divexact_reference(t0 - s0, t1 - s1, *q, b, c)

    seen = {"deficient": 0, "zero_column": 0, "nontrivial_prev": 0, "lazy": 0}
    for rows, nc in inputs:
        nr = len(rows)
        got = _kernels.echelon_cyclo(rows, nc, ring)
        assert got == echelon_quad_reference(rows, nc, b, c)
        rank, pivots, ech = got
        seen["deficient"] += rank < min(nr, nc)
        seen["zero_column"] += any(all(row[j] == (0, 0) for row in rows) for j in range(nc))
        seen["nontrivial_prev"] += rank >= 2 and ech[0][pivots[0]] != (1, 0)
        seen["lazy"] += lazy_catch_ups(
            rows, nc, update, lambda v: abs(v[0]) + abs(v[1]), (0, 0), (1, 0))
    assert all(seen.values()), seen


# Z[zeta_m] and its Bareiss kernel --------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 5, 7, 8, 9, 12, 61, 105])
def test_cyclotomic_integers_match_the_field(order):
    """The compiled product is `Cyclotomic.__mul__`, q times its cofactor is
    a nonzero rational integer (`norm`), `combine` is the Bareiss step
    (p x - f y) / n and `axpy` the multiply-add acc + p x, on integer
    coefficient tuples.  Over Z, the ring of orders 1 and 2, the elements
    are bare ints, the cofactor is 1 and norm(q, 1) = q.  Phi_105 has a
    coefficient -2, so a reduction that takes Phi's coefficients for signs
    alone shows there."""
    ring = _ring(order)
    d = euler_phi(order)
    assert ring.degree == d
    rng = random.Random(order)
    size = 9 if d < 10 else 2

    def element():
        e = tuple(rng.randint(-size, size) for _ in range(d))
        return e[0] if d == 1 else e

    def field(e):
        return Cyclotomic(order, (e,) if d == 1 else e)

    def coords(c):
        return c.coeffs[0] if d == 1 else c.coeffs

    def scaled(e, n):
        return e * n if d == 1 else tuple(c * n for c in e)

    for _ in range(20 if d < 10 else 2):
        p, f, x, y = (element() for _ in range(4))
        if p == ring.zero:
            continue
        assert ring.mul(p, x) == coords(field(p) * field(x))
        k = ring.cofactor(p)
        norm = ring.norm(p, k)
        if d == 1:
            assert type(p) is int and k == 1 and norm == p
        else:
            assert norm > 0 and ring.mul(p, k) == (norm,) + (0,) * (d - 1)
        t = coords(field(p) * field(x) - field(f) * field(y))
        for n in (1, norm):
            row = [scaled(x, n)]
            ring.combine(row, [scaled(y, n)], 0, 1, p, f, n)
            assert row == [t]
        acc = [f, y, ring.zero]
        ring.axpy(acc, p, [(0, x), (2, y)])
        assert acc == [coords(field(f) + field(p) * field(x)), y, coords(field(p) * field(y))]


def test_each_ring_compiles_under_its_own_filename():
    """Profiles and tracebacks tell the routines of two rings apart."""
    assert _ring(3).combine.__code__.co_filename != _ring(4).combine.__code__.co_filename
    assert _ring(3).axpy.__code__.co_filename == _ring(3).combine.__code__.co_filename


def test_a_wrong_cofactor_raises(monkeypatch):
    """q * cofactor(q) is checked at every pivot and in every inverse: a
    cofactor off by the unit zeta gives a product that is not a rational
    integer."""
    real = CyclotomicIntegers.cofactor
    monkeypatch.setattr(CyclotomicIntegers, "cofactor",
                        lambda self, q: self.mul(real(self, q), (0, 1, 0, 0)))
    with pytest.raises(InternalConsistencyError):
        rank_rows([[zeta(5), 1], [1, zeta(5) ** 2]], 2, 5)
    with pytest.raises(InternalConsistencyError):
        zeta(5).inverse()


def _field_size(v):
    return sum(abs(c) for c in v.coeffs)


def echelon_cyclo_reference(rows, ncols, order):
    """Eager Bareiss over Z[zeta_order] in `Cyclotomic` arithmetic: every row
    below the pivot is updated at every stage, with a field division by the
    previous pivot."""
    zero = Cyclotomic.from_rational(order, 0)
    m = [[Cyclotomic(order, e) for e in row] for row in rows]
    nr = len(m)
    pivots = []
    prev = Cyclotomic.from_rational(order, 1)
    r = 0
    for col in range(ncols):
        if r == nr:
            break
        candidates = [i for i in range(r, nr) if m[i][col]]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: _field_size(m[i][col]))
        m[r], m[best] = m[best], m[r]
        piv = m[r][col]
        inv = prev.inverse()
        for i in range(r + 1, nr):
            f = m[i][col]
            if f or piv != prev:
                m[i][col:] = [(piv * x - f * y) * inv if x or y else zero
                              for x, y in zip(m[i][col:], m[r][col:])]
        pivots.append(col)
        prev = piv
        r += 1
    return r, pivots, [[tuple(int(c) for c in e.coeffs) for e in row] for row in m[:r]]


def _random_cyclo_rows(rng, d):
    """Integer tuple rows with zero columns, repeated rows and rows zero in
    their first few columns, which sit idle through the first stages."""
    nr, nc = rng.randint(1, 6), rng.randint(1, 7)
    zero = (0,) * d
    rows = [[tuple(rng.randint(-3, 3) for _ in range(d)) if rng.random() < 0.6 else zero
             for _ in range(nc)] for _ in range(nr)]
    for row in rows:
        if rng.random() < 0.4:
            lead = rng.randint(1, nc)
            row[:lead] = [zero] * lead
    if nr > 2 and rng.random() < 0.4:
        rows[-1] = list(rows[rng.randrange(nr - 1)])
    if nc > 1 and rng.random() < 0.3:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = zero
    return rows, nc


@pytest.mark.parametrize("order", [5, 7, 8, 12])
def test_echelon_cyclo_matches_reference(suite, order):
    """The lazy kernel gives the eager sweep's (rank, pivots, rows), and the
    pivot columns of `field_echelon`, on random matrices and, over zeta5 and
    zeta8, on assembled ones of both variants."""
    ring = _ring(order)
    d = euler_phi(order)
    rng = random.Random(order)
    one = Cyclotomic.from_rational(order, 1)
    seen = {"deficient": 0, "zero_column": 0, "nontrivial_prev": 0, "lazy": 0}
    for _ in range(60):
        rows, nc = _random_cyclo_rows(rng, d)
        nr = len(rows)
        got = _kernels.echelon_cyclo(rows, nc, ring)
        assert got == echelon_cyclo_reference(rows, nc, order)
        rank, pivots, ech = got
        field_rows = [[Cyclotomic(order, e) for e in row] for row in rows]
        assert pivots == field_echelon(field_rows, nc, order)[0]
        seen["deficient"] += rank < min(nr, nc)
        seen["zero_column"] += any(all(not any(row[j]) for row in rows) for j in range(nc))
        seen["nontrivial_prev"] += rank >= 2 and ech[0][pivots[0]] != ring.one
        seen["lazy"] += lazy_catch_ups(
            field_rows, nc, lambda p, x, f, y, q: (p * x - f * y) / q, _field_size,
            0 * one, one)
    assert all(seen.values()), seen
    if order in (5, 8):
        # The eager sweep is slow in the field, so on assembled matrices the
        # kernel is held to the field's rank and pivot columns only.
        kinds = [ComplexKind(variant, Torus(zeta(order))) for variant in ("homology", "cohomology")]
        for tm in assembled_maps(suite, kinds):
            rank, pivots, _ = _kernels.echelon_cyclo(tm.rows, tm.domain.dim, ring)
            assert rank == len(pivots)
            assert pivots == field_echelon(field_matrix(tm), tm.domain.dim, order)[0]


@pytest.mark.parametrize("order", [None, 3, 5, 7, 8, 12, 61])
def test_ranks_never_take_the_field_sweep(order):
    """`rank_rows` and `TruncatedMap.rank` eliminate with a Bareiss kernel
    over every field; the unit-pivot sweep is this file's reference only,
    and `gwa.linalg` has none."""
    assert not hasattr(gwa.linalg, "field_echelon")
    assert not hasattr(gwa.linalg, "_to_field")
    w = zeta(order) if order else Fraction(1)
    rows = [[w, 1, 0], [w * w, w, 0], [0, 2, w]]
    assert rank_rows(rows, 3, order) == 2
    if order == 5:
        spec = GWASpec(H ** 2 - 1, S1)
        dp = assemble_total_matrix(spec, ComplexKind("homology", Torus(w)), 1, 6, 9)
        assert dp.rank() > dp.truncate(2, 5).rank() > 0
