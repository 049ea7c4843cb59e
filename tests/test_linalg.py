import random
from fractions import Fraction

import pytest

from gwa.algebra import GWASpec, Torus
from gwa.complexes import ComplexKind, assemble_total_matrix
from gwa.errors import StabilizationError
from gwa.invariants import h0_bruteforce
from gwa.linalg import (
    Schedule,
    TruncatedMap,
    TruncatedSpace,
    compose_is_zero,
    homology_dim_at,
    kernel_raw,
    rank_rows,
    stabilize,
)
from gwa.poly import Poly, ShiftSigma, sigma_pow
from gwa.scalars import Cyclotomic, euler_phi, zeta

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


def test_homology_dim_trivial_cases():
    space = TruncatedSpace(None, 1, 6)
    zero = TruncatedMap.zero(space, TruncatedSpace(None, 1, 8))
    zero_in = TruncatedMap.zero(TruncatedSpace(None, 1, 4), space)
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
    zero = TruncatedMap.zero(s1, s1)
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
              for v in kernel_raw(dp.rows, dp.domain.dim, order)]
    n_cols = dnext.columns()
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
