"""Fraction-free elimination: one Bareiss kernel for every field.

`echelon_cyclo` is a row echelon over Z[zeta_m] with the arithmetic of
`gwa._cyclotomic_ring`, for every cyclotomic field, Q included: over Q the
ring is Z, the cyclotomic ring of order 1, whose elements are bare ints.
`echelon_int` (over Z) and `echelon_quad` (over the fields of degree two)
are only `echelon_cyclo` under other names.  `gwa.linalg` loads this module
as `_kernels`.

Entries after stage r of the Bareiss sweep are r x r minors of the input, so
every division below is exact; this is what keeps coefficient growth under
control compared to naive rational elimination.

Idle rows are scaled lazily.  At stage t the eager sweep multiplies every
row that is zero in the pivot column by piv_t / piv_{t-1}, and over a run of
such stages these factors telescope: a row last updated at stage s holds
values x_s whose stage-t values are x_s * piv_t / piv_s.  So the kernel
keeps the past pivots (`hist`, with hist[0] = 1) and the stage each row was
last brought to, and leaves idle rows alone.  A row is caught up only when
it is touched again:

- as a pivot candidate, its entry in the pivot column is compared at its
  current-stage value x_s * prev / hist[s], so the pivot choice, and with it
  (rank, pivots, rows), is that of the eager sweep;
- as the pivot, the row is brought to the current stage with one exact
  x * prev / hist[s] per nonzero cell;
- as a row to update, the Bareiss step runs on its stale values with its
  own stage's pivot as divisor, (piv * x_s - f_s * y) / hist[s], which is
  the eager (piv * x - f * y) / prev since x and f both carry the factor
  prev / hist[s].

Every intermediate value is an integer minor in Z[z], so each of these
divisions is exact.  A division by a past pivot q is a product with its
cofactor k, the product of the other Galois conjugates of q (k = 1 in Z),
and an exact division by the rational integer N = q * k.
"""

from __future__ import annotations


def echelon_int(rows, ncols):
    """`echelon_cyclo` over Z, the cyclotomic ring of order 1: rows of ints.
    The ring's module is imported on the first call, not with the package."""
    from ._cyclotomic_ring import ring

    return echelon_cyclo(rows, ncols, ring(1))


def echelon_cyclo(rows, ncols, ring):
    """Fraction-free row echelon over Z[z]/Phi_m.

    Entries are the elements of `ring`, a
    `gwa._cyclotomic_ring.CyclotomicIntegers`: bare ints over Z, integer
    coefficient tuples otherwise.  Returns (rank, pivot_columns,
    echelon_rows); echelon_rows holds the `rank` nonzero rows, each with
    leading entry in its pivot column.  Idle rows are scaled lazily (module
    docstring).  A division by a past pivot q multiplies by its cofactor k
    and divides exactly by the rational integer N = q * k; both are computed
    once per stage and kept in `hist`, and q * k is checked to be a nonzero
    rational integer (`ring.norm`), so a wrong cofactor raises rather than
    giving a wrong rank.  In the Bareiss step the cofactor is folded into
    the two multipliers, (piv * x - f * y) * k = (piv * k) * x - (f * k) *
    y, one product per cell fewer.  Cells zero in both rows stay zero.
    """
    mul, combine, exact, size, zero = ring.mul, ring.combine, ring.exact, ring.size, ring.zero
    m = [list(row) for row in rows]
    nr = len(m)
    pivots = []
    # hist[s] = (q, k, nq): the pivot of stage s, its cofactor and its norm.
    hist = [(ring.one, ring.one, 1)]
    stage = [0] * nr
    r = 0
    for col in range(ncols):
        if r == nr:
            break
        q = hist[r][0]
        best = -1
        best_size = 0
        for i in range(r, nr):
            v = m[i][col]
            if v != zero:
                s = stage[i]
                if s != r:
                    # The current-stage value v * q / hist[s].
                    _, k, nq = hist[s]
                    v = exact(mul(mul(v, q), k), nq)
                sv = size(v)
                if best < 0 or sv < best_size:
                    best, best_size = i, sv
        if best < 0:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
            stage[r], stage[best] = stage[best], stage[r]
        row_r = m[r]
        old, k, nq = hist[stage[r]]
        if old != q:
            g = mul(q, k)
            for j in range(col, ncols):
                y = row_r[j]
                if y != zero:
                    row_r[j] = exact(mul(g, y), nq)
        p = row_r[col]
        for i in range(r + 1, nr):
            row_i = m[i]
            f = row_i[col]
            if f != zero:
                _, k, nq = hist[stage[i]]
                combine(row_i, row_r, col, ncols, mul(p, k), mul(f, k), nq)
                stage[i] = r + 1
        pivots.append(col)
        k = ring.cofactor(p)
        hist.append((p, k, ring.norm(p, k)))
        r += 1
    return r, pivots, m[:r]


def echelon_quad(rows, ncols, ring):
    """`echelon_cyclo` over a field of degree two (zeta3, zeta4, zeta6).

    `echelon_int` and this are functions of their own, not aliases, so that
    a wrapper set on either name (the benchmark's tracer,
    `oraclebench/spans.py`) counts the ranks over Q, or the quadratic ranks,
    and no others.
    """
    return echelon_cyclo(rows, ncols, ring)
