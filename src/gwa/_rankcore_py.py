"""Fraction-free elimination kernels.

Bareiss-style row echelon over the integers (`echelon_int`) and over
Z[zeta_m] for every cyclotomic field of degree two or more (`echelon_cyclo`,
with the arithmetic of `gwa._cyclotomic_ring`).  `echelon_quad` is only
`echelon_cyclo` under a second name, for the fields of degree two.
`gwa.linalg` loads this module as `_kernels`.

Entries after stage r of the Bareiss sweep are r x r minors of the input, so
every division below is exact; this is what keeps coefficient growth under
control compared to naive rational elimination.

Idle rows are scaled lazily.  At stage t the eager sweep multiplies every
row that is zero in the pivot column by piv_t / piv_{t-1}, and over a run of
such stages these factors telescope: a row last updated at stage s holds
values x_s whose stage-t values are x_s * piv_t / piv_s.  So the kernels
keep the past pivots (`hist`, with hist[0] = 1) and the stage each row was
last brought to, and leave idle rows alone.  A row is caught up only when it
is touched again:

- as a pivot candidate, its entry in the pivot column is compared at its
  current-stage value x_s * prev / hist[s], so the pivot choice, and with it
  (rank, pivots, rows), is that of the eager sweep;
- as the pivot, the row is brought to the current stage with one exact
  x * prev // hist[s] per nonzero cell;
- as a row to update, the Bareiss step runs on its stale values with its
  own stage's pivot as divisor, (piv * x_s - f_s * y) / hist[s], which is
  the eager (piv * x - f * y) / prev since x and f both carry the factor
  prev / hist[s].

Every intermediate value is an integer minor (in Z[z] for `echelon_cyclo`),
so each of these divisions is exact.  Over Z[z] a division by a
past pivot q is a product with its cofactor k, the product of the other
Galois conjugates of q, and an exact division by the rational integer
N = q * k.
"""

from __future__ import annotations

from .errors import InternalConsistencyError


def echelon_int(rows, ncols):
    """Fraction-free row echelon of an integer matrix.

    Returns (rank, pivot_columns, echelon_rows); echelon_rows holds the
    `rank` nonzero rows, each with integer entries and leading entry in its
    pivot column.  Cells zero in both rows stay zero, and idle rows are
    scaled lazily (module docstring).
    """
    m = [list(r) for r in rows]
    nr = len(m)
    pivots = []
    hist = [1]
    stage = [0] * nr
    r = 0
    for col in range(ncols):
        if r == nr:
            break
        prev = hist[r]
        best = -1
        best_abs = 0
        for i in range(r, nr):
            v = m[i][col]
            if v:
                s = stage[i]
                if s != r:
                    v = v * prev // hist[s]
                av = -v if v < 0 else v
                if best < 0 or av < best_abs:
                    best, best_abs = i, av
        if best < 0:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
            stage[r], stage[best] = stage[best], stage[r]
        row_r = m[r]
        old = hist[stage[r]]
        if old != prev:
            for j in range(col, ncols):
                y = row_r[j]
                if y:
                    row_r[j] = y * prev // old
        piv = row_r[col]
        for i in range(r + 1, nr):
            row_i = m[i]
            f = row_i[col]
            if f:
                div = hist[stage[i]]
                for j in range(col, ncols):
                    x = row_i[j]
                    y = row_r[j]
                    if x or y:
                        row_i[j] = (piv * x - f * y) // div
                stage[i] = r + 1
        pivots.append(col)
        hist.append(piv)
        r += 1
    return r, pivots, m[:r]


def echelon_cyclo(rows, ncols, ring):
    """Fraction-free row echelon over Z[z]/Phi_m, Phi_m of degree >= 2.

    Entries are the coefficient tuples of `ring`, a
    `gwa._cyclotomic_ring.CyclotomicIntegers`.  Same contract as
    `echelon_int`, idle rows scaled lazily in the same way.  A division by a
    past pivot q multiplies by its cofactor k and divides exactly by the
    rational integer N = q * k; both are computed once per stage and kept in
    `hist`, and q * k is checked to be a nonzero rational integer, so a
    wrong cofactor raises rather than giving a wrong rank.  In the Bareiss
    step the cofactor is folded into the two multipliers,
    (piv * x - f * y) * k = (piv * k) * x - (f * k) * y, one product per
    cell fewer.  Cells zero in both rows stay zero.
    """
    mul, combine, zero = ring.mul, ring.combine, ring.zero
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
                    v = [t // nq for t in mul(mul(v, q), k)]
                size = sum(map(abs, v))
                if best < 0 or size < best_size:
                    best, best_size = i, size
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
                    row_r[j] = tuple(t // nq for t in mul(g, y))
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
        norm = mul(p, k)
        if not norm[0] or any(norm[1:]):
            raise InternalConsistencyError(
                f"pivot {p} times its cofactor {k} is {norm}, not a nonzero "
                f"rational integer"
            )
        hist.append((p, k, norm[0]))
        r += 1
    return r, pivots, m[:r]


def echelon_quad(rows, ncols, ring):
    """`echelon_cyclo` over a field of degree two (zeta3, zeta4, zeta6).

    A function of its own, not an alias, so that a wrapper set on this name
    (the benchmark's tracer, `oraclebench/spans.py`) counts the quadratic
    ranks and no others.
    """
    return echelon_cyclo(rows, ncols, ring)
