"""Fraction-free elimination kernels.

Bareiss-style row echelon over the integers (`echelon_int`), over the ring
of integers of a quadratic cyclotomic field (`echelon_quad`: the twists by
zeta3, zeta4 and zeta6) and over Z[zeta_m] for every cyclotomic field of
degree above two (`echelon_cyclo`, with the arithmetic of
`gwa._cyclotomic_ring`).  `gwa.linalg` loads this module as `_kernels`.

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

Every intermediate value is an integer minor (in Z[z] for the cyclotomic
kernels), so each of these divisions is exact.  Over Z[z] a division by a
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


def echelon_quad(rows, ncols, b, c):
    """Fraction-free row echelon over Z[z]/(z^2 + b z + c).

    Entries are (a0, a1) pairs for a0 + a1 z.  Same contract as
    `echelon_int`, idle rows scaled lazily in the same way.  A division by a
    past pivot q multiplies by conj(q) = (q0 - b q1) - q1 z and divides
    exactly by the rational integer q * conj(q); both are computed once per
    stage and kept in `hist`.  Cells zero in both rows stay zero.
    """
    m = [[(e[0], e[1]) for e in row] for row in rows]
    nr = len(m)
    pivots = []
    # hist[s] = (q0, q1, k0, k1, nq, unit): the pivot q0 + q1 z of stage s,
    # its conjugate k0 + k1 z, its norm nq, and whether q is 1.
    hist = [(1, 0, 1, 0, 1, True)]
    stage = [0] * nr
    r = 0
    for col in range(ncols):
        if r == nr:
            break
        q0, q1 = hist[r][:2]
        best = -1
        best_size = 0
        for i in range(r, nr):
            v0, v1 = m[i][col]
            if v0 or v1:
                s = stage[i]
                if s != r:
                    # The current-stage value v * q / hist[s].
                    _, _, k0, k1, nq, _ = hist[s]
                    u = q1 * v1
                    t0 = q0 * v0 - c * u
                    t1 = q0 * v1 + q1 * v0 - b * u
                    u = t1 * k1
                    v0, v1 = (t0 * k0 - c * u) // nq, (t0 * k1 + t1 * k0 - b * u) // nq
                size = abs(v0) + abs(v1)
                if best < 0 or size < best_size:
                    best, best_size = i, size
        if best < 0:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
            stage[r], stage[best] = stage[best], stage[r]
        row_r = m[r]
        s = stage[r]
        if s != r:
            o0, o1, k0, k1, nq, _ = hist[s]
            if o0 != q0 or o1 != q1:
                # Multiply by g = q * conj(hist[s]) and divide by its norm.
                u = q1 * k1
                g0 = q0 * k0 - c * u
                g1 = q0 * k1 + q1 * k0 - b * u
                for j in range(col, ncols):
                    y0, y1 = row_r[j]
                    if y0 or y1:
                        u = g1 * y1
                        row_r[j] = ((g0 * y0 - c * u) // nq,
                                    (g0 * y1 + g1 * y0 - b * u) // nq)
        p0, p1 = row_r[col]
        for i in range(r + 1, nr):
            row_i = m[i]
            f0, f1 = row_i[col]
            if f0 or f1:
                _, _, k0, k1, nq, unit = hist[stage[i]]
                for j in range(col, ncols):
                    x0, x1 = row_i[j]
                    y0, y1 = row_r[j]
                    if not (x0 or x1 or y0 or y1):
                        continue
                    # t = piv * x - f * y
                    u = p1 * x1 - f1 * y1
                    t0 = p0 * x0 - f0 * y0 - c * u
                    t1 = p0 * x1 + p1 * x0 - f0 * y1 - f1 * y0 - b * u
                    if not unit:
                        u = t1 * k1
                        t0, t1 = (t0 * k0 - c * u) // nq, (t0 * k1 + t1 * k0 - b * u) // nq
                    row_i[j] = (t0, t1)
                stage[i] = r + 1
        pivots.append(col)
        k0, k1 = p0 - b * p1, -p1
        hist.append((p0, p1, k0, k1, p0 * k0 - c * p1 * k1, p0 == 1 and p1 == 0))
        r += 1
    return r, pivots, m[:r]


def echelon_cyclo(rows, ncols, ring):
    """Fraction-free row echelon over Z[z]/Phi_m, Phi_m of degree > 2.

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
