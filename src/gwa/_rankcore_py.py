"""Fraction-free elimination kernels.

Bareiss-style row echelon over the integers and over the ring of integers of
a quadratic cyclotomic field (enough for the twists by -1, zeta3, zeta4 and
zeta6 that appear in practice).  `gwa.linalg` loads this module as
`_kernels`.

Entries after stage r of the Bareiss sweep are r x r minors of the input, so
every division below is exact; this is what keeps coefficient growth under
control compared to naive rational elimination.
"""

from __future__ import annotations

def echelon_int(rows, ncols):
    """Fraction-free row echelon of an integer matrix.

    Returns (rank, pivot_columns, echelon_rows); echelon_rows holds the
    `rank` nonzero rows, each with integer entries and leading entry in its
    pivot column.  Cells zero in both rows stay zero.
    """
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
            if v:
                av = -v if v < 0 else v
                if best < 0 or av < best_abs:
                    best, best_abs = i, av
        if best < 0:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
        piv = m[r][col]
        row_r = m[r]
        for i in range(r + 1, nr):
            row_i = m[i]
            f = row_i[col]
            if f:
                for j in range(col, ncols):
                    x = row_i[j]
                    y = row_r[j]
                    if x or y:
                        row_i[j] = (piv * x - f * y) // prev
            elif piv != prev:
                for j in range(col, ncols):
                    x = row_i[j]
                    if x:
                        row_i[j] = (piv * x) // prev
        pivots.append(col)
        prev = piv
        r += 1
    return r, pivots, m[:r]


def echelon_quad(rows, ncols, b, c):
    """Fraction-free row echelon over Z[z]/(z^2 + b z + c).

    Entries are (a0, a1) pairs for a0 + a1 z.  Same contract as
    `echelon_int`.  The update x -> (piv * x - f * y) / prev is written out
    on the pairs; the division multiplies by conj(prev) = (q0 - b q1) - q1 z
    and divides exactly by the rational integer prev * conj(prev), both
    computed once per stage.  Cells zero in both rows stay zero.
    """
    m = [[(e[0], e[1]) for e in row] for row in rows]
    nr = len(m)
    pivots = []
    p0, p1 = 1, 0
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
        if best != r:
            m[r], m[best] = m[best], m[r]
        # The previous pivot q divides every updated cell; k0 + k1 z is its
        # conjugate and nq its norm.
        q0, q1 = p0, p1
        k0, k1 = q0 - b * q1, -q1
        nq = q0 * k0 - c * q1 * k1
        trivial_prev = q0 == 1 and q1 == 0
        row_r = m[r]
        p0, p1 = row_r[col]
        for i in range(r + 1, nr):
            row_i = m[i]
            f0, f1 = row_i[col]
            if f0 or f1:
                for j in range(col, ncols):
                    x0, x1 = row_i[j]
                    y0, y1 = row_r[j]
                    if not (x0 or x1 or y0 or y1):
                        continue
                    # t = piv * x - f * y
                    u = p1 * x1 - f1 * y1
                    t0 = p0 * x0 - f0 * y0 - c * u
                    t1 = p0 * x1 + p1 * x0 - f0 * y1 - f1 * y0 - b * u
                    if not trivial_prev:
                        u = t1 * k1
                        t0, t1 = (t0 * k0 - c * u) // nq, (t0 * k1 + t1 * k0 - b * u) // nq
                    row_i[j] = (t0, t1)
            elif p0 != q0 or p1 != q1:
                for j in range(col, ncols):
                    x0, x1 = row_i[j]
                    if not (x0 or x1):
                        continue
                    u = p1 * x1
                    t0 = p0 * x0 - c * u
                    t1 = p0 * x1 + p1 * x0 - b * u
                    if not trivial_prev:
                        u = t1 * k1
                        t0, t1 = (t0 * k0 - c * u) // nq, (t0 * k1 + t1 * k0 - b * u) // nq
                    row_i[j] = (t0, t1)
        pivots.append(col)
        r += 1
    return r, pivots, m[:r]
