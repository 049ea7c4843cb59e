"""Exact linear algebra on truncated polynomial spaces.

A truncated space is a finite sum of copies of k[h] cut off at a degree
bound; every dimension count in the package reduces to ranks of exact
matrices between such spaces.  How to compute over a field is decided once
per field order (`_backend`).  Every rank is computed fraction-free: rows
are scaled to integers (over Q) or to integer coefficient tuples (over
every cyclotomic field Q(zeta_m) of degree >= 2), and eliminated with the
one Bareiss kernel of `gwa._rankcore_py`, `echelon_cyclo`, over the field's
ring of integers (`gwa._cyclotomic_ring.ring`: Z over Q, Z[zeta_m] over
every other field), which scales the rows a stage leaves idle lazily.  The
exact d o d = 0 test (`compose_is_zero`) scales the
outer map's rows the same way, each by its own integer, and the whole inner
matrix by one, and it runs on integers over every field: over Q(zeta_m) of
degree d each outer entry becomes the d x d integer block of
multiplication by it, and each inner entry its d coordinates.  The scaling
contract: each row, and the inner matrix as a whole, is multiplied by a
positive integer, the lcm of its denominators, and no `Fraction` is built
on the way; so ranks, and whether a product is zero, are unchanged.  The
oracle's matrices over Q have int cells (`gwa.complexes._assemble`), so
over Q a row of plain ints is scaled by 1 and passed on as it is.
The oracle runs that test once per call and on small matrices only: the
inner map at domain degree bound 4 and the outer one at 4 plus the margin.
Each block of an assembled map shifts by at most one step, so a product
that kills the columns of degree <= 4 is zero at every bound
(`gwa.complexes._check_d_squared` states the lemma and its limits).
The Bareiss kernel is the only elimination in the package: the null-space
basis of `kernel_raw` is back-substituted in its echelon rows.

A map's rank is the number of its pivot columns, found by one elimination
and kept (`TruncatedMap.rank`).  Every elimination picks pivots column by
column, left to right, so the pivot columns of a matrix give the rank of
each of its leading column blocks, its column rank profile.  A map cut from
a larger one by `TruncatedMap.truncate` is such a block, with only zeros
below it, so its rank is a count of the larger map's pivot columns: all
the truncations of one assembled matrix share one elimination.

Truncation never fakes exactness: codomain bounds always leave enough margin
that a kernel vector of a truncated matrix is a genuine kernel vector, and
image undercounts are absorbed by the stabilization schedule, which raises
the bound until the reported value repeats.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import lcm

from . import _rankcore_py as _kernels
from .errors import InputError, InternalConsistencyError, StabilizationError
from .scalars import Cyclotomic, cyclotomic_coeffs, euler_phi


@dataclass(frozen=True)
class TruncatedSpace:
    """`copies` copies of k[h] truncated at degree <= `degree_bound`.

    Basis vectors are indexed degree-major: index(i, t) = i * copies + t for
    the monomial h^i in copy t.  Degree-major order makes the space at a
    smaller bound a prefix of the basis, so a map's matrix at smaller bounds
    is a top-left block of its matrix at larger ones (`TruncatedMap.truncate`).
    The assembled matrices are not banded: an image g (h - c)^e with c != 0
    has terms in every degree below its top, so about a fifth of their
    entries are nonzero, spread over the whole block.
    """

    field_order: int | None
    copies: int
    degree_bound: int

    @property
    def dim(self) -> int:
        return self.copies * (self.degree_bound + 1)

    def index(self, degree: int, copy: int) -> int:
        return degree * self.copies + copy


class TruncatedMap:
    """Exact dense matrix of a linear map between truncated spaces.

    A map cut by `truncate` remembers the map it was cut from, whose one
    elimination gives the ranks of all its slices (`rank`).
    """

    __slots__ = ("domain", "codomain", "rows", "_source", "_pivots")

    def __init__(self, domain: TruncatedSpace, codomain: TruncatedSpace, rows):
        if len(rows) != codomain.dim or any(len(r) != domain.dim for r in rows):
            raise InputError("matrix shape does not match the declared spaces")
        self.domain = domain
        self.codomain = codomain
        self.rows = rows
        self._source = None
        self._pivots = None

    @property
    def field_order(self) -> int | None:
        return self.codomain.field_order or self.domain.field_order

    def truncate(self, b_dom: int, b_cod: int) -> "TruncatedMap":
        """The same map between the spaces cut off at the smaller bounds.

        Degree-major indexing makes this the top-left block of the matrix.
        It is the map's matrix at those bounds only if every entry the cut
        drops from a kept column is zero, which is checked exactly.  That
        check also makes the slice's rank the number of the uncut map's
        pivot columns inside the slice's columns (see `rank`).  At
        unchanged bounds the map itself is returned.
        """
        if not (0 <= b_dom <= self.domain.degree_bound
                and 0 <= b_cod <= self.codomain.degree_bound):
            raise InputError(
                f"cannot truncate bounds ({self.domain.degree_bound}, "
                f"{self.codomain.degree_bound}) to ({b_dom}, {b_cod})"
            )
        if (b_dom, b_cod) == (self.domain.degree_bound, self.codomain.degree_bound):
            return self
        dom = TruncatedSpace(self.domain.field_order, self.domain.copies, b_dom)
        cod = TruncatedSpace(self.codomain.field_order, self.codomain.copies, b_cod)
        ncols, nrows = dom.dim, cod.dim
        for row in islice(self.rows, nrows, None):
            if any(islice(row, ncols)):
                raise InternalConsistencyError(
                    f"truncating to ({b_dom}, {b_cod}) drops a nonzero entry "
                    f"of a kept column"
                )
        cut = TruncatedMap(dom, cod, [row[:ncols] for row in self.rows[:nrows]])
        cut._source = self._source or self
        return cut

    def _pivot_columns(self) -> list[int]:
        """The pivot columns of the field's elimination (`_backend`) of the
        whole matrix, computed on the first call and kept."""
        if self._pivots is None:
            if self.rows and self.domain.dim:
                eliminate, _ = _backend(self.field_order)
                self._pivots = eliminate(self.rows, self.domain.dim)[1]
            else:
                self._pivots = []
        return self._pivots

    def rank(self) -> int:
        """Rank of the matrix: its number of pivot columns, or for a slice
        the number of the uncut map's pivot columns among its own columns
        (the column rank profile; see the module docstring)."""
        if self._source is None:
            return len(self._pivot_columns())
        return bisect_left(self._source._pivot_columns(), self.domain.dim)


# Scalar-row preparation (the scaling contract in the module docstring) ------


def _rational(v, order=None):
    """`v` as an int or `Fraction`; `v` may be a rational `Cyclotomic`."""
    if isinstance(v, Cyclotomic):
        if order is not None and not v.is_rational():
            raise InputError(f"mixed cyclotomic orders {v.order} and {order}")
        return v.rational_value()
    return v


def _int_row(row):
    """`row` times the lcm of its denominators: a list of ints.

    Entries may be ints, `Fraction`s and rational `Cyclotomic`s.  A row of
    plain ints, as the oracle assembles over Q, is scaled by 1: it is
    returned itself, not copied, so callers must not mutate the result.
    """
    if set(map(type, row)) <= {int}:
        return row
    if any(isinstance(v, Cyclotomic) for v in row):
        row = [_rational(v) for v in row]
    den = 1
    for v in row:
        d = v.denominator
        if d != 1 and den % d:
            den = lcm(den, d)
    if den == 1:
        return [v.numerator for v in row]
    return [v.numerator * (den // v.denominator) if v else 0 for v in row]


def _coeff_row(row, order):
    """`row` over Q(zeta_order), a field of degree phi >= 2, as integer
    coefficient phi-tuples, scaled by the lcm of all coefficient denominators.

    Entries may be ints, `Fraction`s and `Cyclotomic`s of that order or
    rational ones of any order.  Zero entries become one shared zero tuple.
    """
    zero = (0,) * euler_phi(order)
    tuples = [zero if not v
              else v.coeffs if isinstance(v, Cyclotomic) and v.order == order
              else (_rational(v, order),) + zero[1:]
              for v in row]
    den = 1
    for t in tuples:
        if t is not zero:
            for v in t:
                dv = v.denominator
                if dv != 1 and den % dv:
                    den = lcm(den, dv)
    return [t if t is zero
            else tuple(v.numerator * (den // v.denominator) if v else 0 for v in t)
            for t in tuples]


def _field(order: int | None) -> int | None:
    """The field order to compute in; None for Q, which Q(zeta_1) and
    Q(zeta_2) are."""
    return None if order is None or euler_phi(order) == 1 else order


# Elimination ----------------------------------------------------------------


def _scaled_as_one(rows, scale_row):
    """`rows` all multiplied by one positive integer: `scale_row` applied to
    the matrix read as one long row, cut back into rows."""
    width = len(rows[0]) if rows else 0
    flat = scale_row([v for row in rows for v in row])
    return [flat[i * width:(i + 1) * width] for i in range(len(rows))]


def _block_rows(row, phi):
    """The d integer rows of multiplication by the entries of `row`, a row
    of d-tuples in Z[z]/Phi with Phi = phi ascending and monic of degree d.

    Entry j becomes the d x d block whose column k holds the coordinates
    of a_j z^k, in column k * len(row) + j.  Each a_j z^k is a_j z^(k-1)
    times z, reduced by one step of z^d = -(phi_0 + ... + phi_{d-1}
    z^(d-1)), for the whole row at once.  For d = 2, Phi = t^2 + b t + c,
    the block of a0 + a1 z is [[a0, -c a1], [a1, a0 - b a1]].
    """
    d = len(phi) - 1
    # x[t][j]: coordinate t of a_j z^k, for k = 0, 1, ... in turn.
    x = [[a[t] for a in row] for t in range(d)]
    out = [list(xt) for xt in x]
    for _ in range(d - 1):
        top = x[-1]
        x = [[-phi[0] * v for v in top]] + [
            [u - p * v for u, v in zip(xt, top)] for xt, p in zip(x, phi[1:d])]
        for o, xt in zip(out, x):
            o += xt
    return out


@lru_cache(maxsize=32)
def _backend(field_order):
    """How to compute over the field of `field_order`, decided once per order.

    Returns (eliminate, factors).  `eliminate(rows, ncols)` prepares the
    rows and returns (rank, pivot_columns, echelon_rows).  `factors(outer,
    inner)` turns the rows of two matrices into integer rows A and B with
    A B = 0 exactly when outer o inner = 0.  Over Q(zeta_m) of degree d
    both take the integer coefficient d-tuples of `_coeff_row`: the ranks
    go to `echelon_cyclo` over Z[zeta_m], and in A each outer entry
    becomes its d x d block (`_block_rows`), in B each inner entry its d
    coordinates.  The ring is `gwa._cyclotomic_ring.ring(order)` (over Q,
    Z, which `echelon_int` takes itself), imported on the first
    elimination, not with the package.  The
    Bareiss kernel is looked up on `_kernels` at each call, so a wrapper
    installed there later still sees every call; over Q the call goes
    through the name `echelon_int` and for d = 2 through `echelon_quad`,
    both `echelon_cyclo` again.
    """
    order = _field(field_order)
    if order is None:
        def eliminate(rows, ncols):
            return _kernels.echelon_int([_int_row(row) for row in rows], ncols)

        def factors(outer, inner):
            return [_int_row(row) for row in outer], _scaled_as_one(inner, _int_row)

    else:
        from . import _cyclotomic_ring

        ring = _cyclotomic_ring.ring(order)
        phi = cyclotomic_coeffs(order)
        d = ring.degree

        def eliminate(rows, ncols):
            echelon = _kernels.echelon_quad if d == 2 else _kernels.echelon_cyclo
            return echelon([_coeff_row(row, order) for row in rows], ncols, ring)

        def factors(outer, inner):
            blocks = [r for row in outer for r in _block_rows(_coeff_row(row, order), phi)]
            scaled = _scaled_as_one(inner, lambda row: _coeff_row(row, order))
            return blocks, [[e[k] for e in row] for k in range(d) for row in scaled]

    return eliminate, factors


def rank_rows(rows, ncols, field_order=None) -> int:
    """Rank of a matrix given as rows of exact scalars."""
    if not rows or ncols == 0:
        return 0
    eliminate, _ = _backend(field_order)
    return eliminate(rows, ncols)[0]


def kernel_raw(rows, ncols, field_order=None):
    """Basis of the right null space {v : M v = 0}, denominators cleared.

    Entries are ints over the rationals and `Cyclotomic`s with integer
    coefficients otherwise.  The rows are eliminated as for a rank
    (`_backend`); each non-pivot column then yields one vector by
    back-substitution in the field, through the echelon rows' integer
    cells, with one exact division by each pivot.
    """
    order = _field(field_order)
    eliminate, _ = _backend(order)
    _, pivots, ech = eliminate(rows, ncols)
    if order is None:
        zero, one = Fraction(0), Fraction(1)
    else:
        zero, one = Cyclotomic.from_rational(order, 0), Cyclotomic.from_rational(order, 1)
        ech = [[Cyclotomic(order, t, reduce=False) if any(t) else zero for t in row]
               for row in ech]
    inverses = [one / row[p] for row, p in zip(ech, pivots)]
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for row, p, inv in zip(reversed(ech), reversed(pivots), reversed(inverses)):
            if p < free:
                acc = zero
                for j in range(p + 1, free + 1):
                    if row[j] and v[j]:
                        acc = acc + row[j] * v[j]
                v[p] = -acc * inv
        basis.append(_clear_denominators(v, order))
    return basis


def _clear_denominators(v, order):
    if order is None:
        den = lcm(*(e.denominator for e in v))
        return [int(e * den) for e in v]
    den = lcm(*(c.denominator for e in v for c in e.coeffs))
    return [Cyclotomic(order, [c * den for c in e.coeffs], reduce=False) for e in v]


# Stabilization --------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Degree schedule: evaluate at start, start+step, ... until the value
    repeats `window` times in a row; give up past `d_max`."""

    start: int
    step: int = 4
    window: int = 2
    d_max: int = 240

    @classmethod
    def default(cls, n: int, d_max: int | None = None) -> "Schedule":
        return cls(start=max(4 * n, 12), d_max=d_max if d_max is not None else 240)

    def lookahead(self, d: int) -> int:
        """The D evaluated after d, or d itself when the cap stops there."""
        return d + self.step if d + self.step <= self.d_max else d


@dataclass(frozen=True)
class StabilizedDim:
    """A dimension certified by repetition along a truncation schedule."""

    value: int
    stabilized_at: int
    history: tuple

    def __int__(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other
        if isinstance(other, StabilizedDim):
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(self.value)


def stabilize(evaluate, schedule: Schedule):
    """Run `evaluate(D)` along the schedule until the value repeats.

    Returns (value, stabilized_at, history).  `evaluate` may return any
    equality-comparable value (an int or a tuple of ints).
    """
    history = []
    streak = 0
    last = None
    d = schedule.start
    while d <= schedule.d_max:
        val = evaluate(d)
        history.append((d, val))
        if last is not None and val == last:
            streak += 1
        else:
            streak = 1
            last = val
        if streak >= schedule.window:
            return val, d, tuple(history)
        d += schedule.step
    raise StabilizationError(
        f"no stabilization before D={schedule.d_max}: history={history}"
    )


# Homology of a truncated complex --------------------------------------------


def homology_dim_at(dp: TruncatedMap, dnext: TruncatedMap) -> int:
    """dim ker(dp) - dim(ker(dp) meet im(dnext)), from three ranks.

    Precondition: dp o dnext = 0 on every vector that dnext maps into dp's
    domain.  The oracle certifies d o d = 0 exactly, once per call and for
    every bound, before its first call here (`compose_is_zero` at degree
    bound 4; see `gwa.complexes._check_d_squared`).  Then
    a boundary of degree <= dp's domain bound lies in ker(dp), so
    ker(dp) meet im(N) = im(N) meet L, with N = dnext's matrix and L the
    coordinates of dp's domain, the lowest ones in degree-major order.  And
    dim(im(N) meet L) = rank(N) - rank(N_top), where N_top is N's rows above
    L.  So the value is nullity(dp) - rank(N) + rank(N_top), with no kernel
    basis.  Without the precondition it can undercount.

    The ranks of dp and N are `TruncatedMap.rank`: for slices of assembled
    maps, pivot counts of the assembled map's one elimination.  N_top is
    not a column prefix of anything eliminated, so it is ranked afresh.
    """
    if dp.domain.copies != dnext.codomain.copies:
        raise InputError("homology spaces disagree on the number of k[h] copies")
    if dp.domain.degree_bound > dnext.codomain.degree_bound:
        raise InputError("kernel space must embed in the boundary codomain")
    order = dp.field_order or dnext.field_order
    low = dp.domain.dim
    return (low - dp.rank() - dnext.rank()
            + rank_rows(dnext.rows[low:], dnext.domain.dim, order))


def compose_is_zero(outer: TruncatedMap, inner: TruncatedMap) -> bool:
    """Exact check that outer o inner = 0.

    The field's backend turns outer's rows and inner's matrix into integer
    rows A and B with A B = 0 exactly when the product is zero; see the
    scaling contract in the module docstring.  Each row of A B is
    accumulated from the rows of B at the nonzeros of a row of A, so only
    structural nonzeros are multiplied.
    """
    if inner.codomain.dim != outer.domain.dim:
        raise InputError("composition shape mismatch")
    _, factors = _backend(outer.field_order or inner.field_order)
    a_rows, b_rows = factors(outer.rows, inner.rows)
    b_sparse = [[(t, v) for t, v in enumerate(row) if v] for row in b_rows]
    width = inner.domain.dim
    for row in a_rows:
        acc = [0] * width
        for j, c in enumerate(row):
            if c:
                for t, v in b_sparse[j]:
                    acc[t] += c * v
        if any(acc):
            return False
    return True
