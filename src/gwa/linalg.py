"""Exact linear algebra on truncated polynomial spaces.

A truncated space is a finite sum of copies of k[h] cut off at a degree
bound; every dimension count in the package reduces to ranks of exact
matrices between such spaces.  Every field takes the same steps over its
ring of integers (`_ring`: Z over Q, Z[zeta_m] over every other field; the
arithmetic is `gwa._cyclotomic_ring`'s), and the one Bareiss kernel of
`gwa._rankcore_py`, `echelon_cyclo`, is the only elimination in the
package, scaling the rows a stage leaves idle lazily; the null-space basis
of `kernel_raw` is back-substituted in its echelon rows.

The cell contract: a `TruncatedMap` holds elements of its field's ring,
bare ints over Q and integer d-tuples over Q(zeta_m) of degree d >= 2: the
map's matrix times the lcm of all its entries' denominators (1 on the
oracle's normal form).  Ranks, pivot columns and zero products are the
map's, so `TruncatedMap.rank`, the N_top rank of `homology_dim_at` and the
exact d o d = 0 test (`compose_is_zero`, with the ring's `axpy`; see
`gwa.complexes._check_d_squared` for the bound it runs at) take the rows
as they are.  The ring's `scale` turns field scalars into ring elements
for the public `TruncatedMap` constructor, and for `rank_rows` and
`kernel_raw`, which take rows of ring elements as they are too.

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
from itertools import islice
from math import gcd

from . import _rankcore_py as _kernels
from .errors import InputError, InternalConsistencyError, StabilizationError
from .scalars import Cyclotomic, euler_phi


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
    """Exact dense matrix of a linear map between truncated spaces, in the
    cell format of the module docstring; `_den` is the lcm its matrix was
    multiplied by.  The constructor converts rows of field scalars by the
    ring's `scale`; `_of` takes ring elements.  A map cut by `truncate`
    remembers the map it was cut from, whose one elimination gives the
    ranks of all its slices (`rank`)."""

    __slots__ = ("domain", "codomain", "rows", "_den", "_source", "_pivots")

    def __init__(self, domain: TruncatedSpace, codomain: TruncatedSpace, rows):
        if len(rows) != codomain.dim or any(len(r) != domain.dim for r in rows):
            raise InputError("matrix shape does not match the declared spaces")
        den, flat = _ring(codomain.field_order or domain.field_order).scale(
            [v for row in rows for v in row])
        self.domain, self.codomain, self._den = domain, codomain, den
        self.rows = [flat[i * domain.dim:(i + 1) * domain.dim] for i in range(len(rows))]
        self._source = self._pivots = None

    @classmethod
    def _of(cls, domain: TruncatedSpace, codomain: TruncatedSpace, rows, den=1):
        """The map whose cells are `rows`, its matrix times `den`."""
        self = object.__new__(cls)
        self.domain, self.codomain, self.rows, self._den = domain, codomain, rows, den
        self._source = self._pivots = None
        return self

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
        ncols, nrows, ring = dom.dim, cod.dim, _ring(self.field_order)
        for row in islice(self.rows, nrows, None):
            if row[:ncols].count(ring.zero) != ncols:
                raise InternalConsistencyError(
                    f"truncating to ({b_dom}, {b_cod}) drops a nonzero entry "
                    f"of a kept column"
                )
        rows, den = [row[:ncols] for row in self.rows[:nrows]], self._den
        if den != 1:
            # The slice's own lcm is den over its gcd with every coefficient.
            g = gcd(den, *(gcd(*v) if type(v) is tuple else v for row in rows for v in row))
            rows = [[ring.exact(v, g) for v in row] for row in rows]
            den //= g
        cut = TruncatedMap._of(dom, cod, rows, den)
        cut._source = self._source or self
        return cut

    def _pivot_columns(self) -> list[int]:
        """The pivot columns of the Bareiss elimination (`_echelon`) of the
        whole matrix, computed on the first call and kept."""
        if self._pivots is None:
            self._pivots = _echelon(self.rows, self.domain.dim, _ring(self.field_order))[1]
        return self._pivots

    def rank(self) -> int:
        """Rank of the matrix: its number of pivot columns, or for a slice
        the number of the uncut map's pivot columns among its own columns
        (the column rank profile; see the module docstring)."""
        if self._source is None:
            return len(self._pivot_columns())
        return bisect_left(self._source._pivot_columns(), self.domain.dim)


def _ring(field_order):
    """The ring of integers every computation over the field of
    `field_order` runs in (`gwa._cyclotomic_ring.ring`): Z over Q, which
    Q(zeta_1) and Q(zeta_2) are, and Z[zeta_m] of degree d >= 2 otherwise.
    The ring's module is imported on the first call, not with the package."""
    from ._cyclotomic_ring import ring

    return ring(1 if field_order is None or euler_phi(field_order) == 1 else field_order)


# Elimination ----------------------------------------------------------------


def _echelon(rows, ncols, ring):
    """(rank, pivot_columns, echelon_rows) of rows of `ring`'s elements by
    the Bareiss kernel, looked up on `_kernels` at each call for the
    tracer's sake: as `echelon_int` over Z and `echelon_quad` for degree 2,
    both `echelon_cyclo` again.  No rows or no columns take no elimination."""
    if not rows or not ncols:
        return 0, [], []
    if ring.degree == 1:
        return _kernels.echelon_int(rows, ncols)
    echelon = _kernels.echelon_quad if ring.degree == 2 else _kernels.echelon_cyclo
    return echelon(rows, ncols, ring)


def _eliminate(rows, ncols, field_order):
    """`_echelon` of rows of ring elements (ints over Z, tuples otherwise),
    taken as they are, or of field scalars, scaled by the ring's `scale`."""
    ring = _ring(field_order)
    cells = {int if ring.degree == 1 else tuple}
    return _echelon([row if set(map(type, row)) <= cells else ring.scale(row)[1]
                     for row in rows], ncols, ring)


def rank_rows(rows, ncols, field_order=None) -> int:
    """Rank of a matrix given as rows of exact scalars or of ring elements."""
    return _eliminate(rows, ncols, field_order)[0]


def kernel_raw(rows, ncols, field_order=None):
    """Basis of the right null space {v : M v = 0}, denominators cleared.

    Entries are ints over the rationals and `Cyclotomic`s with integer
    coefficients otherwise.  The rows are eliminated as for a rank
    (`_eliminate`); each non-pivot column then yields one vector by
    back-substitution in the field, through the echelon rows' integer
    cells, with one exact division by each pivot, and is scaled by the
    ring's `scale`.
    """
    ring = _ring(field_order)
    _, pivots, ech = _eliminate(rows, ncols, field_order)
    if ring.degree == 1:
        # Z's elements, ints, are scalars of Q as they are.
        zero, one, element = Fraction(0), Fraction(1), int
    else:
        order = ring.order
        zero, one = Cyclotomic.from_rational(order, 0), Cyclotomic.from_rational(order, 1)

        def element(t):
            return Cyclotomic(order, t) if any(t) else zero

        ech = [[element(t) for t in row] for row in ech]
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
        basis.append([element(e) for e in ring.scale(v)[1]])
    return basis


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
    domain.  The oracle certifies d o d = 0 exactly for this pair of maps,
    once per call and for every bound, before its first call here
    (`compose_is_zero` at degree bound 4; see
    `gwa.complexes._check_d_squared`).  A dnext with no columns, out of a
    degree with no components, gives no boundaries.  Then
    a boundary of degree <= dp's domain bound lies in ker(dp), so
    ker(dp) meet im(N) = im(N) meet L, with N = dnext's matrix and L the
    span of dp's domain's basis vectors, the lowest in degree-major order.  And
    dim(im(N) meet L) = rank(N) - rank(N_top), where N_top is N's rows above
    L.  So the value is nullity(dp) - rank(N) + rank(N_top), with no kernel
    basis.  Without the precondition it can undercount.

    The ranks of dp and N are `TruncatedMap.rank`: for slices of assembled
    maps, pivot counts of the assembled map's one elimination.  N_top is
    not a column prefix of anything eliminated; `rank_rows` ranks it afresh.
    """
    if dp.domain.copies != dnext.codomain.copies:
        raise InputError("homology spaces disagree on the number of k[h] copies")
    if dp.domain.degree_bound > dnext.codomain.degree_bound:
        raise InputError("kernel space must embed in the boundary codomain")
    low = dp.domain.dim
    return (low - dp.rank() - dnext.rank()
            + rank_rows(dnext.rows[low:], dnext.domain.dim, dnext.field_order))


def compose_is_zero(outer: TruncatedMap, inner: TruncatedMap) -> bool:
    """Exact check that outer o inner = 0, multiplied in the field's ring
    on the cells as they are (the cell contract in the module docstring).
    Each row of the product is accumulated by the ring's `axpy` from the
    rows of inner at the nonzeros of a row of outer, so only structural
    nonzeros are multiplied."""
    if inner.codomain.dim != outer.domain.dim:
        raise InputError("composition shape mismatch")
    ring = _ring(outer.field_order)
    axpy, zero = ring.axpy, ring.zero
    width = inner.domain.dim
    inner_sparse = [[(t, x) for t, x in enumerate(row) if x != zero] for row in inner.rows]
    for row in outer.rows:
        acc = [zero] * width
        for p, b in zip(row, inner_sparse):
            if p != zero:
                axpy(acc, p, b)
        if acc.count(zero) != width:
            return False
    return True
