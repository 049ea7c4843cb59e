"""Exact linear algebra on truncated polynomial spaces.

A truncated space is a finite sum of copies of k[h] cut off at a degree
bound; every dimension count in the package reduces to ranks and kernels of
exact matrices between such spaces.  Ranks are computed fraction-free: over
the rationals rows are scaled to integers and eliminated with the Bareiss
kernel; over a cyclotomic field the same sweep runs in the ring of integers
(via the compiled quadratic kernel when the field has degree two, a generic
pure-Python sweep otherwise).

Truncation never fakes exactness: codomain bounds always leave enough margin
that a kernel vector of a truncated matrix is a genuine kernel vector, and
image undercounts are absorbed by the stabilization schedule, which raises
the bound until the reported value repeats.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd

from .errors import InputError, InternalConsistencyError, StabilizationError
from .poly import Poly, ShiftSigma, sigma_pow
from .scalars import Cyclotomic, cyclotomic_coeffs, euler_phi

if os.environ.get("GWA_PURE_LINALG"):
    from . import _rankcore_py as _kernels
else:
    try:
        from . import _rankcore as _kernels  # type: ignore[attr-defined]
    except ImportError:
        from . import _rankcore_py as _kernels

KERNEL_IMPLEMENTATION = _kernels.IMPLEMENTATION


@dataclass(frozen=True)
class TruncatedSpace:
    """`copies` copies of k[h] truncated at degree <= `degree_bound`.

    Basis vectors are indexed degree-major: index(i, t) = i * copies + t for
    the monomial h^i in copy t.  Degree-major order keeps the operator
    matrices banded, which is what the fraction-free elimination likes.
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
    """Exact dense matrix of a linear map between truncated spaces."""

    __slots__ = ("domain", "codomain", "rows")

    def __init__(self, domain: TruncatedSpace, codomain: TruncatedSpace, rows):
        if len(rows) != codomain.dim or any(len(r) != domain.dim for r in rows):
            raise InputError("matrix shape does not match the declared spaces")
        self.domain = domain
        self.codomain = codomain
        self.rows = rows

    @classmethod
    def zero(cls, domain: TruncatedSpace, codomain: TruncatedSpace) -> "TruncatedMap":
        z = Fraction(0)
        return cls(domain, codomain, [[z] * domain.dim for _ in range(codomain.dim)])

    @property
    def field_order(self) -> int | None:
        return self.codomain.field_order or self.domain.field_order

    def column(self, j: int):
        return [row[j] for row in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.domain.dim)]

    def compose(self, other: "TruncatedMap") -> "TruncatedMap":
        """self o other, skipping structural zeros (the matrices are banded)."""
        if other.codomain.dim != self.domain.dim:
            raise InputError("composition shape mismatch")
        out = []
        for row in self.rows:
            acc = [Fraction(0)] * other.domain.dim
            for j, c in enumerate(row):
                if c:
                    orow = other.rows[j]
                    for t, v in enumerate(orow):
                        if v:
                            acc[t] = acc[t] + c * v
            out.append(acc)
        return TruncatedMap(other.domain, self.codomain, out)

    def is_zero(self) -> bool:
        return all(not v for row in self.rows for v in row)

    def truncate(self, b_dom: int, b_cod: int) -> "TruncatedMap":
        """The same map between the spaces cut off at the smaller bounds.

        Degree-major indexing makes this the top-left block of the matrix.
        It is the map's matrix at those bounds only if every entry the cut
        drops from a kept column is zero, which is checked exactly.  At
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
        return TruncatedMap(dom, cod, [row[:ncols] for row in self.rows[:nrows]])

    def rank(self) -> int:
        return rank_rows(self.rows, self.domain.dim, self.field_order)

    def kernel_basis(self):
        return kernel_basis(self.rows, self.domain.dim, self.field_order)

    def dump(self) -> str:
        """Plain text grid, for debugging small matrices."""
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


# Scalar-row preparation ----------------------------------------------------


def _scale_row_int(row):
    """Clear denominators of a row of rationals; returns integer entries."""
    den = 1
    for v in row:
        if v:
            den = den * v.denominator // gcd(den, v.denominator)
    return [int(v * den) for v in row]


def _as_pair(v, order):
    if isinstance(v, Cyclotomic):
        if v.order != order:
            if v.is_rational():
                return (v.rational_value(), Fraction(0))
            raise InputError(f"mixed cyclotomic orders {v.order} and {order}")
        return (v.coeffs[0], v.coeffs[1])
    return (Fraction(v), Fraction(0))


def _scale_row_quad(row, order):
    pairs = [_as_pair(v, order) for v in row]
    den = 1
    for a, b in pairs:
        for v in (a, b):
            if v:
                den = den * v.denominator // gcd(den, v.denominator)
    return [(int(a * den), int(b * den)) for a, b in pairs]


def _quad_params(order: int) -> tuple[int, int]:
    phi = cyclotomic_coeffs(order)
    if len(phi) != 3:
        raise InputError(f"order {order} is not a quadratic field")
    # Phi = c + b t + t^2 ascending.
    return int(phi[1]), int(phi[0])


def rank_rows(rows, ncols, field_order=None) -> int:
    """Rank of a matrix given as rows of exact scalars."""
    if not rows or ncols == 0:
        return 0
    if field_order is None or euler_phi(field_order) == 1:
        int_rows = [_scale_row_int([_as_rational(v) for v in row]) for row in rows]
        return _kernels.rank_int(int_rows, ncols)
    if euler_phi(field_order) == 2:
        b, c = _quad_params(field_order)
        quad_rows = [_scale_row_quad(row, field_order) for row in rows]
        return _kernels.rank_quad(quad_rows, ncols, b, c)
    return _rank_generic(rows, ncols, field_order)


def _as_rational(v) -> Fraction:
    if isinstance(v, Cyclotomic):
        return v.rational_value()
    return Fraction(v)


def _rank_generic(rows, ncols, order) -> int:
    """Plain Gaussian elimination in the cyclotomic field (degree > 2)."""
    work = [[_coerce_cyclo(v, order) for v in row] for row in rows]
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][col].inverse()
        work[r] = [v * inv for v in work[r]]
        for i in range(r + 1, len(work)):
            f = work[i][col]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def _coerce_cyclo(v, order) -> Cyclotomic:
    if isinstance(v, Cyclotomic):
        if v.order != order and not v.is_rational():
            raise InputError(f"mixed cyclotomic orders {v.order} and {order}")
        if v.order != order:
            return Cyclotomic.from_rational(order, v.rational_value())
        return v
    return Cyclotomic.from_rational(order, v)


def kernel_basis(rows, ncols, field_order=None):
    """Basis of the right null space {v : M v = 0}; exact scalars.

    Vectors come back over the matrix field with denominators cleared
    (integer entries over the rationals, integral cyclotomic entries
    otherwise).
    """
    raw = kernel_raw(rows, ncols, field_order)
    if field_order is None or euler_phi(field_order) <= 2:
        return [_raw_to_scalars(v, field_order) for v in raw]
    return raw  # generic path already returns field scalars


def kernel_raw(rows, ncols, field_order=None):
    """Kernel basis in raw integral form: ints over the rationals, (a, b)
    integer pairs over a quadratic cyclotomic field."""
    if ncols == 0:
        return []
    if not rows:
        return [_raw_unit(ncols, j, field_order) for j in range(ncols)]
    if field_order is None or euler_phi(field_order) == 1:
        int_rows = [_scale_row_int([_as_rational(v) for v in row]) for row in rows]
        _, pivots, ech = _kernels.echelon_int(int_rows, ncols)
        return _back_substitute_int(ech, pivots, ncols)
    if euler_phi(field_order) == 2:
        b, c = _quad_params(field_order)
        quad_rows = [_scale_row_quad(row, field_order) for row in rows]
        _, pivots, ech = _kernels.echelon_quad(quad_rows, ncols, b, c)
        return _back_substitute_quad(ech, pivots, ncols, b, c)
    return _kernel_generic(rows, ncols, field_order)


def _raw_unit(n, j, order):
    if order is None or euler_phi(order) == 1:
        return [1 if i == j else 0 for i in range(n)]
    if euler_phi(order) == 2:
        return [(1, 0) if i == j else (0, 0) for i in range(n)]
    return _unit_vector(n, j, order)


def _raw_to_scalars(v, order):
    if order is None or euler_phi(order) == 1:
        return list(v)
    return [Cyclotomic(order, (Fraction(a), Fraction(b)), reduce=False) for a, b in v]


def _unit_vector(n, j, order):
    one = Fraction(1) if order is None else Cyclotomic.from_rational(order, 1)
    zero = Fraction(0) if order is None else Cyclotomic.from_rational(order, 0)
    return [one if i == j else zero for i in range(n)]


def _back_substitute_int(ech, pivots, ncols):
    """Integral kernel vectors from an integer echelon form.

    Solving piv * v[p] = -acc is done by rescaling the whole vector by the
    pivot instead of dividing, which keeps every entry an integer; rows
    further down never touch columns left of their own pivot, so previously
    satisfied equations stay satisfied.
    """
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for i in range(len(pivots) - 1, -1, -1):
            p = pivots[i]
            if p > free:
                continue
            row = ech[i]
            acc = 0
            for j in range(p + 1, free + 1):
                c = row[j]
                if c and v[j]:
                    acc += c * v[j]
            if acc:
                piv = row[p]
                v = [piv * e for e in v]
                v[p] = -acc
        g = 0
        for e in v:
            g = gcd(g, e)
        if g > 1:
            v = [e // g for e in v]
        basis.append(v)
    return basis


def _back_substitute_quad(ech, pivots, ncols, b, c):
    from ._rankcore_py import _quad_mul

    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [(0, 0)] * ncols
        v[free] = (1, 0)
        for i in range(len(pivots) - 1, -1, -1):
            p = pivots[i]
            if p > free:
                continue
            row = ech[i]
            acc0 = acc1 = 0
            for j in range(p + 1, free + 1):
                e = row[j]
                w = v[j]
                if (e[0] or e[1]) and (w[0] or w[1]):
                    m0, m1 = _quad_mul(e[0], e[1], w[0], w[1], b, c)
                    acc0 += m0
                    acc1 += m1
            if acc0 or acc1:
                piv = row[p]
                v = [_quad_mul(piv[0], piv[1], e[0], e[1], b, c) for e in v]
                v[p] = (-acc0, -acc1)
        g = 0
        for e0, e1 in v:
            g = gcd(gcd(g, e0), e1)
        if g > 1:
            v = [(e0 // g, e1 // g) for e0, e1 in v]
        basis.append(v)
    return basis


def _clear_vector(v, order):
    if order is None:
        den = 1
        for e in v:
            f = Fraction(e)
            if f:
                den = den * f.denominator // gcd(den, f.denominator)
        return [int(Fraction(e) * den) for e in v]
    den = 1
    for e in v:
        for c in _as_pairs_generic(e, order):
            if c:
                den = den * c.denominator // gcd(den, c.denominator)
    return [
        Cyclotomic(order, [c * den for c in _as_pairs_generic(e, order)], reduce=False)
        for e in v
    ]


def _as_pairs_generic(e, order):
    if isinstance(e, Cyclotomic):
        return e.coeffs
    d = euler_phi(order)
    return (Fraction(e),) + (Fraction(0),) * (d - 1)


def _kernel_generic(rows, ncols, order):
    work = [[_coerce_cyclo(v, order) for v in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][col].inverse()
        work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    # Reduced echelon with unit pivots: plain field back-substitution.
    pivot_set = set(pivots)
    zero = Cyclotomic.from_rational(order, 0)
    one = Cyclotomic.from_rational(order, 1)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for i, p in enumerate(pivots):
            if p < free and work[i][free]:
                v[p] = -work[i][free]
        basis.append(_clear_vector(v, order))
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


# Operator descriptors -------------------------------------------------------


class PolyOperator:
    """A k[h] -> k[h] operator assembled from shifts and multiplications."""

    def __init__(self, fn, degree_raise: int, label: str):
        self._fn = fn
        self.degree_raise = degree_raise
        self.label = label

    def __call__(self, p: Poly) -> Poly:
        return self._fn(p)

    def __repr__(self):
        return f"PolyOperator({self.label})"


def op_identity() -> PolyOperator:
    return PolyOperator(lambda p: p, 0, "Id")


def op_multiply(q: Poly, label: str | None = None) -> PolyOperator:
    return PolyOperator(lambda p: p * q, max(q.degree, 0), label or f"mult[{q}]")


def op_sigma_power(k: int, s: ShiftSigma) -> PolyOperator:
    return PolyOperator(lambda p: sigma_pow(p, k, s), 0, f"sigma^{k}")


def op_id_minus_sigma(s: ShiftSigma) -> PolyOperator:
    return PolyOperator(lambda p: p - sigma_pow(p, 1, s), 0, "Id - sigma")


def op_shift_minus_scalar(w, s: ShiftSigma) -> PolyOperator:
    """sigma - w.Id; an isomorphism of k[h] whenever w != 1."""
    return PolyOperator(lambda p: sigma_pow(p, 1, s) - p * w, 0, f"sigma - ({w}).Id")


def op_compose(outer: PolyOperator, inner: PolyOperator) -> PolyOperator:
    return PolyOperator(
        lambda p: outer(inner(p)),
        outer.degree_raise + inner.degree_raise,
        f"{outer.label} o {inner.label}",
    )


def operator_matrix(op: PolyOperator, d_dom: int, d_cod: int,
                    field_order: int | None = None) -> TruncatedMap:
    """Matrix of `op` restricted to degree <= d_dom, landing in degree <= d_cod."""
    if d_cod < d_dom + op.degree_raise:
        raise InputError(
            f"codomain bound {d_cod} too small for {op.label} on degree <= {d_dom}"
        )
    dom = TruncatedSpace(field_order, 1, d_dom)
    cod = TruncatedSpace(field_order, 1, d_cod)
    zero = Fraction(0)
    rows = [[zero] * dom.dim for _ in range(cod.dim)]
    for j in range(d_dom + 1):
        img = op(Poly.monomial(j))
        if img.degree > d_cod:
            raise InputError(f"image of h^{j} under {op.label} overflows degree {d_cod}")
        for i, c in enumerate(img.coeffs):
            if c:
                rows[i][j] = c
    return TruncatedMap(dom, cod, rows)


def codim_of_image(ops, schedule: Schedule, field_order: int | None = None) -> StabilizedDim:
    """Stabilized codimension of sum(im(op)) inside k[h].

    At each bound D the span is generated by op(h^j) for j <= D, keeping only
    images that fit in degree <= D; dropped generators only shrink the span,
    which the stabilization absorbs.
    """
    if isinstance(ops, PolyOperator):
        ops = [ops]

    def evaluate(d: int) -> int:
        rows = []
        for op in ops:
            for j in range(d + 1):
                img = op(Poly.monomial(j))
                if img.degree <= d:
                    rows.append([img[i] for i in range(d + 1)])
        return (d + 1) - rank_rows(rows, d + 1, field_order)

    value, at, history = stabilize(evaluate, schedule)
    return StabilizedDim(value, at, history)


def homology_dim_at(dp: TruncatedMap, dnext: TruncatedMap) -> int:
    """dim ker(dp) - dim(im(dnext) meet ker(dp)).

    Computed as rank([K | N]) - rank(N) with K a kernel basis of dp and N the
    columns of dnext; the identity dim ker - dim(im meet ker) =
    rank([K | N]) - rank(N) holds whether or not im(dnext) lies inside the
    kernel, so boundary effects of truncation cannot overcount.
    """
    if dp.domain.copies != dnext.codomain.copies:
        raise InputError("homology spaces disagree on the number of k[h] copies")
    if dp.domain.degree_bound > dnext.codomain.degree_bound:
        raise InputError("kernel space must embed in the boundary codomain")
    order = dp.field_order or dnext.field_order
    ambient = dnext.codomain.dim
    kernel = kernel_raw(dp.rows, dp.domain.dim, order)
    quad = order is not None and euler_phi(order) == 2
    if order is None or euler_phi(order) == 1:
        pad = 0
        padded = [v + [pad] * (ambient - len(v)) for v in kernel]
        n_cols = [_scale_row_int([_as_rational(v) for v in col])
                  for col in dnext.columns()]
        n_rank = _kernels.rank_int(n_cols, ambient) if n_cols else 0
        kn_rank = _kernels.rank_int(padded + n_cols, ambient) if padded + n_cols else 0
        return kn_rank - n_rank
    if quad:
        pad = (0, 0)
        padded = [v + [pad] * (ambient - len(v)) for v in kernel]
        n_cols = [_scale_row_quad(col, order) for col in dnext.columns()]
        b, c = _quad_params(order)
        n_rank = _kernels.rank_quad(n_cols, ambient, b, c) if n_cols else 0
        stacked = padded + n_cols
        kn_rank = _kernels.rank_quad(stacked, ambient, b, c) if stacked else 0
        return kn_rank - n_rank
    padded = [list(v) + [0] * (ambient - len(v)) for v in kernel]
    n_cols = [list(col) for col in dnext.columns()]
    n_rank = rank_rows(n_cols, ambient, order)
    kn_rank = rank_rows(padded + n_cols, ambient, order)
    return kn_rank - n_rank


def compose_is_zero(outer: TruncatedMap, inner: TruncatedMap) -> bool:
    """Exact check that outer o inner = 0.

    Scaling outer's rows and inner's columns by nonzero rationals multiplies
    the product by invertible diagonals, so the zero test can run on
    integerized data; over a quadratic cyclotomic field entries become
    integer pairs and the product is taken in the ring of integers.
    """
    if inner.codomain.dim != outer.domain.dim:
        raise InputError("composition shape mismatch")
    order = outer.field_order or inner.field_order
    if order is not None and euler_phi(order) > 2:
        return outer.compose(inner).is_zero()
    if order is None or euler_phi(order) == 1:
        a_rows = [_scale_row_int([_as_rational(v) for v in row]) for row in outer.rows]
        b_cols = [_scale_row_int([_as_rational(v) for v in col])
                  for col in inner.columns()]
        for row in a_rows:
            support = [(j, c) for j, c in enumerate(row) if c]
            for col in b_cols:
                if sum(c * col[j] for j, c in support):
                    return False
        return True
    from ._rankcore_py import _quad_mul

    b, c = _quad_params(order)
    a_rows = [_scale_row_quad(row, order) for row in outer.rows]
    b_cols = [_scale_row_quad(col, order) for col in inner.columns()]
    for row in a_rows:
        support = [(j, e) for j, e in enumerate(row) if e[0] or e[1]]
        for col in b_cols:
            acc0 = acc1 = 0
            for j, e in support:
                w = col[j]
                if w[0] or w[1]:
                    m0, m1 = _quad_mul(e[0], e[1], w[0], w[1], b, c)
                    acc0 += m0
                    acc1 += m1
            if acc0 or acc1:
                return False
    return True


def restriction_of_scalars(rows, order: int):
    """Integer matrix of the same map viewed over the rationals.

    Each cyclotomic entry becomes the phi(order) x phi(order) block of
    multiplication by it in the power basis; ranks multiply by phi(order).
    Used to spot-check the cyclotomic elimination against the integer one.
    """
    d = euler_phi(order)
    basis = [Cyclotomic.zeta(order, k) if k else Cyclotomic.from_rational(order, 1)
             for k in range(d)]
    out = []
    for row in rows:
        block_rows = [[] for _ in range(d)]
        for v in row:
            cv = _coerce_cyclo(v, order)
            for k, b in enumerate(basis):
                col = (cv * b).coeffs
                for i in range(d):
                    block_rows[i].append(col[i])
        out.extend(block_rows)
    return [_scale_row_int(r) for r in out]
