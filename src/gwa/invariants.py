"""Invariant subalgebras and the machinery around finite group actions.

Taking invariants under the cyclic group generated by a diagonal
automorphism of finite order r stays inside the class: the invariants form
the generalized Weyl algebra with the same shift and defining polynomial
prod_{j<r} sigma^{-j}(a)(r H), of degree r*n.  The remaining operations
package what the group-cohomology count needs: a decision procedure for the
simplicity hypothesis, the reflection constant rho when it exists, the
brute-force degree-zero (co)homology via commutator spans, the fixed-space
dimension of the reflection on twisted degree-zero homology, and the
triviality of exponential automorphisms on degree-zero classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    ExpX,
    ExpY,
    GWASpec,
    Torus,
    apply_automorphism,
    is_reflection_constant,
    twisted_commutator,
    commutator,
)
from .errors import HypothesisError, InputError
from .formulas import DimReport, group_coh_dims, hh_dims
from .linalg import (
    Schedule,
    StabilizedDim,
    rank_rows,
    stabilize,
)
from .poly import Poly, compose_scale, gcd_monic, sigma_pow
from .scalars import Cyclotomic, field_order


def invariant_gwa(spec: GWASpec, r: int) -> GWASpec:
    """The invariant subalgebra under the order-r diagonal action, as a GWA.

    The defining polynomial is prod_{j=0}^{r-1} sigma^{-j}(a) evaluated at
    r*H, and the shift stays H -> H - h0; the degree is r * deg a.
    """
    if r < 1:
        raise InputError("the group order r must be >= 1")
    return GWASpec(compose_scale(_shift_product(spec, r), r), spec.sigma)


def _shift_product(spec: GWASpec, r: int) -> Poly:
    """prod_{j=0}^{r-1} sigma^{-j}(a)."""
    product = Poly.const(1)
    for j in range(r):
        product = product * sigma_pow(spec.a, -j, spec.sigma)
    return product


def verify_invariant_identity(spec: GWASpec, r: int) -> bool:
    """Check y^r x^r = a_tilde(h / r) as elements of A, via the normal form.

    Two comparisons: y^r x^r against the shift product, and the polynomial
    `invariant_gwa` returns, evaluated at h / r, against the weight-zero
    coefficient of y^r x^r, with degree r * deg a.  The second does not go
    through the shift product, so it checks `invariant_gwa` itself.
    """
    if r > 6:
        raise InputError("identity check capped at r <= 6 for cost")
    power = spec.y(r) * spec.x(r)
    if power != spec.from_poly(_shift_product(spec, r)):
        return False
    a_tilde = invariant_gwa(spec, r).a
    return (a_tilde.degree == r * spec.n
            and a_tilde.compose_affine(Fraction(1, r), 0) == power.coefficient(0))


def simplicity_check(spec: GWASpec) -> bool:
    """Whether a is squarefree with no two roots differing by an integer
    multiple of h0.

    Decided rationally: the Cauchy bound B = 1 + max |a_i / a_n| caps the
    root moduli, so conjugate roots force |j * h0| <= 2B; it is enough to
    test gcd(a(h), a(h + j*h0)) for 1 <= j <= ceil(2B / |h0|).
    """
    a = spec.a
    if any(isinstance(c, Cyclotomic) and not c.is_rational() for c in a.coeffs):
        raise HypothesisError(
            "simplicity is only decided for rational coefficients"
        )
    if gcd_monic(a, a.derivative()).degree != 0:
        return False
    lead = Fraction(a.leading() if not isinstance(a.leading(), Cyclotomic)
                    else a.leading().rational_value())
    bound = 1 + max(
        (abs(Fraction(c if not isinstance(c, Cyclotomic) else c.rational_value()) / lead)
         for c in a.coeffs[:-1]),
        default=Fraction(0),
    )
    h0 = abs(spec.sigma.h0)
    j_max = int((2 * bound / h0).__ceil__())
    for j in range(1, j_max + 1):
        if gcd_monic(a, sigma_pow(a, -j, spec.sigma)).degree != 0:
            return False
    return True


@dataclass(frozen=True)
class Reflectivity:
    """Whether a(rho - h) = (-1)^n a(h) has a solution, and the rho if so."""

    reflective: bool
    rho: Fraction | None = None


def reflectivity(a: Poly) -> Reflectivity:
    """Find rho with a(rho - h) = (-1)^n a(h), if it exists.

    Comparing the h^{n-1} coefficients pins the only candidate
    rho = -2 a_{n-1} / (n a_n); the full identity is then verified.
    """
    if a.is_constant():
        raise HypothesisError("a must be non-constant")
    n = a.degree
    candidate = -2 * a[n - 1] / (n * a[n])
    if is_reflection_constant(a, candidate):
        return Reflectivity(True, candidate)
    return Reflectivity(False, None)


def _relator_rows(elements, d: int) -> list:
    """Coefficient rows in degrees <= d of weight-zero `elements`; those of
    higher degree are left out."""
    rows = []
    for elem in elements:
        poly = elem.coefficient(0)
        extra = [w for w in elem.terms if w != 0]
        if extra:
            raise HypothesisError(f"nonzero-weight relator {elem}")
        if poly.degree <= d:
            rows.append([poly[i] for i in range(d + 1)])
    return rows


def _commutator_span_codim(generators, schedule: Schedule, order=None) -> StabilizedDim:
    """Codimension in truncated k[h] of the span of weight-zero elements
    produced by `generators(d)`, stabilized over the degree bound."""

    def evaluate(d: int) -> int:
        return (d + 1) - rank_rows(_relator_rows(generators(d), d), d + 1, order)

    value, at, history = stabilize(evaluate, schedule)
    return StabilizedDim(value, at, tuple(history))


def _h0_relators(spec: GWASpec, d: int):
    """The commutators [h^i y, x] and [h^i x, y] for i <= d."""
    x, y = spec.x(), spec.y()
    for i in range(d + 1):
        yield commutator(spec.monomial(-1, Poly.monomial(i)), x)
        yield commutator(spec.monomial(1, Poly.monomial(i)), y)


def h0_bruteforce(spec: GWASpec, schedule: Schedule | None = None) -> StabilizedDim:
    """Codimension of span{[h^i y, x], [h^j x, y]} in truncated k[h].

    This is the degree-zero homology computed directly from commutators; the
    expected value is n - 1.
    """
    if schedule is None:
        schedule = Schedule.default(spec.n)
    return _commutator_span_codim(lambda d: _h0_relators(spec, d), schedule)


def twisted_h0_bruteforce(spec: GWASpec, w, schedule: Schedule | None = None) -> StabilizedDim:
    """Codimension of the span of weight-zero g-twisted commutators, where g
    is the diagonal automorphism with parameter w != 1; expected n."""
    if w == 1:
        raise HypothesisError("the twist must differ from the identity")
    if schedule is None:
        schedule = Schedule.default(spec.n)
    g = Torus(w)
    x, y = spec.x(), spec.y()

    def generators(d: int):
        for i in range(d + 1):
            yield twisted_commutator(spec.monomial(-1, Poly.monomial(i)), x, g)
            yield twisted_commutator(spec.monomial(1, Poly.monomial(i)), y, g)

    return _commutator_span_codim(generators, schedule, order=field_order(w))


def omega_fixed_dim(spec: GWASpec, w, rho) -> int:
    """Dimension of the +1 eigenspace of the reflection on twisted
    degree-zero homology; expected floor((n+1)/2).

    The quotient is k[h] modulo the boundaries (sigma - w.Id)(a k[h]), and
    1, h, ..., h^{n-1} represent it: a nonzero boundary (sigma - w)(a p)
    has degree n + deg p and leading coefficient lc(a) lc(p) (1 - w), which
    is nonzero since w != 1, so the boundaries take one leading degree each
    from n upwards and meet the polynomials of degree < n in zero.  The
    reflection acts by h -> h0 + rho - h, which maps each h^i to a
    polynomial of the same degree i < n, so its matrix on the
    representatives is read straight off the substitution, with no
    reduction.  The substitution must map the boundary space into itself
    -- a failure signals that the reflection does not commute with the
    twist (w must be a square root of unity).  That it squares to the
    identity on the quotient needs no check, and has none: h -> c - h
    squares to the identity on k[h] and keeps the span of the
    representatives, on which the matrix is read.
    """
    n = spec.n
    if not is_reflection_constant(spec.a, rho):
        raise HypothesisError(f"rho={rho} is not a reflection constant for a={spec.a}")
    if w == 1:
        raise HypothesisError("the twist must differ from the identity")
    order = field_order(w)
    d = max(4 * n, 12)

    # Boundary span (sigma - w.Id)(a k[h]) in degrees <= d.
    brows = []
    for i in range(d + 1):
        p = Poly.monomial(i) * spec.a
        img = sigma_pow(p, 1, spec.sigma) - p * w
        if img.degree <= d:
            brows.append([img[k] for k in range(d + 1)])
    base_rank = rank_rows(brows, d + 1, order)

    # The substitution must preserve the boundary space: adding the images
    # to the span grows it exactly when some image lies outside it.
    images = []
    for row in brows:
        image = Poly(row).compose_affine(-1, spec.sigma.h0 + rho)
        images.append([image[k] for k in range(d + 1)])
    if rank_rows(brows + images, d + 1, order) != base_rank:
        raise HypothesisError(
            "reflection does not preserve the twisted boundary space; "
            "it does not centralize this twist (need w^2 = 1)"
        )

    # Induced map on representatives 1, h, ..., h^{n-1}: each image has
    # degree < n, so it is its own representative (see the docstring).
    matrix = []
    for i in range(n):
        image = Poly.monomial(i).compose_affine(-1, spec.sigma.h0 + rho)
        matrix.append([image[k] for k in range(n)])
    # Fixed space = kernel of (M - Id) on the n-dimensional quotient.
    rows = [[matrix[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    return n - rank_rows(rows, n, order)


def exp_triviality_on_h0(spec: GWASpec, m: int, lam, i_max: int = 3) -> bool:
    """Whether both exponential automorphisms fix the weight-zero component
    of h^i for 1 <= i <= i_max (so they act trivially on degree-zero classes)."""
    for i in range(1, i_max + 1):
        target = spec.h(i)
        for g in (ExpY(m, lam), ExpX(m, lam)):
            image = apply_automorphism(g, target)
            if image.weight_component(0) != target:
                return False
    return True


@dataclass(frozen=True)
class GroupClass:
    """One non-identity conjugacy class: the torus order of a representative
    and whether the reflection lies in its centralizer."""

    order: int
    omega_in_centralizer: bool


@dataclass(frozen=True)
class GroupClassData:
    """Conjugacy-class descriptors for a finite group, identity excluded."""

    classes: tuple[GroupClass, ...]

    @property
    def a1(self) -> int:
        return sum(1 for c in self.classes if not c.omega_in_centralizer)

    @property
    def a2(self) -> int:
        return sum(1 for c in self.classes if c.omega_in_centralizer)

    @classmethod
    def parse(cls, text: str) -> "GroupClassData":
        """One class per line: "order=<m> omega=<yes|no>", each field once.

        Any other token, or a field given twice, is an `InputError` naming
        the line, not a field dropped or overwritten."""
        classes = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = {}
            for part in line.split():
                key, eq, value = part.partition("=")
                if not eq:
                    raise InputError(f"bad class descriptor line {line!r}: {part!r} has no '='")
                if key in fields:
                    raise InputError(f"bad class descriptor line {line!r}: {key!r} given twice")
                fields[key] = value
            if set(fields) != {"order", "omega"}:
                raise InputError(f"bad class descriptor line {line!r}")
            try:
                order = int(fields["order"])
            except ValueError as exc:
                raise InputError(f"bad order in {line!r}") from exc
            flag = fields["omega"].lower()
            if flag not in ("yes", "no"):
                raise InputError(f"omega must be yes/no in {line!r}")
            if order < 2:
                raise InputError("class representatives must have order >= 2")
            classes.append(GroupClass(order, flag == "yes"))
        return cls(tuple(classes))


def group_report(spec: GWASpec, classes: GroupClassData, p_max: int = 5) -> DimReport:
    """Invariant-subalgebra cohomology dimensions from class data.

    Requires the simplicity hypothesis.  When the data describes a cyclic
    group inside the torus with trivial centralizer actions, the degree-zero
    homology count is cross-checked against the invariant GWA construction.
    """
    if not simplicity_check(spec):
        raise HypothesisError(
            "the group formula needs the simplicity hypothesis (squarefree a, "
            "no sigma-conjugate roots); refusing to apply it"
        )
    n = spec.n
    report = group_coh_dims(n, classes.a1, classes.a2, p_max)
    report.meta["classes"] = [
        {"order": c.order, "omega": c.omega_in_centralizer} for c in classes.classes
    ]
    if classes.a2 == 0 and classes.classes:
        r = len(classes.classes) + 1
        if all(r % c.order == 0 for c in classes.classes):
            fixed = hh_dims(invariant_gwa(spec, r).a, spec.sigma).dims[0]
            expected = r * n - 1
            report.meta["cyclic_crosscheck"] = {
                "r": r,
                "hh0_invariant_gwa": fixed,
                "expected": expected,
                "ok": fixed == expected,
            }
            if fixed != expected:
                raise HypothesisError(
                    "cyclic cross-check failed: invariant GWA degree-zero "
                    f"homology {fixed} != {expected}"
                )
    return report
