"""Normal-form arithmetic in the generalized Weyl algebra A(k[h], a, sigma).

A is generated over k[h] by x and y subject to

    yx = a,   xy = sigma(a),   x r = sigma(r) x,   r y = y sigma(r)

for r in k[h], where sigma(h) = h - h0.  Elements are kept in the normal
form sum_{j>0} p_j(h) x^j + p_0(h) + sum_{j>0} q_j(h) y^j, stored as a map
from the weight j (deg x = 1, deg y = -1, deg h = 0) to the polynomial
coefficient on its left.  Mixed powers are resolved by peeling one xy or yx
pair at a time, which keeps every step justified by the defining relations.

The module also implements the automorphisms used downstream: the torus
x -> w x, y -> w^{-1} y, the two families of exponentials of inner
derivations, and the reflection-type involution swapping x and y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import HypothesisError, InputError, InternalConsistencyError
from .poly import Poly, ShiftSigma, sigma_pow
from .scalars import Cyclotomic


class GWASpec:
    """The defining data (a, sigma) of A(k[h], a, sigma); a non-constant."""

    __slots__ = ("a", "sigma", "n")

    def __init__(self, a: Poly, sigma: ShiftSigma):
        if a.is_constant():
            raise HypothesisError("the defining polynomial a must be non-constant")
        self.a = a
        self.sigma = sigma
        self.n = a.degree

    def key(self):
        return (self.a.coeffs, self.sigma.h0)

    def __eq__(self, other):
        return isinstance(other, GWASpec) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"GWASpec(a={self.a}, h0={self.sigma.h0})"

    # Element constructors ------------------------------------------------

    def element(self, terms: dict[int, Poly]) -> "GWAElement":
        return GWAElement(self, terms)

    def zero(self) -> "GWAElement":
        return GWAElement(self, {})

    def one(self) -> "GWAElement":
        return GWAElement(self, {0: Poly.const(1)})

    def from_poly(self, p: Poly) -> "GWAElement":
        return GWAElement(self, {0: p})

    def x(self, power: int = 1) -> "GWAElement":
        return GWAElement(self, {power: Poly.const(1)})

    def y(self, power: int = 1) -> "GWAElement":
        return GWAElement(self, {-power: Poly.const(1)})

    def h(self, power: int = 1) -> "GWAElement":
        return GWAElement(self, {0: Poly.monomial(power)})

    def monomial(self, weight: int, p: Poly) -> "GWAElement":
        """p(h) x^weight for weight > 0, p(h) y^{-weight} for weight < 0."""
        return GWAElement(self, {weight: p})


class GWAElement:
    """An element of A in normal form; immutable once constructed."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: GWASpec, terms: dict[int, Poly]):
        self.spec = spec
        self.terms = {j: p for j, p in terms.items() if not p.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def weights(self):
        return sorted(self.terms)

    def coefficient(self, weight: int) -> Poly:
        return self.terms.get(weight, Poly())

    def weight_component(self, j: int) -> "GWAElement":
        p = self.terms.get(j)
        return GWAElement(self.spec, {j: p} if p is not None else {})

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for j, p in other.terms.items():
            out[j] = out.get(j, Poly()) + p
        return GWAElement(self.spec, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return GWAElement(self.spec, {j: -p for j, p in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.spec is not other.spec and self.spec != other.spec:
            raise InputError("cannot multiply elements of different algebras")
        out: dict[int, Poly] = {}
        for i, p in self.terms.items():
            for j, q in other.terms.items():
                for w, r in _term_mul(self.spec, i, p, j, q):
                    if w in out:
                        out[w] = out[w] + r
                    else:
                        out[w] = r
        return GWAElement(self.spec, out)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def _coerce(self, other):
        if isinstance(other, GWAElement):
            return other
        if isinstance(other, Poly):
            return GWAElement(self.spec, {0: other})
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return GWAElement(self.spec, {0: Poly.const(other)})
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted((j, p.coeffs) for j, p in self.terms.items())))

    def __repr__(self):
        return f"GWAElement({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for j in sorted(self.terms, reverse=True):
            p = self.terms[j]
            body = str(p)
            if j != 0:
                gen = "x" if j > 0 else "y"
                power = abs(j)
                suffix = gen if power == 1 else f"{gen}^{power}"
                if p == Poly.const(1):
                    body = suffix
                else:
                    body = f"({body})*{suffix}" if len(p.coeffs) > 1 or "-" in body or "/" in body else f"{body}*{suffix}"
            parts.append(body)
        return " + ".join(parts).replace("+ -", "- ")


def _term_mul(spec: GWASpec, i: int, p: Poly, j: int, q: Poly):
    """Normal form of (p . g^i) (q . g^j) with g^i meaning x^i (i>0) / y^{-i}.

    Yields (weight, poly) contributions.  Polynomials move left across the
    generator powers through sigma, and opposite powers annihilate one pair
    at a time through yx = a / xy = sigma(a).
    """
    # Move q to the left across the first factor's generator power:
    # x^i q = sigma^i(q) x^i, y^m q = sigma^{-m}(q) y^m, so the shift is by i.
    coeff = p * sigma_pow(q, i, spec.sigma)
    if i == 0 or j == 0 or (i > 0) == (j > 0):
        yield (i + j, coeff)
        return
    if i > 0:
        # x^i y^m: peel xy pairs; x^t y = sigma^t(a) x^{t-1}.
        m = -j
        k = min(i, m)
        for t in range(i, i - k, -1):
            coeff = coeff * _sigma_a(spec, t)
        yield (i + j, coeff)
    else:
        # y^m x^i: peel yx pairs; y^t x = sigma^{-(t-1)}(a) y^{t-1}.
        m = -i
        k = min(m, j)
        for t in range(m, m - k, -1):
            coeff = coeff * _sigma_a(spec, -(t - 1))
        yield (i + j, coeff)


# t -> sigma^t(a), for the last (a, h0) only: a job's products peel the
# same few.
@lru_cache(maxsize=1)
def _shifted_a(a_coeffs: tuple, h0) -> dict:
    return {}


def _sigma_a(spec: GWASpec, t: int) -> Poly:
    """sigma^t(a) of `spec`, computed once per (a, h0, t)."""
    shifted = _shifted_a(spec.a.coeffs, spec.sigma.h0)
    p = shifted.get(t)
    if p is None:
        p = shifted[t] = sigma_pow(spec.a, t, spec.sigma)
    return p


def multiply(u: GWAElement, v: GWAElement) -> GWAElement:
    return u * v


def commutator(u: GWAElement, v: GWAElement) -> GWAElement:
    """uv - vu."""
    return u * v - v * u


def twisted_commutator(u: GWAElement, v: GWAElement, g: "AutomorphismSpec") -> GWAElement:
    """u v - v g(u); the g-twisted commutator with g carried implicitly."""
    return u * v - v * apply_automorphism(g, u)


# Automorphisms ------------------------------------------------------------


@dataclass(frozen=True)
class Torus:
    """x -> w x, y -> w^{-1} y, h -> h, for a nonzero scalar w."""

    w: object

    def __post_init__(self):
        if not self.w:
            raise InputError("torus parameter w must be nonzero")
        if isinstance(self.w, int):
            # An int would raise to a float at negative weights.
            object.__setattr__(self, "w", Fraction(self.w))


@dataclass(frozen=True)
class ExpY:
    """exp(lambda ad(y^m)) acting as x -> x + ..., y -> y, h -> h + m*lambda*h0*y^m."""

    m: int
    lam: object

    def __post_init__(self):
        if self.m < 1:
            raise InputError("exponential order m must be >= 1")


@dataclass(frozen=True)
class ExpX:
    """exp(lambda ad(x^m)) acting as y -> y + ..., x -> x, h -> h - m*lambda*h0*x^m."""

    m: int
    lam: object

    def __post_init__(self):
        if self.m < 1:
            raise InputError("exponential order m must be >= 1")


@dataclass(frozen=True)
class Omega:
    """x -> y, y -> (-1)^n x, h -> h0 + rho - h, defined when a is reflective.

    The h-image reduces to the classical 1 + rho - h when h0 = 1; the shift
    by h0 is what makes the assignment respect x r = sigma(r) x in general.
    """

    rho: object


@dataclass(frozen=True)
class Composite:
    """Composition, applied right to left: Composite([f, g]) acts as f o g."""

    parts: tuple

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))


AutomorphismSpec = Torus | ExpY | ExpX | Omega | Composite


def _ad(v: GWAElement, u: GWAElement) -> GWAElement:
    return v * u - u * v


def _exp_ad(v: GWAElement, lam, target: GWAElement, cap: int) -> GWAElement:
    """exp(lam ad(v)) applied to target, summed until the ad-power vanishes."""
    result = target
    term = target
    for i in range(1, cap + 1):
        term = _ad(v, term)
        if term.is_zero():
            return result
        result = result + term * (lam ** i * Fraction(1, factorial(i)))
    raise InternalConsistencyError(
        f"ad-series failed to terminate within {cap} steps; rewriting bug?"
    )


def _generator_images(g: AutomorphismSpec, spec: GWASpec):
    """Images of (x, y, h) under g, as elements of A."""
    if isinstance(g, ExpY):
        cap = 4 * (g.m * spec.n + 1)
        v = spec.y(g.m)
        return (
            _exp_ad(v, g.lam, spec.x(), cap),
            spec.y(),
            _exp_ad(v, g.lam, spec.h(), cap),
        )
    if isinstance(g, ExpX):
        cap = 4 * (g.m * spec.n + 1)
        v = spec.x(g.m)
        return (
            spec.x(),
            _exp_ad(v, g.lam, spec.y(), cap),
            _exp_ad(v, g.lam, spec.h(), cap),
        )
    if isinstance(g, Omega):
        _check_reflective(spec, g.rho)
        sign = 1 if spec.n % 2 == 0 else -1
        image_h = Poly((spec.sigma.h0 + g.rho, -1))
        return spec.y(), spec.x() * sign, spec.from_poly(image_h)
    raise InputError(f"unsupported automorphism {g!r}")


def is_reflection_constant(a: Poly, rho) -> bool:
    """Whether a(rho - h) = (-1)^n a(h), n = deg a."""
    return a.compose_affine(-1, rho) == (a if a.degree % 2 == 0 else -a)


def _check_reflective(spec: GWASpec, rho):
    if not is_reflection_constant(spec.a, rho):
        raise HypothesisError(
            f"rho={rho} does not satisfy a(rho - h) = (-1)^n a(h) for a={spec.a}"
        )


def apply_automorphism(g: AutomorphismSpec, u: GWAElement) -> GWAElement:
    """Image of u under the algebra map determined by the generator images."""
    spec = u.spec
    if isinstance(g, Composite):
        out = u
        for part in reversed(g.parts):
            out = apply_automorphism(part, out)
        return out
    if isinstance(g, Torus):
        # Diagonal: each weight component is just scaled by w^weight.
        w = g.w
        out = {}
        for j, p in u.terms.items():
            out[j] = p * w ** j
        return GWAElement(spec, out)
    ix, iy, ih = _generator_images(g, spec)
    result = spec.zero()
    for j, p in u.terms.items():
        part = _eval_poly_at(p, ih, spec)
        if j > 0:
            part = part * _power(ix, j)
        elif j < 0:
            part = part * _power(iy, -j)
        result = result + part
    return result


def _power(base: GWAElement, k: int) -> GWAElement:
    out = base.spec.one()
    for _ in range(k):
        out = out * base
    return out


def _eval_poly_at(p: Poly, at: GWAElement, spec: GWASpec) -> GWAElement:
    result = spec.zero()
    for c in reversed(p.coeffs):
        result = result * at + spec.from_poly(Poly.const(c))
    return result
