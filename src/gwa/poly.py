"""Dense univariate polynomials in h over the exact scalar fields.

Coefficients are stored ascending with trailing zeros stripped, so the zero
polynomial is the empty tuple and ``degree`` is ``len - 1``.  The module also
carries the shift automorphism h -> h - h0 and the gcd machinery producing
the two integers that control every dimension formula downstream:
n = deg a and d = deg gcd(a, a').
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import re

from .errors import HypothesisError, InputError
from .scalars import Cyclotomic, cyclotomic_coeffs


def _norm(coeffs):
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class Poly:
    """Univariate polynomial with exact coefficients, ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        vals = []
        for c in coeffs:
            if isinstance(c, (int, Fraction)):
                vals.append(Fraction(c))
            elif isinstance(c, Cyclotomic):
                vals.append(c)
            else:
                raise InputError(f"unsupported coefficient {c!r}")
        self.coeffs = _norm(vals)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def gen(cls) -> "Poly":
        """The polynomial h."""
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] - other[i] for i in range(n)])

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = 1 / other.leading()
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        quot = [Fraction(0)] * (dq + 1 if dq >= 0 else 0)
        for i in range(len(rem) - 1, other.degree - 1, -1):
            c = rem[i] * lead_inv
            if c:
                quot[i - other.degree] = c
                for j, dj in enumerate(other.coeffs):
                    rem[i - other.degree + j] -= c * dj
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = 1 / self.leading()
        return Poly([c * inv for c in self.coeffs])

    def compose_affine(self, scale, shift) -> "Poly":
        """p(scale*h + shift), by Horner."""
        arg = Poly((shift, scale))
        result = Poly()
        for c in reversed(self.coeffs):
            result = result * arg + Poly.const(c)
        return result

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __str__(self):
        return format_poly(self)


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction, Cyclotomic)):
        return Poly.const(x)
    return NotImplemented


@dataclass(frozen=True)
class ShiftSigma:
    """The automorphism of k[h] determined by h -> h - h0, with h0 nonzero."""

    h0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "h0", Fraction(self.h0))
        if not self.h0:
            raise InputError("h0 must be nonzero")


def sigma_pow(p: Poly, k: int, s: ShiftSigma) -> Poly:
    """sigma^k applied to p, i.e. p(h - k*h0); negative k gives the inverse."""
    if k == 0:
        return p
    return p.compose_affine(1, -k * s.h0)


def gcd_monic(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with s*p + t*q = g, g the monic gcd."""
    r0, r1 = p, q
    s0, s1 = Poly.const(1), Poly()
    t0, t1 = Poly(), Poly.const(1)
    while not r1.is_zero():
        quot, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quot * s1
        t0, t1 = t1, t0 - quot * t1
    if r0.is_zero():
        raise ValueError("xgcd(0, 0) is undefined")
    lead_inv = 1 / r0.leading()
    return r0 * lead_inv, s0 * lead_inv, t0 * lead_inv


def degree_invariants(a: Poly, s: ShiftSigma) -> tuple[int, int]:
    """n = deg a and d = deg gcd(a, a'); requires a non-constant."""
    if a.is_constant():
        raise HypothesisError("the defining polynomial a must be non-constant")
    n = a.degree
    d = gcd_monic(a, a.derivative()).degree
    return n, d


def compose_scale(p: Poly, r: int) -> Poly:
    """p(r*H) as a polynomial in H, for a positive integer r."""
    if r < 1:
        raise InputError(f"scale factor must be >= 1, got {r}")
    return p.compose_affine(r, 0)


def cyclotomic_polynomial(m: int) -> Poly:
    """The m-th cyclotomic polynomial as a Poly over the rationals."""
    return Poly(cyclotomic_coeffs(m))


_TERM_RE = re.compile(
    r"""^\s*
    # A rational coefficient, or a bare sign, which only a variable may follow.
    (?P<coeff>[+-]?\s*\d+(?:\s*/\s*\d+)?|[+-](?=\s*\*?\s*[A-Za-z]))?
    (?:
        (?P<star>\s*\*\s*)?
        (?P<var>[A-Za-z])
        (?:\s*\^\s*(?P<exp>\d+))?
    )?
    \s*$""",
    re.VERBOSE,
)


def parse_poly(text: str, var: str = "h") -> Poly:
    """Parse "h^2 - 3/2*h + 1" or an ascending coefficient list "[1, -3/2, 1]"."""
    text = text.strip()
    if not text:
        raise InputError("empty polynomial")
    if text.startswith("["):
        if not text.endswith("]"):
            raise InputError(f"unterminated coefficient list {text!r}")
        body = text[1:-1].strip()
        if not body:
            return Poly()
        try:
            return Poly([Fraction(t.strip()) for t in body.split(",")])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad coefficient list {text!r}") from exc

    # Spaces are deleted before the split, which would join the digits on
    # either side of one: "h^2 3" would read as h^23.
    if re.search(r"\d\s+\d", text):
        raise InputError(f"a space separates two digits in {text!r}")
    chunks = re.split(r"(?=[+-])", text.replace(" ", ""))
    coeffs: dict[int, Fraction] = {}
    for chunk in chunks:
        if not chunk:
            continue
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise InputError(f"cannot parse polynomial term {chunk!r}")
        v = m.group("var")
        if v is not None and v.lower() != var.lower():
            raise InputError(f"unexpected variable {v!r} (expected {var!r})")
        raw = m.group("coeff")
        if raw is None or raw in ("+", "-"):
            c = Fraction(-1 if raw == "-" else 1)
        else:
            try:
                c = Fraction(raw.replace(" ", ""))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad coefficient in {chunk!r}") from exc
        if v is None:
            k = 0
        elif m.group("exp") is None:
            k = 1
        else:
            k = int(m.group("exp"))
        coeffs[k] = coeffs.get(k, Fraction(0)) + c
    deg = max(coeffs) if coeffs else 0
    return Poly([coeffs.get(i, Fraction(0)) for i in range(deg + 1)])


def format_poly(p: Poly, var: str = "h") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            body = str(c)
        else:
            power = var if i == 1 else f"{var}^{i}"
            if c == 1:
                body = power
            elif c == -1:
                body = f"-{power}"
            else:
                body = f"{c}*{power}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f"- {body[1:]}")
        else:
            parts.append(f"+ {body}")
    return " ".join(parts)
