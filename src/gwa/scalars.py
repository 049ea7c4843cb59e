"""Exact field scalars: arbitrary-precision rationals and cyclotomic numbers.

A scalar is either a ``fractions.Fraction`` (the base field, always reduced
with positive denominator) or a :class:`Cyclotomic`, an element of the
extension obtained by adjoining a primitive m-th root of unity, represented
as the canonical residue modulo the m-th cyclotomic polynomial.  Mixed
arithmetic coerces rationals into the cyclotomic field; two cyclotomic
scalars of different orders do not mix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import InputError

#: Largest root-of-unity order accepted by default; phi(m) growth makes
#: matrices over larger fields too expensive to be useful here.
DEFAULT_ORDER_CAP = 64

_ZERO = Fraction(0)


class ScalarFieldError(InputError):
    """Incompatible or unsupported scalar fields (e.g. mixing zeta3 with zeta4)."""


def _poly_divmod_int(num, den):
    """Exact division of integer coefficient lists (ascending), den monic."""
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(len(num) - deg_d, 0)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c:
            quot[i - deg_d] = c
            for j, dj in enumerate(den):
                num[i - deg_d + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the m-th cyclotomic polynomial.

    Computed by dividing x^m - 1 by the product of the lower cyclotomic
    polynomials over the proper divisors of m; the division is exact in Z[x].
    """
    if m < 1:
        raise ScalarFieldError(f"cyclotomic order must be >= 1, got {m}")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            phi_d = cyclotomic_coeffs(d)
            den = [
                sum(den[i] * phi_d[k - i] for i in range(max(0, k - len(phi_d) + 1), min(k + 1, len(den))))
                for k in range(len(den) + len(phi_d) - 1)
            ]
    quot, rem = _poly_divmod_int(num, den)
    assert not rem, f"cyclotomic division left a remainder for m={m}"
    return tuple(quot)


def euler_phi(m: int) -> int:
    return len(cyclotomic_coeffs(m)) - 1


def _reduce_mod_phi(work: list[Fraction], m: int) -> tuple[Fraction, ...]:
    """The residue of sum work[i] t^i modulo Phi_m; reduces `work` in place.

    Coefficients are subtracted as they are, so `Fraction`s stay
    `Fraction`s.
    """
    phi = cyclotomic_coeffs(m)
    deg = len(phi) - 1
    # Phi_m is monic; its top term only cancels work[i], which is dropped.
    terms = [(j, c) for j, c in enumerate(phi[:deg]) if c]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            base = i - deg
            for j, pj in terms:
                if pj == 1:
                    work[base + j] -= c
                elif pj == -1:
                    work[base + j] += c
                else:
                    work[base + j] -= c * pj
    del work[deg:]
    work += [Fraction(0)] * (deg - len(work))
    return tuple(work)


class Cyclotomic:
    """Element of the field generated by a primitive ``order``-th root of unity.

    ``coeffs`` is the canonical representative modulo the cyclotomic
    polynomial: a tuple of ``phi(order)`` rationals, ascending powers of the
    root.  All arithmetic is field arithmetic (the cyclotomic polynomial is
    irreducible over the rationals).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs, reduce: bool = True):
        if order < 1:
            raise ScalarFieldError(f"order must be positive, got {order}")
        vals = [Fraction(c) for c in coeffs]
        if reduce:
            self.coeffs = _reduce_mod_phi(vals, order)
        else:
            self.coeffs = tuple(vals)
        self.order = order

    @classmethod
    def _make(cls, order: int, coeffs: tuple) -> "Cyclotomic":
        """Internal constructor: coeffs already reduced Fractions."""
        self = object.__new__(cls)
        self.order = order
        self.coeffs = coeffs
        return self

    @classmethod
    def from_rational(cls, order: int, value) -> "Cyclotomic":
        d = euler_phi(order)
        return cls(order, (Fraction(value),) + (Fraction(0),) * (d - 1), reduce=False)

    @classmethod
    def zeta(cls, order: int, power: int = 1, cap: int = DEFAULT_ORDER_CAP) -> "Cyclotomic":
        if order > cap:
            raise ScalarFieldError(f"order {order} exceeds the configured cap {cap}")
        d = euler_phi(order)
        power %= order
        if power < d:
            coeffs = [Fraction(0)] * d
            coeffs[power] = Fraction(1)
            return cls(order, coeffs, reduce=False)
        coeffs = [Fraction(0)] * (power + 1)
        coeffs[power] = Fraction(1)
        return cls(order, coeffs)

    def _pair(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ScalarFieldError(
                    f"cannot mix zeta{self.order} with zeta{other.order} scalars"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._make(
            self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._make(
            self.order, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._make(
            self.order, tuple(b - a for a, b in zip(self.coeffs, o.coeffs))
        )

    def __mul__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        mine, theirs = self.coeffs, o.coeffs
        prod = [_ZERO] * (2 * len(mine) - 1)
        for i, a in enumerate(mine):
            if a:
                for j, b in enumerate(theirs):
                    if b:
                        # A cell still zero takes a * b without adding 0.
                        cell = prod[i + j]
                        prod[i + j] = cell + a * b if cell else a * b
        return Cyclotomic._make(self.order, _reduce_mod_phi(prod, self.order))

    __rmul__ = __mul__

    def __neg__(self):
        return Cyclotomic._make(self.order, tuple(-a for a in self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                return self.is_rational() and other.is_rational() and \
                    self.rational_value() == other.rational_value()
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.order, self.coeffs))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ScalarFieldError(f"{self} is not rational")
        return self.coeffs[0]

    def inverse(self) -> "Cyclotomic":
        """Field inverse through the norm: with q = den * self in Z[z], den
        the lcm of the denominators, and k the cofactor of q (the product of
        its other Galois conjugates), q k is a nonzero rational integer N and
        self^-1 = den k / N.  Rational elements take 1/x directly."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.is_rational():
            return Cyclotomic.from_rational(self.order, 1 / self.coeffs[0])
        from ._cyclotomic_ring import ring

        integers = ring(self.order)
        den = lcm(*(c.denominator for c in self.coeffs))
        q = tuple(c.numerator * (den // c.denominator) for c in self.coeffs)
        k = integers.cofactor(q)
        n = integers.norm(q, k)
        return Cyclotomic._make(self.order, tuple(Fraction(den * c, n) for c in k))

    def __truediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic.from_rational(self.order, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self):
        return f"Cyclotomic({self.order}, {list(self.coeffs)})"

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("z" if c == 1 else ("-z" if c == -1 else f"{c}*z"))
            else:
                base = f"z^{i}"
                terms.append(base if c == 1 else (f"-{base}" if c == -1 else f"{c}*{base}"))
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"({body}) @ zeta{self.order}"


def zeta(order: int, power: int = 1, cap: int = DEFAULT_ORDER_CAP) -> Cyclotomic:
    """A primitive ``order``-th root of unity raised to ``power``."""
    return Cyclotomic.zeta(order, power, cap)


def scalar_inverse(x):
    if isinstance(x, Cyclotomic):
        return x.inverse()
    x = Fraction(x)
    if not x:
        raise ZeroDivisionError("rational division by zero")
    return 1 / x


def field_order(x) -> int | None:
    """None for rational scalars, the root-of-unity order for cyclotomic ones."""
    return x.order if isinstance(x, Cyclotomic) else None


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarFieldError(f"cannot parse rational {text!r}") from exc
