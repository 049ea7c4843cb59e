"""Exact field scalars: arbitrary-precision rationals and cyclotomic numbers.

A scalar is either a ``fractions.Fraction`` (the base field, always reduced
with positive denominator) or a :class:`Cyclotomic`, an element of the
extension obtained by adjoining a primitive m-th root of unity, represented
as the canonical residue modulo the m-th cyclotomic polynomial.  Mixed
arithmetic coerces rationals into the cyclotomic field; two cyclotomic
scalars of different orders do not mix.  `Cyclotomic` is the field of
fractions of the ring Z[zeta_m] of `gwa._cyclotomic_ring`: the ring reduces
its coefficients and multiplies and inverts it, and a rational factor
scales the coefficients directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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


def _ring(order: int):
    """The ring of integers of Q(zeta_order), from `gwa._cyclotomic_ring`,
    which imports this module and so is imported here on first use."""
    from ._cyclotomic_ring import ring

    return ring(order)


class Cyclotomic:
    """Element of the field generated by a primitive ``order``-th root of unity.

    ``coeffs`` is the canonical representative modulo the cyclotomic
    polynomial: a tuple of ``phi(order)`` rationals, ascending powers of the
    root.  ``Cyclotomic(order, coeffs)`` takes any number of coefficients
    and reduces those past ``phi(order) - 1`` through the ring's table of
    reduced powers, with z^k = z^(k mod order).  All arithmetic is field
    arithmetic (the cyclotomic polynomial is irreducible over the
    rationals).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        d = euler_phi(order)
        vals = [Fraction(c) for c in coeffs]
        if len(vals) > d:
            # z^k = z^(k mod m), reduced through the ring's table of powers.
            powers = _ring(order).powers
            for k in range(d, len(vals)):
                if vals[k]:
                    for t, p in enumerate(powers[k % order]):
                        if p:
                            vals[t] += vals[k] * p
            del vals[d:]
        self.order = order
        self.coeffs = tuple(vals) + (_ZERO,) * (d - len(vals))

    @classmethod
    def _make(cls, order: int, coeffs: tuple) -> "Cyclotomic":
        """Internal constructor: coeffs already reduced Fractions."""
        self = object.__new__(cls)
        self.order = order
        self.coeffs = coeffs
        return self

    @classmethod
    def from_rational(cls, order: int, value) -> "Cyclotomic":
        return cls._make(order, (Fraction(value),) + (_ZERO,) * (euler_phi(order) - 1))

    @classmethod
    def zeta(cls, order: int, power: int = 1, cap: int = DEFAULT_ORDER_CAP) -> "Cyclotomic":
        if order > cap:
            raise ScalarFieldError(f"order {order} exceeds the configured cap {cap}")
        if order < 1:
            raise ScalarFieldError(f"order must be positive, got {order}")
        return cls(order, (0,) * (power % order) + (1,))

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
        if isinstance(other, (int, Fraction)):
            return Cyclotomic._make(self.order, tuple(c * other for c in self.coeffs))
        o = self._pair(other)
        if o is None:
            return NotImplemented
        # (a / da) (b / db) = ab / (da db), with a and b in Z[z].
        integers = _ring(self.order)
        da, (a,) = integers.scale([self])
        db, (b,) = integers.scale([o])
        ab = integers.mul(a, b)
        den = da * db
        return Cyclotomic._make(self.order, tuple(
            Fraction(c, den) for c in (ab if integers.degree > 1 else (ab,))))

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
        the lcm of the denominators (the ring's `scale`), and k the cofactor
        of q (the product of its other Galois conjugates), q k is a nonzero
        rational integer N and self^-1 = den k / N.  Rational elements take
        1/x directly."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.is_rational():
            return Cyclotomic.from_rational(self.order, 1 / self.coeffs[0])
        integers = _ring(self.order)
        den, (q,) = integers.scale([self])
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


def field_order(x) -> int | None:
    """None for rational scalars, the root-of-unity order for cyclotomic ones."""
    return x.order if isinstance(x, Cyclotomic) else None


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarFieldError(f"cannot parse rational {text!r}") from exc
