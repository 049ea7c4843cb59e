"""Arithmetic in Z[zeta_m], the ring every Bareiss elimination and every
cyclotomic product runs in.

Over Q the ring is Z, the cyclotomic ring of order 1 (Phi_1 = t - 1), with
bare ints as elements; over Q(zeta_m) of degree d >= 2 it is Z[z]/Phi_m,
with integer d-tuples, the cells of every `gwa.linalg.TruncatedMap`.
`ring(order)` builds each once; it is the one place that knows Phi_m.
`scale` turns field scalars into elements, for `Cyclotomic` (the field
of fractions, which multiplies and inverts through `scale` and `mul`),
`rank_rows`, `kernel_raw` and the public `TruncatedMap` constructor.
`combine` is the Bareiss step of every elimination, and `axpy` the
multiply-add of every d o d product.  `gwa.linalg` and `gwa.scalars`
import this module on first use.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import gcd, lcm

from .errors import InternalConsistencyError
from .scalars import Cyclotomic, ScalarFieldError, cyclotomic_coeffs


@lru_cache(maxsize=None)
def ring(order: int) -> "CyclotomicIntegers":
    """The ring of integers of Q(zeta_order), built once per order; order 1
    (and 2, the same field) gives Z."""
    return CyclotomicIntegers(order, cyclotomic_coeffs(order))


class CyclotomicIntegers:
    """Arithmetic in Z[z]/Phi_m for a cyclotomic polynomial of degree d.

    Elements are d-tuples of ints, the coefficients of 1, z, ..., z^(d-1),
    and bare ints for d = 1, where the ring is Z.  `mul(a, b)`, `combine`
    and `axpy` are straight-line code, compiled once per ring from Phi_m's
    coefficients: a generic loop over the coefficients was measured slower
    than the `Cyclotomic` sweep this arithmetic replaces.  For d = 1, `mul`,
    `exact` and `size` are the int operators *, // and abs, and `combine`
    and `axpy` are plain int loops.
    `cofactor(q)` is the product of the Galois conjugates of q other than q
    itself, so q * cofactor(q) is the norm of q, a rational integer (and
    cofactor(q) = 1 in Z).  `powers[k]` is z^k reduced modulo Phi_m, for
    k < max(m, 2d - 1).
    """

    def __init__(self, order: int, phi):
        d = len(phi) - 1
        self.order, self.degree = order, d
        self.powers = powers = _powers(phi, max(order, 2 * d - 1))
        # The conjugation z -> z^j sends z^i to z^(i*j mod m).
        self._conjugations = [[powers[i * j % order] for i in range(d)]
                              for j in range(2, order) if gcd(j, order) == 1]
        namespace = {}
        # A filename of its own per ring keeps each ring's routines apart in
        # tracebacks and profiles.
        exec(compile(_ring_source(d, powers), f"<ring of order {order}>", "exec"), namespace)
        self.combine, self.axpy = namespace["combine"], namespace["axpy"]
        if d == 1:
            self.zero, self.one = 0, 1
            self.mul, self.exact, self.size = operator.mul, operator.floordiv, abs
        else:
            self.zero = (0,) * d
            self.one = (1,) + self.zero[1:]
            self.mul = namespace["mul"]

    def scale(self, values):
        """(den, elements): `values`, a row of field scalars, times den, the
        lcm of all their coefficient denominators, as elements of this ring;
        for `Cyclotomic`, `rank_rows`, `kernel_raw` and the public
        `TruncatedMap` constructor (the oracle's maps never take it).

        Entries may be ints, `Fraction`s, `Cyclotomic`s of this ring's
        order and rational `Cyclotomic`s of any order; any other
        `Cyclotomic` raises a `ScalarFieldError`.  Zero entries become one
        shared zero element.  Over Z a list of plain ints is scaled by 1
        and returned itself, not copied, so callers must not mutate the
        elements.
        """
        d, order = self.degree, self.order
        if d == 1 and set(map(type, values)) <= {int}:
            return 1, values
        zero = (0,) * d
        coeffs = [zero if not v
                  else v.coeffs if isinstance(v, Cyclotomic) and v.order == order
                  else (_rational(v, order),) + zero[1:]
                  for v in values]
        den = 1
        for t in coeffs:
            if t is not zero:
                for c in t:
                    dc = c.denominator
                    if dc != 1 and den % dc:
                        den = lcm(den, dc)
        if d == 1:
            return den, [0 if t is zero else t[0].numerator * (den // t[0].denominator)
                         for t in coeffs]
        return den, [zero if t is zero
                     else tuple(c.numerator * (den // c.denominator) if c else 0 for c in t)
                     for t in coeffs]

    def exact(self, v, n):
        """v / n for a rational integer n that divides v."""
        return tuple(t // n for t in v)

    def size(self, v):
        """The pivot size: the sum of the absolute coefficients."""
        return sum(map(abs, v))

    def norm(self, q, k):
        """q * k for k = cofactor(q), checked to be a nonzero rational
        integer, so that a wrong cofactor raises rather than giving a wrong
        division."""
        n = self.mul(q, k)
        value = n if self.degree == 1 else 0 if any(n[1:]) else n[0]
        if not value:
            raise InternalConsistencyError(
                f"{q} times its cofactor {k} is {n}, not a nonzero rational integer"
            )
        return value

    def cofactor(self, q):
        """The product of the conjugates of q under z -> z^j, 1 < j < m,
        gcd(j, m) = 1."""
        k = self.one
        for images in self._conjugations:
            c = [0] * self.degree
            for qi, image in zip(q, images):
                if qi:
                    for t, v in enumerate(image):
                        if v:
                            c[t] += qi * v
            k = self.mul(k, tuple(c))
        return k


def _rational(v, order):
    """`v`, an int, `Fraction` or rational `Cyclotomic`, as an int or
    `Fraction`."""
    if isinstance(v, Cyclotomic):
        if not v.is_rational():
            raise ScalarFieldError(f"mixed cyclotomic orders {v.order} and {order}")
        return v.coeffs[0]
    return v


def _powers(phi, count):
    """z^0, ..., z^(count-1) reduced modulo the monic Phi (ascending ints)."""
    v = [1] + [0] * (len(phi) - 2)
    out = []
    for _ in range(count):
        out.append(tuple(v))
        top = v[-1]
        v = [0] + v[:-1]
        if top:
            # z^d = -(phi_0 + ... + phi_{d-1} z^(d-1)).
            v = [x - top * c for x, c in zip(v, phi)]
    return out


def _linear(terms) -> str:
    """Source of a sum of (int coefficient, expression) terms."""
    out = []
    for c, expr in terms:
        body = expr if abs(c) == 1 else f"{abs(c)}*{expr}"
        out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out).removeprefix("+ ") or "0"


def _reduced_product(d, powers, terms):
    """Source of sum(sign * a * b for (sign, a, b) in terms), the names a
    and b standing for elements unpacked into a0..a{d-1}, b0..b{d-1}.
    Returns (lines assigning the coefficients c{k} of z^k, k >= d, of the
    unreduced product; the d reduced coefficients as expressions)."""
    def coeff(k):
        return [(sign, f"{a}{i}*{b}{k - i}") for sign, a, b in terms
                for i in range(max(0, k - d + 1), min(k, d - 1) + 1)]

    high = range(d, 2 * d - 1)
    lines = [f"c{k} = {_linear(coeff(k))}" for k in high]
    coords = [_linear(coeff(t) + [(powers[k][t], f"c{k}") for k in high if powers[k][t]])
              for t in range(d)]
    return lines, coords


def _ring_source(d, powers) -> str:
    """Source of `mul(a, b)`, of `combine(row, top, col, ncols, p, f, n)`,
    which sets row[j] = (p * row[j] - f * top[j]) / n for col <= j < ncols,
    skipping the cells that are zero in both rows, and of `axpy(acc, p, b)`,
    which sets acc[t] += p * x for each (t, x) of the sparse row b."""
    # Elements of Z (d = 1) are bare ints, not 1-tuples.
    def names(prefix):
        return f"{prefix}0" if d == 1 else ", ".join(f"{prefix}{i}" for i in range(d)) + ","

    def pack(values):
        return values[0] if d == 1 else f"({', '.join(values)},)"

    lines, coords = _reduced_product(d, powers, [(1, "a", "b")])
    src = ["def mul(a, b):", f"    {names('a')} = a", f"    {names('b')} = b"]
    src += ["    " + line for line in lines]
    src.append(f"    return {pack(coords)}")

    lines, coords = _reduced_product(d, powers, [(1, "p", "x"), (-1, "f", "y")])
    nonzero = " or ".join(f"x{i} or y{i}" for i in range(d))
    src += ["def combine(row, top, col, ncols, p, f, n):",
            f"    {names('p')} = p", f"    {names('f')} = f"]
    for test, values in (("if n == 1", coords), ("else", [f"({e}) // n" for e in coords])):
        src += [f"    {test}:",
                "        for j in range(col, ncols):",
                f"            {names('x')} = row[j]",
                f"            {names('y')} = top[j]",
                f"            if {nonzero}:"]
        src += ["                " + line for line in lines]
        src.append(f"                row[j] = {pack(values)}")

    src += ["def axpy(acc, p, b):", f"    {names('p')} = p", "    for t, x in b:"]
    if d == 1:
        src.append("        acc[t] += p0*x")
    else:
        lines, coords = _reduced_product(d, powers, [(1, "p", "x")])
        src += [f"        {names('x')} = x", f"        {names('y')} = acc[t]"]
        src += ["        " + line for line in lines]
        src.append(f"        acc[t] = {pack([f'y{i} + ({e})' for i, e in enumerate(coords)])}")
    return "\n".join(src) + "\n"
