"""Arithmetic in Z[zeta_m] for the cyclotomic fields of degree above two.

`gwa.linalg` imports this module on the first rank over such a field, not
with the package: only `_kernels.echelon_cyclo` needs it.
"""

from __future__ import annotations

from math import gcd


class CyclotomicIntegers:
    """Arithmetic in Z[z]/Phi_m for a cyclotomic polynomial of degree d > 2.

    Elements are d-tuples of ints, the coefficients of 1, z, ..., z^(d-1).
    `mul(a, b)` and `combine` are straight-line code, compiled once per ring
    from Phi_m's coefficients: a generic loop over the coefficients was
    measured slower than the `Cyclotomic` sweep this arithmetic replaces.
    `cofactor(q)` is the product of the Galois conjugates of q other than q
    itself, so q * cofactor(q) is the norm of q, a rational integer.
    """

    def __init__(self, order: int, phi):
        d = len(phi) - 1
        self.degree = d
        self.zero = (0,) * d
        self.one = (1,) + self.zero[1:]
        powers = _powers(phi, max(order, 2 * d - 1))
        # The conjugation z -> z^j sends z^i to z^(i*j mod m).
        self._conjugations = [[powers[i * j % order] for i in range(d)]
                              for j in range(2, order) if gcd(j, order) == 1]
        namespace = {}
        exec(_ring_source(d, powers), namespace)
        self.mul = namespace["mul"]
        self.combine = namespace["combine"]

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


def _reduced_product(d, powers, factors):
    """Source of sum(sign * a * b for (sign, a, b) in factors), the names a
    and b standing for elements unpacked into a0..a{d-1}, b0..b{d-1}.
    Returns (lines assigning the coefficients c{k} of z^k, k >= d, of the
    unreduced product; the d reduced coordinates as expressions)."""
    def coeff(k):
        return [(sign, f"{a}{i}*{b}{k - i}") for sign, a, b in factors
                for i in range(max(0, k - d + 1), min(k, d - 1) + 1)]

    high = range(d, 2 * d - 1)
    lines = [f"c{k} = {_linear(coeff(k))}" for k in high]
    coords = [_linear(coeff(t) + [(powers[k][t], f"c{k}") for k in high if powers[k][t]])
              for t in range(d)]
    return lines, coords


def _ring_source(d, powers) -> str:
    """Source of `mul(a, b)` and of `combine(row, top, col, ncols, p, f, n)`,
    which sets row[j] = (p * row[j] - f * top[j]) / n for col <= j < ncols,
    skipping the cells that are zero in both rows."""
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(d)) + ","

    lines, coords = _reduced_product(d, powers, [(1, "a", "b")])
    src = ["def mul(a, b):", f"    {names('a')} = a", f"    {names('b')} = b"]
    src += ["    " + line for line in lines]
    src.append(f"    return ({', '.join(coords)},)")

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
        src.append(f"                row[j] = ({', '.join(values)},)")
    return "\n".join(src) + "\n"
