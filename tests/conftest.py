"""Shared fixtures: the standard polynomial suite used across the tests,
and the test-only check `h0_basis_independent`.

The suite mixes squarefree and engineered multiple-root polynomials of
degrees one through five with the three shift steps exercised everywhere.
"""

from fractions import Fraction

import pytest

from gwa.algebra import GWASpec
from gwa.invariants import _h0_relators, _relator_rows
from gwa.linalg import rank_rows
from gwa.poly import ShiftSigma, parse_poly

SUITE_TEXT = [
    ("h", "1"),
    ("h", "2"),
    ("h+1", "1/2"),
    ("1-h-h^2", "1"),            # regular primitive quotient (lambda = 1)
    ("-1/4-h-h^2", "1"),         # singular: -(h+1/2)^2
    ("h^2-2", "1"),
    ("h^2", "1"),
    ("h^2-1", "2"),
    ("h^2+h", "1/2"),
    ("h^3-h", "1"),
    ("h^3", "1"),
    ("h^3-h-1", "1"),
    ("h^3-h^2", "1"),            # h^2(h-1)
    ("h^4-4*h^2+4", "1/2"),      # (h^2-2)^2
    ("h^4-5*h^2+6", "1"),
    ("h^4", "2"),
    ("h^5-2*h^4+h^3", "1"),      # h^3(h-1)^2
    ("h^5-h", "1"),
    ("h^5", "1/2"),
    ("2*h^3+3*h^2+1", "2"),
    ("h^2-3*h+2", "1"),          # roots differ by the shift step
    ("h^4+h^2-6", "1"),
]


def suite_specs():
    out = []
    for a_text, h0_text in SUITE_TEXT:
        a = parse_poly(a_text)
        sigma = ShiftSigma(Fraction(h0_text))
        out.append(GWASpec(a, sigma))
    return out


@pytest.fixture(scope="session")
def suite():
    return suite_specs()


def h0_basis_independent(spec: GWASpec, d: int | None = None) -> bool:
    """Whether the classes of 1, h, ..., h^{n-2} are independent in the
    brute-force degree-zero quotient of `gwa.invariants.h0_bruteforce`."""
    n = spec.n
    if n == 1:
        return True
    if d is None:
        d = max(4 * n, 12)
    rows = _relator_rows(_h0_relators(spec, d), d)
    base = rank_rows(rows, d + 1, None)
    for j in range(n - 1):
        rows.append([1 if k == j else 0 for k in range(d + 1)])
    return rank_rows(rows, d + 1, None) == base + (n - 1)
