"""Closed-form dimension tables.

Every statement reduces to the two integers n = deg a and d = deg gcd(a, a'):
the untwisted homology and cohomology tables, the twisted tables for a
diagonal automorphism different from the identity, the invariant-subalgebra
cohomology count, and the degree-shift duality flag (which holds exactly when
a has only simple roots).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import HypothesisError
from .poly import Poly, ShiftSigma, degree_invariants


@dataclass
class DimReport:
    """Per-degree dimensions from one source."""

    n: int
    d: int
    dims: list[int]
    source: str  # "formula" | "oracle"
    kind: str    # "homology" | "cohomology" | "twisted-homology" | ...
    meta: dict = field(default_factory=dict)


def _tail(head: list[int], tail_value: int, p_max: int) -> list[int]:
    out = list(head) + [tail_value] * (p_max + 1 - len(head))
    return out[: p_max + 1]


def hh_dims(a: Poly, s: ShiftSigma, p_max: int = 5) -> DimReport:
    """Hochschild homology dimensions: [n-1, 0, 1, 0, ...] for simple roots,
    [n-1, d-1, d, d, ...] otherwise."""
    n, d = degree_invariants(a, s)
    if d == 0:
        dims = _tail([n - 1, 0, 1], 0, p_max)
    else:
        dims = _tail([n - 1, d - 1], d, p_max)
    return DimReport(n, d, dims, "formula", "homology")


def coh_dims(a: Poly, s: ShiftSigma, p_max: int = 5) -> DimReport:
    """Hochschild cohomology dimensions: [1, 0, n-1, 0, ...] for simple
    roots, [1, 0, n-1, d, d, ...] otherwise."""
    n, d = degree_invariants(a, s)
    dims = _tail([1, 0, n - 1], 0 if d == 0 else d, p_max)
    return DimReport(n, d, dims, "formula", "cohomology")


def twisted_dims(a: Poly, s: ShiftSigma, variant: str, p_max: int = 5) -> DimReport:
    """Dimensions with coefficients twisted by a non-identity diagonal
    automorphism: homology [n, d, d, ...], cohomology [0, 0, n, d, d, ...]."""
    n, d = degree_invariants(a, s)
    if variant == "homology":
        dims = _tail([n], d, p_max)
    elif variant == "cohomology":
        dims = _tail([0, 0, n], d, p_max)
    else:
        raise HypothesisError(f"unknown variant {variant!r}")
    return DimReport(n, d, dims, "formula", f"twisted-{variant}")


def group_coh_dims(n: int, a1: int, a2: int, p_max: int = 5) -> DimReport:
    """Cohomology of the invariant subalgebra under a finite group whose
    elements are conjugate into the torus: 1 in degree zero,
    (n-1) + n*a1 + floor((n+1)/2)*a2 in degree two, zero elsewhere."""
    if n < 1 or a1 < 0 or a2 < 0:
        raise HypothesisError("need n >= 1 and nonnegative class counts")
    degree2 = (n - 1) + n * a1 + ((n + 1) // 2) * a2
    dims = _tail([1, 0, degree2], 0, p_max)
    report = DimReport(n, 0, dims, "formula", "group-cohomology")
    report.meta = {"a1": a1, "a2": a2}
    return report


def duality_flag(a: Poly, s: ShiftSigma) -> bool:
    """True when homology and cohomology match under p <-> 2 - p, checked on
    the formula tables; equivalently, when a has only simple roots."""
    p_max = 5
    hh = hh_dims(a, s, p_max).dims
    coh = coh_dims(a, s, p_max).dims
    if any(hh[p] != coh[2 - p] for p in range(3)):
        return False
    return all(hh[p] == 0 and coh[p] == 0 for p in range(3, p_max + 1))
