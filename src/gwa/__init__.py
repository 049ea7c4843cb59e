"""Hochschild (co)homology dimensions of generalized Weyl algebras over k[h].

Two independent routes to every dimension table: closed formulas in the two
integers n = deg a, d = deg gcd(a, a'), and a resolution-based oracle doing
exact linear algebra on truncated weight-zero complexes.  The public entry
points re-exported here mirror the module layout:

- scalars / poly: cyclotomic numbers over the rationals (`Fraction`), k[h]
  with the shift
- algebra: normal-form arithmetic in A(k[h], a, sigma) and its automorphisms
- linalg: truncated spaces, exact ranks and kernels, stabilization
- complexes: the oracle (total-complex and row dimensions, Bezout test,
  Euler homotopy)
- formulas: the closed-form dimension tables and the duality flag
- invariants: invariant subalgebras, simplicity, reflections, group counts
- cli: the `gwa` command
"""

from .algebra import (
    Composite,
    ExpX,
    ExpY,
    GWAElement,
    GWASpec,
    Omega,
    Torus,
    apply_automorphism,
    commutator,
    multiply,
    twisted_commutator,
)
from .complexes import (
    COHOMOLOGY,
    HOMOLOGY,
    ComplexKind,
    bezout_d2_test,
    bezout_witness,
    center_dim,
    euler_homotopy_check,
    oracle_dims,
    row_homology_dims,
)
from .errors import (
    GWAError,
    HypothesisError,
    InputError,
    InternalConsistencyError,
    StabilizationError,
)
from .formulas import DimReport, coh_dims, duality_flag, group_coh_dims, hh_dims, twisted_dims
from .linalg import (
    Schedule,
    StabilizedDim,
    TruncatedMap,
    TruncatedSpace,
    homology_dim_at,
)
from .poly import (
    Poly,
    ShiftSigma,
    compose_scale,
    cyclotomic_polynomial,
    degree_invariants,
    format_poly,
    gcd_monic,
    parse_poly,
    sigma_pow,
)
from .scalars import Cyclotomic, zeta

__version__ = "0.1.0"

#: Names re-exported from `gwa.invariants`, which is imported on the first
#: lookup of one of them: the oracle's commands do not use it, and every
#: process that imports `gwa` would otherwise compile it.
_INVARIANTS = frozenset({
    "GroupClassData",
    "Reflectivity",
    "exp_triviality_on_h0",
    "group_report",
    "h0_bruteforce",
    "invariant_gwa",
    "omega_fixed_dim",
    "reflectivity",
    "simplicity_check",
    "twisted_h0_bruteforce",
    "verify_invariant_identity",
})


def __getattr__(name: str):
    if name in _INVARIANTS:
        from . import invariants

        return getattr(invariants, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
