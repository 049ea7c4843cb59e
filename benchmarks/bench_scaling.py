"""Time the oracle as n = deg a grows: the scaling curve.

    python3 benchmarks/bench_scaling.py --src src
    python3 benchmarks/bench_scaling.py --src src --label change --out BENCH_scaling.json

Imports `gwa` from `--src` and, for each point of `POINTS`, runs
`oracle_dims` with its default schedule for homology and then cohomology
at p_max 4 on a = h^2 (h - 2)(h - 3)...(h - (n - 1)), h0 = 1: untwisted
over Q, or under the torus twist w = zeta_m.  Each run starts with the
caches of `gwa.complexes` and `gwa.algebra` emptied, as a new `gwa` process
starts a job.  For each point it prints the median of `RUNS` runs, with
every sample, the final D (the largest `stabilized_at` of the two
variants) and the shape (rows, columns) of the largest map the oracle
assembled, and checks that both vectors equal the formulas; a point that
does not makes the script exit with status 1.  The result also holds the
exponent k of a power law t ~ n^k fitted through the Q points at n = 12
and n = 20.  `--src`, `--label` and `--out` work as in `bench_assembly.py`.

Times are reference seconds of the calibration gauge in
`oraclebench/calibrate.py`, as in `bench_assembly.py`: the host's speed
drifts by up to 2x over minutes, which raw seconds would carry into every
comparison.
"""

from __future__ import annotations

import math
import statistics
import sys

from bench_assembly import arguments, calibrate, clear_caches, import_gwa, report

#: (field, n): Q is untwisted, zetaM the twist w = zeta_M.
POINTS = (("Q", 5), ("Q", 9), ("Q", 12), ("Q", 16), ("Q", 20),
          ("zeta3", 5), ("zeta5", 4), ("zeta7", 5), ("zeta11", 3))
P_MAX = 4
RUNS = 3
#: The Q points the exponent is fitted through.
FIT = (12, 20)


def polynomial(n: int):
    """h^2 (h - 2)(h - 3)...(h - (n - 1)), of degree n with one double root,
    as a `gwa.poly.Poly`."""
    from gwa.poly import Poly

    a = Poly.gen() ** 2
    for r in range(2, n):
        a = a * Poly([-r, 1])
    return a


def one_run(gwa, field: str, n: int, gauge: calibrate.Gauge) -> dict:
    """The gauged time of one run at the point (field, n), its final D, the
    largest assembled shape and whether both vectors equal the formulas."""
    from gwa.algebra import GWASpec, Torus
    from gwa.formulas import coh_dims, hh_dims, twisted_dims
    from gwa.poly import ShiftSigma
    from gwa.scalars import zeta

    complexes = gwa.complexes
    clear_caches(gwa)
    spec = GWASpec(polynomial(n), ShiftSigma(1))
    twist = None if field == "Q" else Torus(zeta(int(field.removeprefix("zeta"))))
    shapes = []
    real = complexes.assemble_total_matrix

    def assemble(*args):
        tm = real(*args)
        shapes.append((tm.codomain.dim, tm.domain.dim))
        return tm

    def run():
        return {variant: complexes.oracle_dims(spec, complexes.ComplexKind(variant, twist), P_MAX)
                for variant in ("homology", "cohomology")}

    complexes.assemble_total_matrix = assemble
    try:
        stabs, elapsed = gauge.timed(run)
    finally:
        complexes.assemble_total_matrix = real
    if twist is None:
        want = {"homology": hh_dims(spec.a, spec.sigma, P_MAX).dims,
                "cohomology": coh_dims(spec.a, spec.sigma, P_MAX).dims}
    else:
        want = {variant: twisted_dims(spec.a, spec.sigma, variant, P_MAX).dims
                for variant in stabs}
    return {"s": elapsed,
            "final_d": max(s.stabilized_at for values in stabs.values() for s in values),
            "largest_shape": list(max(shapes, key=lambda shape: shape[0] * shape[1])),
            "agrees": all([int(v) for v in stabs[variant]] == want[variant] for variant in stabs)}


def main() -> int:
    args = arguments(__doc__).parse_args()
    gwa = import_gwa(args.src)
    import gwa.algebra
    import gwa.complexes
    import gwa.poly

    points = {}
    for field, n in POINTS:
        with calibrate.Gauge() as gauge:
            runs = [one_run(gwa, field, n, gauge) for _ in range(RUNS)]
        samples = [run["s"] for run in runs]
        point = {"field": field, "n": n, "a": gwa.poly.format_poly(polynomial(n)),
                 "median_s": round(statistics.median(samples), 4),
                 "samples_s": [round(v, 4) for v in samples],
                 "final_d": runs[0]["final_d"], "largest_shape": runs[0]["largest_shape"],
                 "agrees": all(run["agrees"] for run in runs)}
        points[f"{field} n={n}"] = point
        print(f"{field:6} n={n:2} median {point['median_s']:.3f} s of {RUNS} runs, "
              f"final D {point['final_d']}, largest map {point['largest_shape']}, "
              f"agrees {point['agrees']} (reference seconds)", file=sys.stderr)
    low, high = (points[f"Q n={n}"]["median_s"] for n in FIT)
    exponent = math.log(high / low) / math.log(FIT[1] / FIT[0])
    print(f"exponent between n = {FIT[0]} and n = {FIT[1]} over Q: {exponent:.2f}",
          file=sys.stderr)
    result = {"h0": "1", "p_max": P_MAX, "variants": ["homology", "cohomology"], "runs": RUNS,
              "unit": f"reference s, median of runs ({calibrate.REFERENCE_S} s per "
                      "calibration kernel run)",
              "points": points, "fit_n": list(FIT), "exponent": round(exponent, 2)}
    report(result, args.out, args.label)
    return 0 if all(point["agrees"] for point in points.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
