"""Time the Bareiss elimination of assembled maps, per field.

    python3 benchmarks/bench_kernels.py --src src
    python3 benchmarks/bench_kernels.py --src src --label change --out BENCH_kernels.json

Imports `gwa` from `--src` and assembles, once per field, the maps out of
degrees 1, 2 and 3 of both variants (homology, cohomology) for each
polynomial of `POLYS`, at the bounds the oracle assembles for the default
schedule's second D: domain bound D + n + 1, codomain bound D + 2(n + 1).
Over Q the complexes are untwisted; over zeta3 and zeta5 they carry the
torus twist w = zeta_m.  Each run ranks a fresh copy of every map, one
with no kept pivots, by `TruncatedMap.rank()`: the oracle's own
elimination of an assembled map, whatever the format of its cells (a tree
whose maps hold field scalars scales their rows first, one whose maps hold
ring elements does not).  For each field it prints the median of 7 runs,
with every sample, the number of maps, their cells and the sum of their
ranks, which must agree between two code bases for their times to be
compared.  `--src`, `--label` and `--out` work as in `bench_assembly.py`.

Times are reference seconds of the calibration gauge in
`oraclebench/calibrate.py`, as in `bench_assembly.py`: the host's speed
drifts by up to 2x over minutes, which raw seconds would carry into every
comparison.  The median, not the best, of the runs: a run over Q spans
only one or two gauge samples, and the best run is the one whose samples
happened to read the host slowest.  Run two code bases one after the
other, in ABBA order, to compare them.
"""

from __future__ import annotations

import copy
import statistics
import sys
from fractions import Fraction

from bench_assembly import arguments, calibrate, import_gwa, report

#: (a, h0) in integral normal form, so the oracle would assemble these maps.
POLYS = (("h^2-1", "1"), ("h^3-h", "1"), ("h^3-h^2", "1"), ("h^2-3*h+2", "1"))
FIELDS = {"Q": None, "zeta3": 3, "zeta5": 5}
DEGREES = (1, 2, 3)
RUNS = 7


def assembled_maps(order: int | None) -> list:
    """The maps of the module docstring over the field of `order`."""
    from gwa.algebra import GWASpec, Torus
    from gwa.complexes import ComplexKind, assemble_total_matrix
    from gwa.linalg import Schedule
    from gwa.poly import ShiftSigma, parse_poly
    from gwa.scalars import zeta

    twist = None if order is None else Torus(zeta(order))
    out = []
    for a, h0 in POLYS:
        spec = GWASpec(parse_poly(a), ShiftSigma(Fraction(h0)))
        schedule = Schedule.default(spec.n)
        d = schedule.lookahead(schedule.start)
        margin = spec.n + 1
        for variant in ("homology", "cohomology"):
            kind = ComplexKind(variant, twist)
            out += [assemble_total_matrix(spec, kind, q, d + margin, d + 2 * margin)
                    for q in DEGREES]
    return out


def fresh(tm):
    """A copy of the map `tm` without its kept pivots, so that its `rank()`
    eliminates the whole matrix again."""
    out = copy.copy(tm)
    out._pivots = None
    return out


def main() -> int:
    args = arguments(__doc__).parse_args()
    import_gwa(args.src)

    fields = {}
    for name, order in FIELDS.items():
        maps = assembled_maps(order)
        with calibrate.Gauge() as gauge:
            runs = [gauge.timed(lambda: sum(fresh(tm).rank() for tm in maps))
                    for _ in range(RUNS)]
        ranks, samples = zip(*runs)
        fields[name] = {
            "median_s": round(statistics.median(samples), 4),
            "samples_s": [round(v, 4) for v in samples],
            "maps": len(maps),
            "cells": sum(tm.domain.dim * tm.codomain.dim for tm in maps),
            "rank_sum": ranks[0],
        }
        print(f"{name:6} median {fields[name]['median_s']:.4f} s of {RUNS} runs, "
              f"{len(maps)} maps, {fields[name]['cells']} cells, rank sum {ranks[0]} "
              "(reference seconds)", file=sys.stderr)
    result = {"polys": [f"a = {a}, h0 = {h0}" for a, h0 in POLYS], "degrees": list(DEGREES),
              "runs": RUNS,
              "unit": f"reference s, median of runs ({calibrate.REFERENCE_S} s per "
                      "calibration kernel run)",
              "fields": fields}
    report(result, args.out, args.label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
