"""Time the matrix assembly and the d o d = 0 check inside one oracle pass,
per field.

    python3 benchmarks/bench_assembly.py --src src
    python3 benchmarks/bench_assembly.py --src src --fields zeta5 zeta8
    python3 benchmarks/bench_assembly.py --src src --label change --out BENCH_assembly.json

Imports `gwa` from `--src` and wraps `gwa.complexes.assemble_total_matrix`
and `gwa.complexes.compose_is_zero`, the names the oracle looks up at each
call, with a timer.  A pass is one `oracle_dims` call per variant
(homology, then cohomology) with p_max 4 on a = h^5-2h^4+h^3, h0 = 1, which
stabilizes at D = 24.  It runs for each field named by `--fields`
(default: all): Q (no twist) and the torus twists w = -1, zeta3, zeta4,
zeta5 and zeta8.  For each field it prints the median over 5 passes of the
assembly time, the time inside the d o d = 0 check (`dod_s`), the pass
time and the assembly calls of a pass, with every sample.  With `--out`,
the result is also stored in that JSON file under `--label`, beside a
description of the machine it ran on; other labels already in the file are
kept.

Times are reference seconds of the calibration gauge in
`oraclebench/calibrate.py` (imported from there, unchanged): a fixed kernel
runs every few milliseconds while a pass runs, and each time is scaled by
the kernel's speed during it.  The host's speed drifts by up to 2x over
minutes, which raw seconds would carry into every comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "oraclebench"))
import calibrate  # noqa: E402

A = "h^5-2*h^4+h^3"
P_MAX = 4
FIELDS = {"Q": None, "w=-1": 2, "zeta3": 3, "zeta4": 4, "zeta5": 5, "zeta8": 8}
RUNS = 5


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "os": platform.platform(),
            "python": platform.python_version()}


def one_pass(gwa, order: int | None,
             gauge: calibrate.Gauge) -> tuple[float, float, float, int]:
    """(assembly time, d o d check time, pass time, assembly calls) of one
    pass, times in reference seconds."""
    from fractions import Fraction

    complexes = gwa.complexes
    spec = gwa.algebra.GWASpec(gwa.poly.parse_poly(A), gwa.poly.ShiftSigma(1))
    twist = None if order is None else gwa.algebra.Torus(
        Fraction(-1) if order == 2 else gwa.scalars.zeta(order))
    spent = [0.0, 0.0, 0]
    real, real_check = complexes.assemble_total_matrix, complexes.compose_is_zero

    def timed(*args):
        result, elapsed = gauge.timed(lambda: real(*args))
        spent[0] += elapsed
        spent[2] += 1
        return result

    def timed_check(*args):
        result, elapsed = gauge.timed(lambda: real_check(*args))
        spent[1] += elapsed
        return result

    def run():
        for variant in ("homology", "cohomology"):
            complexes.oracle_dims(spec, complexes.ComplexKind(variant, twist), P_MAX)

    complexes.assemble_total_matrix, complexes.compose_is_zero = timed, timed_check
    try:
        _, total = gauge.timed(run)
    finally:
        complexes.assemble_total_matrix, complexes.compose_is_zero = real, real_check
    return spent[0], spent[1], total, spent[2]


def arguments(doc: str) -> argparse.ArgumentParser:
    """A parser of the options every benchmark script takes: `--src`,
    `--label` and `--out`."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the gwa package")
    parser.add_argument("--label", default="run")
    parser.add_argument("--out", type=Path)
    return parser


def import_gwa(src: str):
    """The gwa package imported from the directory `src`; exits with status 2
    if the import finds another copy."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import gwa

    if not Path(gwa.__file__).resolve().is_relative_to(src):
        print(f"error: imported gwa from {gwa.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return gwa


def report(result: dict, out: Path | None, label: str) -> None:
    """Print `result` as JSON.  With `out`, also store it in that JSON file
    under `label`, beside `machine()`, keeping the other labels there."""
    print(json.dumps(result))
    if out is not None:
        data = json.loads(out.read_text()) if out.exists() else {}
        data["machine"] = machine()
        data.setdefault("results", {})[label] = result
        out.write_text(json.dumps(data, indent=2) + "\n")


def main() -> int:
    parser = arguments(__doc__)
    parser.add_argument("--fields", nargs="+", choices=list(FIELDS), default=list(FIELDS),
                        help="fields to run (default: all)")
    args = parser.parse_args()
    gwa = import_gwa(args.src)
    import gwa.algebra
    import gwa.complexes
    import gwa.poly
    import gwa.scalars

    fields = {}
    for name in args.fields:
        with calibrate.Gauge() as gauge:
            samples = [one_pass(gwa, FIELDS[name], gauge) for _ in range(RUNS)]
        assembly, dod, total, calls = zip(*samples)
        fields[name] = {
            "assembly_s": round(statistics.median(assembly), 4),
            "dod_s": round(statistics.median(dod), 4),
            "pass_s": round(statistics.median(total), 4),
            "assembly_calls": statistics.median(calls),
            "assembly_samples_s": [round(v, 4) for v in assembly],
            "dod_samples_s": [round(v, 4) for v in dod],
            "pass_samples_s": [round(v, 4) for v in total],
        }
        print(f"{name:6} assembly {fields[name]['assembly_s']:.3f} s, "
              f"d o d {fields[name]['dod_s']:.3f} s, "
              f"pass {fields[name]['pass_s']:.3f} s, {calls[0]} assemblies "
              f"(median of {RUNS}, reference seconds)", file=sys.stderr)
    result = {"a": A, "h0": "1", "p_max": P_MAX, "runs": RUNS,
              "unit": f"reference s ({calibrate.REFERENCE_S} s per calibration kernel run)",
              "fields": fields}
    report(result, args.out, args.label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
