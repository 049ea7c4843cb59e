"""Time the matrix assembly and the d o d = 0 check inside one oracle pass,
per field.

    python3 benchmarks/bench_assembly.py --src src
    python3 benchmarks/bench_assembly.py --src src --fields zeta5 zeta8
    python3 benchmarks/bench_assembly.py --src src --label change --out BENCH_assembly.json

Imports `gwa` from `--src` and wraps `gwa.complexes.assemble_total_matrix`
(with a timer) and `gwa.complexes.compose_is_zero` (to record its calls),
the names the oracle looks up at each call; where the tree has them, also
`gwa.complexes._block_table` (with a timer) and `_build_block_table` (to
count the builds).  A pass is one `oracle_dims` call per variant
(homology, then cohomology) with p_max 4 on a = h^5-2h^4+h^3, h0 = 1, which
stabilizes at D = 24.  Each pass starts with the caches of
`gwa.complexes` and `gwa.algebra` emptied, as a new `gwa` process starts
a job.  It runs for each field named by `--fields` (default: all): Q (no
twist) and the torus twists w = -1, zeta3, zeta4, zeta5 and zeta8.  For
each field it prints the median over 5 passes of the assembly time, the
part of it in the block table (`table_s`, null for a tree without one),
the time of the d o d = 0 check (`dod_s`), the pass time, and the
assembly calls and table builds of a pass, with every sample.  The check's calls
are a few milliseconds each, too short for the gauge to scale one by one,
so `dod_s` replays the calls of a pass back to back `DOD_REPLAYS` times
after it, as one gauged step, and reports the time per replay.  With
`--out`, the result is also stored in that JSON file under `--label`,
beside a description of the machine it ran on; other labels already in
the file are kept.

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
DOD_REPLAYS = 10


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


def one_pass(gwa, order: int | None, gauge: calibrate.Gauge) -> dict:
    """The times (in reference seconds) and counts of one pass: `assembly`,
    `table` (None without a block table), `dod` (one replay of the pass's
    checks, see the module docstring), `pass`, `calls` (assemblies) and
    `builds` (block tables built; None without a block table)."""
    from fractions import Fraction

    complexes = gwa.complexes
    for module in (gwa.complexes, gwa.algebra):
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    spec = gwa.algebra.GWASpec(gwa.poly.parse_poly(A), gwa.poly.ShiftSigma(1))
    twist = None if order is None else gwa.algebra.Torus(
        Fraction(-1) if order == 2 else gwa.scalars.zeta(order))
    tabled = hasattr(complexes, "_block_table")
    sample = {"assembly": 0.0, "calls": 0,
              "table": 0.0 if tabled else None, "builds": 0 if tabled else None}
    checks = []

    def wrapped(real, time_key=None, count_key=None):
        """`real`, with its gauged time added to `sample[time_key]` and its
        calls counted in `sample[count_key]`."""
        def wrapper(*args):
            if count_key:
                sample[count_key] += 1
            if not time_key:
                return real(*args)
            result, elapsed = gauge.timed(lambda: real(*args))
            sample[time_key] += elapsed
            return result
        return wrapper

    def recorded(real):
        def check(*args):
            checks.append(args)
            return real(*args)
        return check

    real = {"assemble_total_matrix": complexes.assemble_total_matrix,
            "compose_is_zero": complexes.compose_is_zero}
    wrappers = {"assemble_total_matrix": wrapped(real["assemble_total_matrix"], "assembly", "calls"),
                "compose_is_zero": recorded(real["compose_is_zero"])}
    if tabled:
        real["_block_table"] = complexes._block_table
        real["_build_block_table"] = complexes._build_block_table
        wrappers["_block_table"] = wrapped(real["_block_table"], "table")
        wrappers["_build_block_table"] = wrapped(real["_build_block_table"], count_key="builds")

    def run():
        for variant in ("homology", "cohomology"):
            complexes.oracle_dims(spec, complexes.ComplexKind(variant, twist), P_MAX)

    def replay():
        for _ in range(DOD_REPLAYS):
            for args in checks:
                real["compose_is_zero"](*args)

    for name, wrapper in wrappers.items():
        setattr(complexes, name, wrapper)
    try:
        _, sample["pass"] = gauge.timed(run)
    finally:
        for name, function in real.items():
            setattr(complexes, name, function)
    _, dod = gauge.timed(replay)
    sample["dod"] = dod / DOD_REPLAYS
    return sample


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

        def median(key, digits=4):
            values = [sample[key] for sample in samples]
            return None if None in values else round(statistics.median(values), digits)

        def every(key):
            values = [sample[key] for sample in samples]
            return None if None in values else [round(v, 4) for v in values]

        fields[name] = {
            "assembly_s": median("assembly"),
            "table_s": median("table"),
            "dod_s": median("dod"),
            "pass_s": median("pass"),
            "assembly_calls": median("calls"),
            "table_builds": median("builds"),
            "assembly_samples_s": every("assembly"),
            "table_samples_s": every("table"),
            "dod_samples_s": every("dod"),
            "pass_samples_s": every("pass"),
        }
        table = fields[name]["table_s"]
        print(f"{name:6} assembly {fields[name]['assembly_s']:.3f} s "
              f"(table {'-' if table is None else f'{table:.3f}'} s, "
              f"{fields[name]['table_builds']} builds), "
              f"d o d {fields[name]['dod_s']:.3f} s, "
              f"pass {fields[name]['pass_s']:.3f} s, {samples[0]['calls']} assemblies "
              f"(median of {RUNS}, reference seconds)", file=sys.stderr)
    result = {"a": A, "h0": "1", "p_max": P_MAX, "runs": RUNS, "dod_replays": DOD_REPLAYS,
              "unit": f"reference s ({calibrate.REFERENCE_S} s per calibration kernel run)",
              "fields": fields}
    report(result, args.out, args.label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
