"""Peak memory of one pass over the rational workload, in a fresh process.

    python3 benchmarks/bench_pass_rss.py --src src
    python3 benchmarks/bench_pass_rss.py --src src --seed 2
    python3 benchmarks/bench_pass_rss.py --src src --label change --out BENCH_pass_rss.json

Starts a child Python process that imports `gwa` from `--src` once,
generates the `rational` job list for `--seed` with `oraclebench/jobs.py`
(imported from there, unchanged), runs every job once through
`gwa.cli.run_job` and checks that each report agrees with its formulas.
The child's `ru_maxrss` at the end is the peak resident memory of that one
pass.  Unlike the benchmark's `peak_rss_mib`, which is the peak of a whole
timed run with a fresh import of the package at every set-up, it counts
one import and no timing harness.  It runs 5 children one after another
and reports every value and their median.  With `--out`, the result is
also stored in that JSON file under `--label`, beside a description of the
machine (`bench_assembly.machine`); other labels already in the file are
kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_assembly import machine

ORACLEBENCH = Path(__file__).resolve().parent.parent / "oraclebench"
WORKLOAD = "rational"
RUNS = 5

CHILD = """
import resource, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import gwa.cli, jobs
if not gwa.cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported gwa from {gwa.cli.__file__}")
for job in jobs.generate(sys.argv[3], int(sys.argv[4])):
    report = gwa.cli.run_job(list(job.argv))
    if report.get("agreement") is not True:
        sys.exit(f"job disagrees with its formulas: {job.command_line()}")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def child_rss_mib(src: Path, seed: int) -> float:
    """ru_maxrss of one fresh child running one pass, in MiB (Linux reports KiB)."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(ORACLEBENCH), WORKLOAD, str(seed)],
        check=True, capture_output=True, text=True).stdout
    return int(out.split()[-1]) / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the gwa package")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--label", default="run")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    src = Path(args.src).resolve()
    if not (src / "gwa" / "__init__.py").is_file():
        print(f"error: no gwa package under {src}", file=sys.stderr)
        return 2
    samples = [child_rss_mib(src, args.seed) for _ in range(RUNS)]
    result = {"workload": WORKLOAD, "seed": args.seed,
              "pass_rss_mib": round(statistics.median(samples), 2),
              "samples_mib": [round(v, 2) for v in samples]}
    print(f"{WORKLOAD} seed {args.seed}: one pass peaks at "
          f"{result['pass_rss_mib']:.2f} MiB (median of {len(samples)} fresh processes)",
          file=sys.stderr)
    print(json.dumps(result))
    if args.out is not None:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["machine"] = machine()
        data.setdefault("results", {})[args.label] = result
        args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
