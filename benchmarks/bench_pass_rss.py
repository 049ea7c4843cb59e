"""Peak memory of one pass over a benchmark workload, in a fresh process.

    python3 benchmarks/bench_pass_rss.py --src src
    python3 benchmarks/bench_pass_rss.py --src src --seed 2
    python3 benchmarks/bench_pass_rss.py --src src --workload quadratic
    python3 benchmarks/bench_pass_rss.py --src src --label change --out BENCH_pass_rss.json

Starts a child Python process that imports `gwa` from `--src` once,
generates the job list of `--workload` (default `rational`) for `--seed`
with `oraclebench/jobs.py` (imported from there, unchanged), runs every job once through
`gwa.cli.run_job` and checks that each report agrees with its formulas.
The child's `ru_maxrss` at the end is the peak resident memory of that one
pass.  Unlike the benchmark's `peak_rss_mib`, which is the peak of a whole
timed run with a fresh import of the package at every set-up, it counts
one import and no timing harness.  It runs 5 children one after another
and reports every value and their median.  With `--out`, the result is
also stored in that JSON file under `--label`, beside a description of the
machine; other labels already in the file are kept.  The options `--src`,
`--label` and `--out` and the output are those of `bench_assembly`
(`bench_assembly.arguments` and `bench_assembly.report`).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path

from bench_assembly import arguments, report

ORACLEBENCH = Path(__file__).resolve().parent.parent / "oraclebench"
WORKLOADS = ("rational", "quadratic", "quartic")
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


def child_rss_mib(src: Path, workload: str, seed: int) -> float:
    """ru_maxrss of one fresh child running one pass, in MiB (Linux reports KiB)."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(ORACLEBENCH), workload, str(seed)],
        check=True, capture_output=True, text=True).stdout
    return int(out.split()[-1]) / 1024


def main() -> int:
    parser = arguments(__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, default="rational")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    src = Path(args.src).resolve()
    if not (src / "gwa" / "__init__.py").is_file():
        print(f"error: no gwa package under {src}", file=sys.stderr)
        return 2
    samples = [child_rss_mib(src, args.workload, args.seed) for _ in range(RUNS)]
    result = {"workload": args.workload, "seed": args.seed,
              "pass_rss_mib": round(statistics.median(samples), 2),
              "samples_mib": [round(v, 2) for v in samples]}
    print(f"{args.workload} seed {args.seed}: one pass peaks at "
          f"{result['pass_rss_mib']:.2f} MiB (median of {len(samples)} fresh processes)",
          file=sys.stderr)
    report(result, args.out, args.label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
