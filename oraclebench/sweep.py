"""Run the benchmark once per seed and report how far each metric spreads.

    python3 oraclebench/sweep.py --workload rational --workload quartic --seeds 1-10 --out FILE

Each run is a separate `run.py` process.  For every metric it prints the
median of the runs, their quartiles (`statistics.quantiles(values, n=4)`)
and the distance between the quartiles as a share of the median, next to
the metric's bound in BENCHMARK.json.  `--out` writes the same summary, with
every run's values and the machine it ran on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, "oraclebench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1]), out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def sweep(workload: str, seeds: list[int], bench: dict, trace: int) -> tuple[dict, str]:
    """Runs and per-metric summary of one workload; also the kernel used."""
    bounds = {m["name"]: m.get("bound") for m in bench["per_layer" if trace else "end_to_end"]}
    runs, kernel = [], ""
    for seed in seeds:
        result, text = run_once(workload, seed, bench["run_seconds"], trace)
        kernel = re.search(r"kernel=(\S+)", text).group(1)
        runs.append({"seed": seed, **result})
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            if v["value"] is not None and (not trace or k.endswith("self_s"))), flush=True)
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        if any(v is None for v in values):
            summary[name] = {"missing": True}
            print(f"{workload} {name}: missing")
            continue
        s = summary[name] = {**spread(values), "bound": bound}
        verdict = "" if bound is None else f"bound {bound}: " + (
            "ok" if s["spread"] < bound / 3 else "within bound" if s["spread"] <= bound else "OVER")
        print(f"{workload} {name}: median {s['median']:.4g} q1 {s['q1']:.4g} "
              f"q3 {s['q3']:.4g} spread {s['spread']:.3f} {verdict}")
    failed = sum(r["failed"] for r in runs)
    print(f"{workload} failed jobs: {failed} of {sum(r['attempted'] for r in runs)}")
    return {"runs": runs, "summary": summary}, kernel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to run; repeat for several")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results, kernel = {}, ""
    for workload in args.workload:
        results[workload], kernel = sweep(workload, _seeds(args.seeds), bench, args.trace)
    if args.out:
        args.out.write_text(json.dumps({
            "trace": args.trace,
            "run_seconds": bench["run_seconds"],
            "machine": {"kernel_implementation": kernel, "python": platform.python_version(),
                        "nproc": os.cpu_count()},
            "workloads": results,
        }, indent=1) + "\n")
    failed = sum(r["failed"] for res in results.values() for r in res["runs"])
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
