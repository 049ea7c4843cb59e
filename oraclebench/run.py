"""The oracle benchmark: seeded `gwa` jobs in a closed loop.

    python3 oraclebench/run.py --workload rational --seed 1 --seconds 35 --trace 0

One process runs one job at a time through `gwa.cli.run_job(argv)`, the
next job starting when the previous one returns, in passes over the
workload's job list: one whole pass, then more until `--seconds` have
passed, the last one cut off there.  Each pass begins with set-ups: a fresh
import of gwa and the generation and check of the job list.  Every report
is checked: agreement must be true and every oracle row must equal its
formula row; an error of the package or a disagreement counts as a failed
job and the run goes on.

With `--trace 0` it prints the end-to-end metrics.  Their times are
reference seconds: a gauge of `calibrate.py` times a fixed kernel every few
milliseconds all through the run, and each job and set-up time is scaled by
the kernel's speed while it ran, which takes out the swings in the speed of
a shared host.  With `--trace 1` it alternates untraced and traced passes
(at least one of each) and prints the per-layer metrics of `spans.py`, the
tracing overhead among them; the spans are written to `.bench_build/` in
the checkout.  The last line of standard output is one JSON object with
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable

import calibrate
import jobs as joblist
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: (metric, unit); directions and bounds are in BENCHMARK.json.
END_TO_END = (
    ("pass_s", "s"),
    ("job_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

#: Set-ups at the start of every pass; the pass runs on the last.
SETUPS_PER_PASS = 3


def set_up(make_jobs: Callable[[], list]):
    """Import gwa afresh, then generate and check the job list."""
    for name in [m for m in sys.modules if m == "gwa" or m.startswith("gwa.")]:
        del sys.modules[name]
    cli = importlib.import_module("gwa.cli")
    return cli, make_jobs()


def gate(report: dict) -> str | None:
    """Why a job's report is wrong, or None when it passes."""
    if report.get("agreement") is not True:
        return f"agreement is {report.get('agreement')!r}"
    rows: dict[str, dict] = {}
    for res in report["results"]:
        rows.setdefault(res["kind"], {})[res["source"]] = res["dims"]
    for kind, by_source in rows.items():
        if "oracle" not in by_source or by_source.get("formula") != by_source["oracle"]:
            return f"{kind}: formula {by_source.get('formula')} != oracle {by_source.get('oracle')}"
    return None


class Loop:
    """Runs passes over the job list and keeps what they measured.

    Every pass starts with `SETUPS_PER_PASS` set-ups, each a fresh import,
    and runs its jobs on the last one, as a user's `gwa` process does; so
    set-up time is sampled throughout the run.  With a `gauge` set, every
    job and set-up time is kept in its reference seconds.
    """

    def __init__(self, make_jobs: Callable[[], list]):
        self.make_jobs = make_jobs
        self.gauge: calibrate.Gauge | None = None
        self.setup_times: list[float] = []
        self.job_times: dict[int, list[float]] = {}  # job index -> seconds per pass
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0

    def _timed(self, step: Callable):
        """Run `step`; return its result and its time, scaled by the gauge
        if there is one."""
        if self.gauge is not None:
            return self.gauge.timed(step)
        t0 = time.perf_counter()
        result = step()
        return result, time.perf_counter() - t0

    def run_pass(self, tracer: spans.Tracer | None = None,
                 deadline: float = float("inf")) -> float:
        """Run one pass, starting no job after `deadline`; return the sum of
        its job times."""
        for _ in range(SETUPS_PER_PASS):
            (cli, job_list), elapsed = self._timed(lambda: set_up(self.make_jobs))
            self.setup_times.append(elapsed)
        errors = importlib.import_module("gwa.errors").GWAError

        def attempt(job) -> str | None:
            try:
                return gate(cli.run_job(list(job.argv)))
            except errors as exc:
                return f"{type(exc).__name__}: {exc}"

        if tracer is not None:
            tracer.recorder = spans.Recorder()
            tracer.install()
        try:
            total = 0.0
            for i, job in enumerate(job_list):
                if time.perf_counter() > deadline:
                    break
                if tracer is not None:
                    tracer.recorder.job = i
                problem, elapsed = self._timed(lambda: attempt(job))
                self.job_times.setdefault(i, []).append(elapsed)
                total += elapsed
                self.attempted += 1
                if problem:
                    self.failures.append((job.command_line(), problem))
            return total
        finally:
            if tracer is not None:
                tracer.uninstall()


def measure(loop: Loop, seconds: float) -> None:
    """Run one whole pass, then more until `seconds` have passed; the last
    one stops at the first job that would start after that."""
    deadline = time.perf_counter() + seconds
    loop.run_pass()
    while time.perf_counter() < deadline:
        loop.run_pass(deadline=deadline)


def measure_traced(loop: Loop, seconds: float):
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    records: list[spans.Recorder] = []
    tracer = spans.Tracer()
    started = time.perf_counter()
    while True:
        if len(untraced) <= len(traced):
            untraced.append(loop.run_pass())
        else:
            wall = loop.run_pass(tracer)
            traced.append(wall)
            per_pass.append(spans.pass_metrics(tracer.recorder, wall))
            records.append(tracer.recorder)
        longest = max(statistics.median(untraced), statistics.median(traced or untraced))
        if traced and time.perf_counter() - started + longest > seconds:
            return tracer, untraced, traced, per_pass, records


def write_spans(path: Path, records: list[spans.Recorder]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for pass_no, rec in enumerate(records):
            for span in rec.spans:
                fh.write(json.dumps({"pass": pass_no, **asdict(span)}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(joblist.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gwa" / "__init__.py").is_file():
        print(f"error: no gwa package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    make_jobs = functools.partial(joblist.generate, args.workload, args.seed)
    cli, job_list = set_up(make_jobs)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gwa from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    kernel = getattr(importlib.import_module("gwa.linalg"), "KERNEL_IMPLEMENTATION", "unknown")
    print(f"workload={args.workload} seed={args.seed} jobs={len(job_list)} "
          f"kernel={kernel} python={platform.python_version()} nproc={os.cpu_count()}")

    loop = Loop(make_jobs)
    if args.trace:
        tracer, untraced, traced, per_pass, records = measure_traced(loop, args.seconds)
        gone = spans.missing_layers(tracer)
        values = spans.summarize(per_pass, untraced, traced, gone)
        units = {name: unit for name, unit, _ in spans.METRICS}
        write_spans(ROOT / ".bench_build" / f"spans-{args.workload}-{args.seed}.jsonl", records)
        print("untraced passes: " + " ".join(f"{w:.3f}" for w in untraced) + " s")
        print("traced passes: " + " ".join(f"{w:.3f}" for w in traced) + " s")
        for target in tracer.missing:
            print(f"missing: {target}")
        wall = statistics.median(traced)
        for name, value in values.items():
            share = f"  {100 * value / wall:5.1f}% of traced pass" \
                if name.endswith(".self_s") and value is not None else ""
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{name} {shown} {units[name]}{share}")
    else:
        with calibrate.Gauge() as loop.gauge:
            measure(loop, args.seconds)
        job_medians = [statistics.median(t) for t in loop.job_times.values()]
        samples = [len(t) for t in loop.job_times.values()]
        values = {
            # Each job at its median over its runs, so one slow run of a job
            # moves the sum no more than it moves that job.
            "pass_s": sum(job_medians),
            "job_p50_s": statistics.median(job_medians),
            "setup_s": statistics.median(loop.setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        print(f"times are reference seconds: scaled by {len(loop.gauge.samples)} runs of the "
              f"calibration kernel, at {calibrate.REFERENCE_S} s per kernel run")
        print(f"pass_s {values['pass_s']:.4f} s (sum over {len(job_medians)} jobs of each "
              f"job's median over its {min(samples)}-{max(samples)} runs)")
        print(f"job_p50_s {values['job_p50_s']:.4f} s (median over {len(job_medians)} jobs "
              f"of each job's median; {loop.attempted} samples)")
        print(f"setup_s {values['setup_s']:.4f} s (median of {len(loop.setup_times)} set-ups)")
        print(f"peak_rss_mib {values['peak_rss_mib']:.1f} MiB")
    failed = len(loop.failures)
    print(f"fail_frac {failed / loop.attempted:.4f} ({failed} of {loop.attempted} jobs)")
    for line, problem in loop.failures:
        print(f"FAILED {line}: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
