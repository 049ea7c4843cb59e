"""Seeded job lists for the oracle benchmark.

A job is one `gwa` command line.  Each workload is a fixed table of shapes
(root multiplicities, shift step h0, command).  The seed draws, for every
shape, `DRAWS` polynomials a = c * prod (h - r_i)^{m_i} with distinct
integer roots r_i in [-4, 4] and c in {1, 2, 3}; the program sees only the
generated command lines.

    python3 oraclebench/jobs.py --workload rational --seed 1

prints a workload's job list as `gwa ...` lines, so any job can be replayed
by hand with the `gwa` command.
"""

from __future__ import annotations

import argparse
import random
import shlex
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROOTS = range(-4, 5)
SCALES = (1, 2, 3)

VERIFY = ("verify", "--kind", "both")


def _twisted(order: int) -> tuple:
    return ("twisted", "--twist-order", str(order), "--kind", "both")


#: Polynomials drawn per shape.  What a job costs depends on its drawn
#: coefficients, so a single draw per shape lets the seed alone move a
#: workload's times by up to 10%; three draws average that out.
DRAWS = 3

# workload -> (p_max, [(root multiplicities, h0, command)]).  The lists are
# sized so that one pass, DRAWS jobs per shape, takes about 15-20 s on a
# 2-core machine, and a run of 35 s holds at least one whole pass.
WORKLOADS = {
    # Everything over Q: assembly, row scaling, the d o d check and
    # echelon_int.  Tiny n = 1 jobs (interpreter overhead) mix with n = 5
    # jobs (big integers).
    "rational": (1, [
        ((1,), "1", VERIFY),
        ((2,), "1", VERIFY),
        ((1, 1), "2", VERIFY),
        ((3,), "1", VERIFY),
        ((2, 2), "1/2", VERIFY),
        ((3, 2), "1", VERIFY),
        ((1,), "1", _twisted(2)),
        ((1, 1, 1), "1/2", _twisted(2)),
        ((3, 2), "1", _twisted(2)),
    ]),
    # Q(zeta3) and Q(zeta4): echelon_quad, integer-pair scaling and
    # _quad_mul/_quad_divexact; echelon_int never runs.
    "quadratic": (2, [
        ((1,), "1", _twisted(3)),
        ((2,), "1", _twisted(4)),
    ]),
    # Q(zeta5) has degree 4, so every rank goes through the generic field
    # sweep in Cyclotomic arithmetic, which no other workload reaches.
    "quartic": (0, [
        ((1,), "1", _twisted(5)),
        ((2,), "1", _twisted(5)),
    ]),
}


@dataclass(frozen=True)
class Job:
    """One generated `gwa` invocation and the shape it was drawn for."""

    mults: tuple
    h0: str
    coeffs: tuple  # integer coefficients of a, ascending degree
    argv: tuple

    @property
    def n(self) -> int:
        return sum(self.mults)

    @property
    def d(self) -> int:
        return sum(m - 1 for m in self.mults)

    def command_line(self) -> str:
        return shlex.join(("gwa",) + self.argv)


def _expand(scale: int, roots, mults) -> list[int]:
    coeffs = [scale]
    for r, m in zip(roots, mults):
        for _ in range(m):
            # Multiply by (h - r), ascending coefficients.
            coeffs = [(coeffs[i - 1] if i else 0) - r * (coeffs[i] if i < len(coeffs) else 0)
                      for i in range(len(coeffs) + 1)]
    return coeffs


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of `workload` for `seed`, each job shape-checked."""
    # Imported here, not at module level: the benchmark times a fresh import
    # of the package as part of set-up.
    from gwa.poly import Poly, format_poly

    p_max, shapes = WORKLOADS[workload]
    rng = random.Random(seed)
    jobs = []
    for mults, h0, command in (shape for shape in shapes for _ in range(DRAWS)):
        roots = rng.sample(ROOTS, len(mults))
        coeffs = _expand(rng.choice(SCALES), roots, mults)
        a = format_poly(Poly(coeffs))
        argv = (command[0], f"--a={a}", f"--h0={h0}", *command[1:], "--p-max", str(p_max))
        job = Job(mults, h0, tuple(coeffs), argv)
        check(job)
        jobs.append(job)
    return jobs


def check(job: Job) -> None:
    """Raise ValueError unless the job's `a` parses back to its coefficients
    and has the (n, d) of its shape."""
    from gwa.poly import ShiftSigma, degree_invariants, parse_poly

    text = job.argv[1].removeprefix("--a=")
    a = parse_poly(text)
    if list(a.coeffs) != [Fraction(c) for c in job.coeffs]:
        raise ValueError(f"{text!r} does not parse to coefficients {job.coeffs}")
    got = degree_invariants(a, ShiftSigma(Fraction(job.h0)))
    if got != (job.n, job.d):
        raise ValueError(
            f"a = {text} has (n, d) = {got}, shape {job.mults} needs {(job.n, job.d)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    for job in generate(args.workload, args.seed):
        print(job.command_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
