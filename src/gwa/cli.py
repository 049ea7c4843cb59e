"""Command-line front end: parse inputs, run formula/oracle computations,
emit tables and machine-readable reports.

Commands map one-to-one onto the result families: `hh` and `coh` for the
untwisted dimension tables, `twisted` for diagonal twists, `invariants` for
the invariant-subalgebra construction, `group` for the finite-group count,
`verify` to cross-validate formula against oracle, and `selftest` for a
seeded property battery.  `hh`, `coh`, `twisted` and `verify` are one table
command over different variant lists, and only they take the truncation
schedule flags.  Exit codes: 0 success, 2 invalid input,
3 hypothesis violation, 4 stabilization failure, 5 formula/oracle
disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .algebra import GWASpec, Torus
from .complexes import (
    COHOMOLOGY,
    HOMOLOGY,
    ComplexKind,
    bezout_d2_test,
    center_dim,
    euler_homotopy_check,
    oracle_dims,
)
from .errors import (
    GWAError,
    HypothesisError,
    InputError,
    InternalConsistencyError,
    StabilizationError,
)
from .formulas import coh_dims, duality_flag, hh_dims, twisted_dims
from .linalg import Schedule
from .poly import Poly, ShiftSigma, degree_invariants, format_poly, parse_poly
from .scalars import parse_rational, zeta

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_STABILIZATION = 4
EXIT_DISAGREEMENT = 5


@dataclass
class RunReport:
    """Everything one invocation computed, JSON-serializable and stable."""

    schema_version: int
    command: str
    input: dict
    n: int | None = None
    d: int | None = None
    results: list = dataclass_field(default_factory=list)
    agreement: bool | None = None
    duality: bool | None = None
    stabilization: dict = dataclass_field(default_factory=dict)
    extra: dict = dataclass_field(default_factory=dict)
    elapsed_seconds: float | None = None

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))

    def to_csv(self) -> str:
        lines = ["command,kind,source,degree,dim"]
        for res in self.results:
            for degree, dim in enumerate(res["dims"]):
                lines.append(
                    f"{self.command},{res['kind']},{res['source']},{degree},{dim}"
                )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        lines = []
        echo = ", ".join(f"{k}={v}" for k, v in self.input.items())
        lines.append(f"input: {echo}")
        if self.n is not None:
            lines.append(f"n={self.n} d={self.d}")
        for res in self.results:
            dims = " ".join(str(v) for v in res["dims"])
            lines.append(f"{res['kind']:<22} {res['source']:<8} [{dims}]")
        if self.agreement is not None:
            lines.append(f"agreement: {self.agreement}")
        if self.duality is not None:
            lines.append(f"duality: {self.duality}")
        if self.stabilization:
            lines.append(f"stabilized at D={self.stabilization.get('stabilized_at')}")
        for key, value in self.extra.items():
            lines.append(f"{key}: {value}")
        if self.elapsed_seconds is not None:
            lines.append(f"time: {self.elapsed_seconds:.2f}s")
        return "\n".join(lines) + "\n"


def _schedule_for(n: int, args) -> Schedule:
    default = Schedule.default(n, args.d_max)
    d_max = default.d_max
    start = default.start if args.d_start is None else args.d_start
    if start < 0 or d_max < 0:
        raise InputError(f"truncation bounds must be nonnegative (start {start}, cap {d_max})")
    if start > d_max:
        raise InputError(f"schedule start {start} exceeds the truncation cap {d_max}")
    window = 3 if args.paranoid else 2
    return Schedule(start=start, window=window, d_max=d_max)


def _start_report(args, **echo) -> tuple[RunReport, GWASpec]:
    """Parse the algebra and --p-max, and open the command's report: the
    input echo (`a`, `h0`, then `echo`) and n, d."""
    a = parse_poly(args.a)
    h0 = parse_rational(args.h0)
    if not h0:
        raise HypothesisError("h0 must be nonzero")
    sigma = ShiftSigma(h0)
    if a.is_constant():
        raise HypothesisError("a must be non-constant")
    if args.p_max < 0:
        raise InputError(f"--p-max must be nonnegative, got {args.p_max}")
    report = RunReport(SCHEMA_VERSION, args.command,
                       {"a": format_poly(a), "h0": str(h0), **echo})
    report.n, report.d = degree_invariants(a, sigma)
    return report, GWASpec(a, sigma)


def _twist(args) -> Torus:
    if args.twist_order < 1:
        raise InputError("twist order must be positive")
    w = zeta(args.twist_order, args.twist_power)
    if w.is_rational():
        w = w.rational_value()
    if w == 1:
        raise HypothesisError("the twist must differ from the identity (w != 1)")
    return Torus(w)


def _variants(args) -> list[tuple[str, ComplexKind, Callable]]:
    """(result kind, complex, closed-form table) of each variant a table
    command reports.  Built per job, so each table is the module attribute
    of the moment and a wrapper put on it sees the call."""
    names = ["homology", "cohomology"] if args.kind == "both" else [args.kind]
    if args.command != "twisted":
        tables = {"homology": (HOMOLOGY, hh_dims), "cohomology": (COHOMOLOGY, coh_dims)}
        return [(name, *tables[name]) for name in names]
    twist = _twist(args)
    return [(f"twisted-{name}", ComplexKind(name, twist),
             lambda a, s, p_max, name=name: twisted_dims(a, s, name, p_max))
            for name in names]


#: The input echo keys each table command adds after `a` and `h0`.
TABLE_ECHO = {"verify": ("kind",), "twisted": ("twist_order", "twist_power")}


def cmd_table(args) -> RunReport:
    """`hh`, `coh`, `verify` and `twisted`: per variant, the formula table
    and, unless --formula-only, the oracle's."""
    report, spec = _start_report(
        args, **{key: getattr(args, key) for key in TABLE_ECHO.get(args.command, ())})
    variants = _variants(args)
    schedule = _schedule_for(report.n, args)
    stabs, agree = [], []
    for label, kind, table in variants:
        formula = table(spec.a, spec.sigma, args.p_max).dims
        report.results.append({"kind": label, "source": "formula", "dims": formula})
        if args.formula_only:
            continue
        oracle = oracle_dims(spec, kind, args.p_max, schedule)
        dims = [int(v) for v in oracle]
        report.results.append({"kind": label, "source": "oracle", "dims": dims})
        stabs.extend(oracle)
        agree.append(dims == formula)
    if not args.formula_only:
        report.agreement = all(agree)
        report.stabilization = {
            "stabilized_at": max(s.stabilized_at for s in stabs),
            "history": [[list(pair) for pair in s.history] for s in stabs],
        }
    if args.command != "twisted":
        report.duality = duality_flag(spec.a, spec.sigma)
    return report


def _read_text(path: str, what: str) -> str:
    """The text of the UTF-8 file at `path`; a file that cannot be opened or
    decoded is an input error naming it as `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read the {what} {path!r}: {reason}") from None


def cmd_invariants(args) -> RunReport:
    # `gwa.invariants` is imported by the commands that use it only, so the
    # oracle's commands do not compile it.
    from .invariants import invariant_gwa, verify_invariant_identity

    report, spec = _start_report(args, r=args.r)
    if args.r < 1:
        raise InputError("r must be >= 1")
    fixed = invariant_gwa(spec, args.r)
    identity_ok = verify_invariant_identity(spec, args.r)
    table = hh_dims(fixed.a, spec.sigma, args.p_max)
    report.results.append(
        {"kind": "invariant-homology", "source": "formula", "dims": table.dims}
    )
    report.extra = {
        "a_tilde": format_poly(fixed.a, var="H"),
        "identity_check": identity_ok,
        "hh0_invariant": table.dims[0],
        "expected_hh0": args.r * report.n - 1,
    }
    if not identity_ok:
        raise InternalConsistencyError("invariant identity check failed")
    return report


def cmd_group(args) -> RunReport:
    from .invariants import GroupClassData, group_report

    if args.classes_file:
        text = _read_text(args.classes_file, "classes file")
    else:
        text = (args.classes or "").replace(";", "\n")
    report, spec = _start_report(args, classes=text.strip())
    data = GroupClassData.parse(text)
    result = group_report(spec, data, args.p_max)
    report.results.append(
        {"kind": "group-cohomology", "source": "formula", "dims": result.dims}
    )
    report.extra = {"a1": data.a1, "a2": data.a2}
    if "cyclic_crosscheck" in result.meta:
        report.extra["cyclic_crosscheck"] = result.meta["cyclic_crosscheck"]
    return report


def cmd_selftest(args) -> RunReport:
    """Seeded property battery over a few built-in algebras."""
    import random

    from .invariants import h0_bruteforce, twisted_h0_bruteforce

    rng = random.Random(args.seed)
    report = RunReport(SCHEMA_VERSION, "selftest", {"seed": args.seed})
    specs = [
        GWASpec(Poly.gen(), ShiftSigma(1)),
        GWASpec(Poly([-1, 0, 1]), ShiftSigma(1)),
        GWASpec(Poly([0, 0, 0, 1]), ShiftSigma(Fraction(1, 2))),
    ]
    checks = []
    for spec in specs:
        label = f"a={format_poly(spec.a)}, h0={spec.sigma.h0}"
        checks.append((f"euler homotopy [{label}]",
                       euler_homotopy_check(spec, samples=25, seed=rng.randrange(10**6))))
        checks.append((f"center dim 1 [{label}]", int(center_dim(spec)) == 1))
        checks.append((f"bezout matches gcd [{label}]",
                       bezout_d2_test(spec.a, spec.sigma)
                       == (degree_invariants(spec.a, spec.sigma)[1] == 0)))
        hh = hh_dims(spec.a, spec.sigma, 4)
        oracle = [int(v) for v in oracle_dims(spec, HOMOLOGY, 4)]
        checks.append((f"oracle = formula [{label}]", oracle == hh.dims))
        checks.append((f"h0 bruteforce [{label}]",
                       int(h0_bruteforce(spec)) == spec.n - 1))
        checks.append((f"twisted h0 [{label}]",
                       int(twisted_h0_bruteforce(spec, Fraction(-1))) == spec.n))
    passed = sum(1 for _, ok in checks if ok)
    report.extra = {
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "passed": passed,
        "total": len(checks),
    }
    if passed != len(checks):
        raise InternalConsistencyError(
            f"selftest failures: {[name for name, ok in checks if not ok]}"
        )
    return report


COMMANDS = {
    "hh": cmd_table,
    "coh": cmd_table,
    "twisted": cmd_table,
    "invariants": cmd_invariants,
    "group": cmd_group,
    "verify": cmd_table,
    "selftest": cmd_selftest,
}


def _add_input(parser) -> None:
    parser.add_argument("--a", required=True, help='defining polynomial, e.g. "h^2-1" or "[ -1, 0, 1 ]"')
    parser.add_argument("--h0", default="1", help="shift step, nonzero rational (default 1)")
    parser.add_argument("--p-max", type=int, default=5, help="largest degree reported")


def _add_schedule(parser) -> None:
    parser.add_argument("--d-start", type=int, default=None, help="truncation schedule start")
    parser.add_argument("--d-max", type=int, default=None, help="truncation cap (default 240)")
    parser.add_argument("--paranoid", action="store_true",
                        help="require three equal consecutive values to stabilize")


def _add_output(parser) -> None:
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="emit a JSON report")
    output.add_argument("--csv", action="store_true", help="emit CSV rows")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwa",
        description="Hochschild (co)homology dimensions of generalized Weyl "
                    "algebras over k[h], by closed formulas and an independent "
                    "resolution-based oracle.",
    )
    parser.add_argument("--sweep", metavar="FILE",
                        help="run one job per line of FILE concurrently")
    sub = parser.add_subparsers(dest="command")

    def command(name, help_text, *flag_groups):
        p = sub.add_parser(name, help=help_text)
        for add in flag_groups:
            add(p)
        return p

    # The table commands share one namespace: `hh` and `coh` fix `kind`,
    # and `verify` always runs the oracle.
    table = (_add_input, _add_schedule, _add_output)
    for name, variant in (("hh", "homology"), ("coh", "cohomology")):
        p = command(name, f"{variant} dimensions", *table)
        p.add_argument("--formula-only", action="store_true")
        p.set_defaults(kind=variant)

    p = command("twisted", "dimensions with twisted coefficients", *table)
    p.add_argument("--twist-order", type=int, required=True,
                   help="order m of the root of unity")
    p.add_argument("--twist-power", type=int, default=1, help="power of zeta_m (default 1)")
    p.add_argument("--kind", choices=["homology", "cohomology", "both"], default="both")
    p.add_argument("--formula-only", action="store_true")

    p = command("invariants", "invariant subalgebra under a cyclic action",
                _add_input, _add_output)
    p.add_argument("--r", type=int, required=True, help="order of the cyclic group")

    p = command("group", "invariant cohomology from conjugacy-class data",
                _add_input, _add_output)
    classes = p.add_mutually_exclusive_group()
    classes.add_argument("--classes", help='semicolon-separated lines "order=<m> omega=<yes|no>"')
    classes.add_argument("--classes-file", help="file with one class per line")

    p = command("verify", "formula vs oracle cross-validation", *table)
    p.add_argument("--kind", choices=["homology", "cohomology", "both"], default="both")
    p.set_defaults(formula_only=False)

    p = command("selftest", "seeded property battery", _add_output)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _emit(report: RunReport, args) -> None:
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
    elif args.csv:
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_table())


def run_job(argv: list[str]) -> dict:
    """Run one job and return its JSON report; package errors propagate."""
    parser = build_parser()
    args = parser.parse_args(argv)
    report = COMMANDS[args.command](args)
    return json.loads(report.to_json())


#: Exit code and stderr label of each error class; main and --sweep share them.
ERROR_CLASSES = (
    (InputError, EXIT_INVALID_INPUT, "error"),
    (HypothesisError, EXIT_HYPOTHESIS, "hypothesis violation"),
    (StabilizationError, EXIT_STABILIZATION, "stabilization failure"),
    (InternalConsistencyError, EXIT_DISAGREEMENT, "internal consistency failure"),
)


def _exit_class(exc: GWAError) -> tuple[int, str]:
    return next(((code, label) for cls, code, label in ERROR_CLASSES if isinstance(exc, cls)),
                (EXIT_DISAGREEMENT, "error"))


def _refuse_sweep_with_command(args) -> None:
    """`--sweep` runs the jobs of its file, so a subcommand beside it is an
    input error, on the command line and on a sweep line alike."""
    if args.sweep and args.command:
        raise InputError(f"--sweep takes its jobs from the file only, "
                         f"not the subcommand {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (args.sweep or args.command):
        parser.print_help()
        return EXIT_INVALID_INPUT
    started = time.perf_counter()
    try:
        if args.sweep:
            _refuse_sweep_with_command(args)
            return _run_sweep(args.sweep)
        report = COMMANDS[args.command](args)
    except GWAError as exc:
        code, label = _exit_class(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    report.elapsed_seconds = time.perf_counter() - started
    _emit(report, args)
    if report.agreement is False:
        print("formula/oracle disagreement", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def sweep_job(line: str) -> dict:
    """Run one line of a sweep file and return its record; never raises.

    The record holds the job's argv (`job`), its `report` or its `error`,
    its `exit_code` (the code `gwa` would exit with for that line alone) and
    its `elapsed_seconds`.  A line that cannot be split or parsed is an
    input error.
    """
    started = time.perf_counter()
    record: dict = {"job": line}
    try:
        try:
            argv = record["job"] = shlex.split(line)
        except ValueError as exc:
            raise InputError(f"cannot split the line: {exc}") from None
        captured = io.StringIO()
        with contextlib.redirect_stderr(captured), contextlib.redirect_stdout(captured):
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                lines = captured.getvalue().strip().splitlines()
                raise InputError(lines[-1] if exc.code and lines
                                 else "the line runs no job") from None
        _refuse_sweep_with_command(args)
        if not args.command:
            raise InputError("the line names no command")
        report = COMMANDS[args.command](args)
    except GWAError as exc:
        record["error"] = str(exc)
        record["exit_code"] = _exit_class(exc)[0]
    except Exception as exc:  # a bug in one job must not lose the others
        traceback.print_exc()
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["exit_code"] = EXIT_DISAGREEMENT
    else:
        report.elapsed_seconds = time.perf_counter() - started
        record["report"] = json.loads(report.to_json())
        record["exit_code"] = EXIT_DISAGREEMENT if report.agreement is False else EXIT_OK
    record["elapsed_seconds"] = time.perf_counter() - started
    return record


def _run_sweep(path: str) -> int:
    """Run the jobs of a sweep file concurrently, print one JSON record per
    job in file order, and return the largest exit code among them."""
    # Imported here, its only use: the import alone costs every other `gwa`
    # process about 0.8 MiB of resident memory.
    import concurrent.futures

    lines = [line for line in map(str.strip, _read_text(path, "sweep file").split("\n"))
             if line and not line.startswith("#")]
    status = EXIT_OK
    with concurrent.futures.ProcessPoolExecutor() as pool:
        for record in pool.map(sweep_job, lines):
            print(json.dumps(record), flush=True)
            status = max(status, record["exit_code"])
    return status


if __name__ == "__main__":
    sys.exit(main())
