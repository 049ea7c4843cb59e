import json
import os
import subprocess
import sys

import pytest

from gwa.cli import (
    EXIT_DISAGREEMENT,
    EXIT_HYPOTHESIS,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_STABILIZATION,
    RunReport,
    main,
    run_job,
    sweep_job,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hh_weyl(capsys):
    code, out, _ = run_main(capsys, ["hh", "--a", "h", "--h0", "1"])
    assert code == EXIT_OK
    assert "n=1 d=0" in out
    assert "[0 0 1 0 0 0]" in out
    assert "agreement: True" in out


def test_verify_cubic_cohomology(capsys):
    code, out, _ = run_main(capsys, ["verify", "--a", "h^3", "--h0", "1",
                                     "--kind", "cohomology"])
    assert code == EXIT_OK
    assert "[1 0 2 2 2 2]" in out
    assert "agreement: True" in out


def test_invariants_weyl(capsys):
    code, out, _ = run_main(capsys, ["invariants", "--a", "h", "--h0", "1", "--r", "2"])
    assert code == EXIT_OK
    assert "4*H^2 + 2*H" in out
    assert "identity_check: True" in out
    assert "hh0_invariant: 1" in out


def test_twisted_command(capsys):
    code, out, _ = run_main(capsys, ["twisted", "--a", "h^2-1", "--h0", "1",
                                     "--twist-order", "2", "--p-max", "3"])
    assert code == EXIT_OK
    assert "twisted-homology" in out and "twisted-cohomology" in out
    assert "agreement: True" in out


def test_group_command(capsys):
    code, out, _ = run_main(capsys, ["group", "--a", "h^2-2", "--h0", "1",
                                     "--classes", "order=2 omega=no"])
    assert code == EXIT_OK
    assert "group-cohomology" in out


def test_exit_codes(capsys):
    code, _, err = run_main(capsys, ["hh", "--a", "oops!!", "--h0", "1"])
    assert code == EXIT_INVALID_INPUT and "error" in err
    # A trailing bare sign is a term with nothing in it, not -1.
    code, _, err = run_main(capsys, ["hh", "--a", "h^2+1-", "--h0", "1"])
    assert code == EXIT_INVALID_INPUT and "cannot parse polynomial term '-'" in err
    # Digits a space separates are not one number: this is not h^23.
    code, _, err = run_main(capsys, ["hh", "--a", "h^2 3", "--h0", "1"])
    assert code == EXIT_INVALID_INPUT and "separates two digits" in err
    code, _, err = run_main(capsys, ["hh", "--a", "5", "--h0", "1"])
    assert code == EXIT_HYPOTHESIS
    code, _, err = run_main(capsys, ["hh", "--a", "h", "--h0", "0"])
    assert code == EXIT_HYPOTHESIS
    code, _, err = run_main(capsys, ["group", "--a", "h^2", "--h0", "1",
                                     "--classes", "order=2 omega=no"])
    assert code == EXIT_HYPOTHESIS
    code, _, err = run_main(capsys, ["hh", "--a", "h", "--h0", "1/0"])
    assert code == EXIT_INVALID_INPUT and "error" in err
    code, _, err = run_main(capsys, ["twisted", "--a", "h", "--twist-order", "1000"])
    assert code == EXIT_INVALID_INPUT and "exceeds the configured cap" in err


def test_disagreement_exit_code(capsys, monkeypatch):
    import gwa.cli as cli
    from gwa.linalg import StabilizedDim

    def bogus_oracle(spec, kind, p_max, schedule=None):
        return [StabilizedDim(7, 12, ((12, 7),)) for _ in range(p_max + 1)]

    monkeypatch.setattr(cli, "oracle_dims", bogus_oracle)
    code, out, err = run_main(capsys, ["verify", "--a", "h", "--h0", "1",
                                       "--kind", "homology"])
    assert code == EXIT_DISAGREEMENT
    assert "agreement: False" in out
    assert "disagreement" in err


def test_json_roundtrip(capsys):
    code, out, _ = run_main(capsys, ["hh", "--a", "h^2-1", "--h0", "1", "--json"])
    assert code == EXIT_OK
    report = RunReport.from_json(out)
    assert RunReport.from_json(report.to_json()).__dict__ == report.__dict__
    assert report.schema_version == 1
    assert report.agreement is True


def test_verify_echoes_the_algebra_as_given(capsys):
    """The oracle runs on the integral normal form, h^2 - 1 with step 1
    here; the report's input echo keeps the user's a and h0."""
    code, out, _ = run_main(capsys, ["verify", "--a", "h^2-1/4", "--h0", "1/2", "--json"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["input"]["a"] == "h^2 - 1/4" and report["input"]["h0"] == "1/2"
    assert report["agreement"] is True


def test_csv_output(capsys):
    code, out, _ = run_main(capsys, ["coh", "--a", "h^2", "--h0", "1",
                                     "--csv", "--formula-only"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "command,kind,source,degree,dim"
    assert "coh,cohomology,formula,0,1" in lines
    assert "coh,cohomology,formula,2,1" in lines


def test_reports_deterministic(capsys):
    argv = ["hh", "--a", "h^2-1", "--h0", "1", "--json"]
    _, first, _ = run_main(capsys, argv)
    _, second, _ = run_main(capsys, argv)
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
    assert a == b


def test_run_job_helper():
    payload = run_job(["hh", "--a", "h", "--h0", "1", "--formula-only"])
    assert payload["results"][0]["dims"] == [0, 0, 1, 0, 0, 0]


def test_term_tables_keep_one_algebra():
    """The GWA term tables and the block tables are cached for the last
    algebra only, and a verify job of both variants builds each once."""
    import gwa.complexes as cx

    tables = (cx._dce_terms, cx._df_terms, cx._block_tables)
    run_job(["verify", "--a=h^2-1", "--p-max", "1"])
    run_job(["verify", "--a=h^3-h", "--p-max", "1"])
    assert [table.cache_info().currsize for table in tables] == [1, 1, 1]
    for table in tables:
        table.cache_clear()
    run_job(["verify", "--a=h^3-h", "--kind", "both", "--p-max", "1"])
    for table in tables:
        info = table.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits > 0


def test_dmax_env_override(capsys):
    # The cap is set by --d-max only; there is no environment override.
    code, _, err = run_main(capsys, ["hh", "--a", "h", "--h0", "1", "--d-max", "13"])
    assert code == 4  # start is 12, cap 13: cannot see two agreeing values
    assert "stabilization" in err


def test_sweep(tmp_path, capsys):
    sweep = tmp_path / "jobs.txt"
    sweep.write_text(
        'hh --a h --h0 1 --formula-only\n'
        'coh --a "h^2" --h0 1 --formula-only\n'
    )
    code, out, _ = run_main(capsys, ["--sweep", str(sweep)])
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    assert all("report" in entry for entry in lines)


def test_sweep_skips_indented_comment_lines(tmp_path, capsys):
    sweep = tmp_path / "jobs.txt"
    sweep.write_text(
        '# a comment\n'
        '  # an indented comment\n'
        'hh --a h --h0 1 --formula-only\n'
        '\t# a tab-indented comment\n'
    )
    code, out, _ = run_main(capsys, ["--sweep", str(sweep)])
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["job"] for r in records] == [["hh", "--a", "h", "--h0", "1", "--formula-only"]]
    assert code == EXIT_OK


def test_sweep_keeps_every_job_and_exits_with_the_worst_class(tmp_path, capsys):
    sweep = tmp_path / "jobs.txt"
    sweep.write_text(
        'hh --a h --h0 1 --formula-only\n'
        'hh --bogus\n'
        'hh --a 5 --h0 1\n'
        'hh --a h --h0 1 --d-max 13\n'
        'hh --a "h --h0 1\n'
        'coh --a "h^2" --h0 1 --formula-only\n'
    )
    code, out, _ = run_main(capsys, ["--sweep", str(sweep)])
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["exit_code"] for r in records] == [
        EXIT_OK, EXIT_INVALID_INPUT, EXIT_HYPOTHESIS, EXIT_STABILIZATION,
        EXIT_INVALID_INPUT, EXIT_OK]
    assert code == EXIT_STABILIZATION
    assert ["report" in r for r in records] == [True, False, False, False, False, True]
    assert "error" in records[1] and records[1]["job"] == ["hh", "--bogus"]
    assert all(isinstance(r["elapsed_seconds"], float) for r in records)
    assert records[0]["report"]["elapsed_seconds"] is not None


def test_sweep_job_counts_disagreement_as_class_5(monkeypatch):
    import gwa.cli as cli
    from gwa.linalg import StabilizedDim

    def bogus_oracle(spec, kind, p_max, schedule=None):
        return [StabilizedDim(7, 12, ((12, 7),)) for _ in range(p_max + 1)]

    monkeypatch.setattr(cli, "oracle_dims", bogus_oracle)
    record = sweep_job("verify --a h --h0 1 --kind homology")
    assert record["report"]["agreement"] is False
    assert record["exit_code"] == EXIT_DISAGREEMENT


@pytest.mark.parametrize("flags", [
    ["--d-start", "40", "--d-max", "20"],
    ["--d-max", "0"],
    ["--d-max", "-1"],
    ["--d-start", "-4"],
])
def test_bad_schedule_is_an_input_error(capsys, flags):
    code, _, err = run_main(capsys, ["hh", "--a", "h", "--h0", "1", *flags])
    assert code == EXIT_INVALID_INPUT
    assert "error:" in err and "stabilization" not in err


@pytest.mark.parametrize("argv", [
    ["hh", "--a", "h", "--formula-only"],
    ["coh", "--a", "h", "--formula-only"],
    ["twisted", "--a", "h", "--twist-order", "2", "--formula-only"],
], ids=["hh", "coh", "twisted"])
def test_bad_schedule_is_an_input_error_without_the_oracle(capsys, argv):
    argv = [*argv, "--d-max", "-1"]
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (EXIT_INVALID_INPUT, "")
    assert err == "error: truncation bounds must be nonnegative (start 12, cap -1)\n"
    record = sweep_job(" ".join(argv))
    assert record["exit_code"] == EXIT_INVALID_INPUT
    assert "truncation bounds" in record["error"] and "report" not in record


def test_console_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "gwa.cli", "hh", "--a", "h", "--h0", "1",
         "--formula-only"],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0
    assert "[0 0 1 0 0 0]" in proc.stdout


def test_import_leaves_out_concurrent_futures():
    # Only --sweep needs the process pool; every other run skips its import.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gwa.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_out_the_invariants():
    # The oracle's commands never read `gwa.invariants`; the package still
    # re-exports its names, importing it on the first lookup.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    code = ("import sys, gwa, gwa.cli; print('gwa.invariants' in sys.modules); "
            "from gwa.invariants import group_report; "
            "print(gwa.group_report is group_report)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def _table(out):
    """The echo line, the (kind, source) of each result row, and the
    summary lines present, of a table report."""
    lines = out.splitlines()
    rows = [tuple(line.split()[:2]) for line in lines if line.endswith("]")]
    summary = [label for label in ("agreement:", "duality:", "stabilized at")
               if any(line.startswith(label) for line in lines)]
    return lines[0], rows, summary


ORACLE_SUMMARY = ["agreement:", "duality:", "stabilized at"]


@pytest.mark.parametrize("argv, echo, rows, summary", [
    (["hh", "--a", "h", "--p-max", "2"], "input: a=h, h0=1",
     [("homology", "formula"), ("homology", "oracle")], ORACLE_SUMMARY),
    (["coh", "--a", "h^2", "--h0", "1/2", "--p-max", "2"], "input: a=h^2, h0=1/2",
     [("cohomology", "formula"), ("cohomology", "oracle")], ORACLE_SUMMARY),
    (["verify", "--a", "h", "--kind", "both", "--p-max", "2"], "input: a=h, h0=1, kind=both",
     [("homology", "formula"), ("homology", "oracle"),
      ("cohomology", "formula"), ("cohomology", "oracle")], ORACLE_SUMMARY),
    (["twisted", "--a", "h", "--twist-order", "2", "--kind", "both", "--p-max", "2"],
     "input: a=h, h0=1, twist_order=2, twist_power=1",
     [("twisted-homology", "formula"), ("twisted-homology", "oracle"),
      ("twisted-cohomology", "formula"), ("twisted-cohomology", "oracle")],
     ["agreement:", "stabilized at"]),
    (["twisted", "--a", "h^2-1", "--twist-order", "3", "--twist-power", "2", "--formula-only"],
     "input: a=h^2 - 1, h0=1, twist_order=3, twist_power=2",
     [("twisted-homology", "formula"), ("twisted-cohomology", "formula")], []),
    (["hh", "--a", "h^2", "--formula-only"], "input: a=h^2, h0=1",
     [("homology", "formula")], ["duality:"]),
], ids=["hh", "coh", "verify-both", "twisted-both", "twisted-formula-only", "hh-formula-only"])
def test_table_commands_echo_and_result_order(capsys, argv, echo, rows, summary):
    code, out, _ = run_main(capsys, argv)
    assert code == EXIT_OK
    assert _table(out) == (echo, rows, summary)


def test_table_commands_look_the_formulas_up_at_call_time(monkeypatch):
    """Spies put on the formula tables and the oracle wherever a loaded
    `gwa` module binds them, as the benchmark's tracer does, see every call
    of the four table commands; a table kept from import time would bypass
    them."""
    import gwa.complexes
    import gwa.formulas

    calls = []
    for owner, name in ((gwa.formulas, "hh_dims"), (gwa.formulas, "coh_dims"),
                        (gwa.formulas, "twisted_dims"), (gwa.complexes, "oracle_dims")):
        real = getattr(owner, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "gwa":
                continue
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, spy)
    duality = ["hh_dims", "coh_dims"]
    expected = {
        "hh": ["hh_dims", "oracle_dims", *duality],
        "coh": ["coh_dims", "oracle_dims", *duality],
        "verify --kind both": ["hh_dims", "oracle_dims", "coh_dims", "oracle_dims", *duality],
        "twisted --twist-order 2 --kind both": ["twisted_dims", "oracle_dims"] * 2,
    }
    for command, names in expected.items():
        calls.clear()
        run_job([*command.split(), "--a", "h", "--p-max", "1"])
        assert calls == names, command


NEGATIVE_P_MAX = [
    ["hh", "--a", "h"],
    ["hh", "--a", "h", "--formula-only"],
    ["verify", "--a", "h"],
    ["twisted", "--a", "h", "--twist-order", "2"],
    ["invariants", "--a", "h", "--r", "2"],
    ["group", "--a", "h^2-2", "--classes", "order=2 omega=no"],
]


@pytest.mark.parametrize("argv", NEGATIVE_P_MAX, ids=[
    "hh", "hh-formula-only", "verify", "twisted", "invariants", "group"])
def test_negative_p_max_is_an_input_error(capsys, argv):
    argv = [*argv, "--p-max", "-2"]
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (EXIT_INVALID_INPUT, "")
    assert err == "error: --p-max must be nonnegative, got -2\n"
    record = sweep_job(" ".join(repr(arg) for arg in argv))
    assert record["exit_code"] == EXIT_INVALID_INPUT
    assert "--p-max" in record["error"] and "report" not in record


def test_json_and_csv_together_are_refused(capsys):
    """A report has one format; naming both would drop the CSV silently,
    so argparse refuses the pair, on the command line and on a sweep line."""
    argv = ["hh", "--a", "h", "--formula-only", "--json", "--csv"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.endswith(
        "error: argument --csv: not allowed with argument --json\n")
    record = sweep_job(" ".join(argv))
    assert record["exit_code"] == EXIT_INVALID_INPUT and "report" not in record
    assert record["error"].endswith("not allowed with argument --json")


def _both_class_sources(tmp_path):
    path = tmp_path / "classes.txt"
    path.write_text("")
    return ["group", "--a", "h^2-1", "--classes", "order=2 omega=no",
            "--classes-file", str(path)]


def test_classes_and_classes_file_together_are_refused(capsys, tmp_path):
    """`group` reads its classes from one source; naming both would drop
    one of them silently, so argparse refuses the pair."""
    with pytest.raises(SystemExit) as exc:
        main(_both_class_sources(tmp_path))
    assert exc.value.code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.endswith(
        "error: argument --classes-file: not allowed with argument --classes\n")


def test_sweep_line_with_classes_and_classes_file_is_an_input_error(tmp_path):
    record = sweep_job(" ".join(repr(arg) for arg in _both_class_sources(tmp_path)))
    assert record["exit_code"] == EXIT_INVALID_INPUT and "report" not in record
    assert record["error"].endswith("not allowed with argument --classes")


@pytest.mark.parametrize("classes, problem", [
    ("order=2 omega=no extra", "'extra' has no '='"),
    ("order=2 order=3 omega=no", "'order' given twice"),
], ids=["token-without-equals", "repeated-key"])
def test_malformed_class_line_is_an_input_error(capsys, classes, problem):
    """A class line is read whole: a stray token or a repeated key is
    refused with the line named, not dropped or overwritten."""
    argv = ["group", "--a", "h^2-2", "--classes", classes]
    message = f"bad class descriptor line {classes!r}: {problem}"
    code, out, err = run_main(capsys, argv)
    assert (code, out, err) == (EXIT_INVALID_INPUT, "", f"error: {message}\n")
    record = sweep_job(" ".join(repr(arg) for arg in argv))
    assert record["exit_code"] == EXIT_INVALID_INPUT and "report" not in record
    assert record["error"].endswith(message)


@pytest.mark.parametrize("make", [
    lambda path: None,
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"order=2 omega=\xff\n"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_classes_file_is_an_input_error(capsys, tmp_path, make):
    path = tmp_path / "classes.txt"
    make(path)
    argv = ["group", "--a", "h^2-1", "--classes-file", str(path)]
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (EXIT_INVALID_INPUT, "")
    assert err.startswith(f"error: cannot read the classes file {str(path)!r}: ")
    record = sweep_job(" ".join(argv))
    assert record["exit_code"] == EXIT_INVALID_INPUT and str(path) in record["error"]


@pytest.mark.parametrize("make", [
    lambda path: None,
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"hh --a h --formula-only # \xff\n"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_sweep_file_is_an_input_error(capsys, tmp_path, make):
    path = tmp_path / "jobs.txt"
    make(path)
    code, out, err = run_main(capsys, ["--sweep", str(path)])
    assert (code, out) == (EXIT_INVALID_INPUT, "")
    assert err.startswith(f"error: cannot read the sweep file {str(path)!r}: ")
    assert err.count("\n") == 1


def test_sweep_with_a_subcommand_is_an_input_error(capsys, tmp_path):
    """The jobs of a sweep come from its file; a subcommand beside --sweep
    would be dropped, so it is refused before any job runs."""
    path = tmp_path / "jobs.txt"
    path.write_text("hh --a h --formula-only\n")
    code, out, err = run_main(capsys, ["--sweep", str(path), "verify", "--a", "h^2"])
    assert (code, out) == (EXIT_INVALID_INPUT, "")
    assert err == "error: --sweep takes its jobs from the file only, not the subcommand 'verify'\n"


def test_sweep_line_with_sweep_and_a_subcommand_is_an_input_error():
    """A sweep line is refused as `main` refuses the same argv, with the
    same message, though the file it names does not exist."""
    record = sweep_job("--sweep nowhere.txt hh --a h --formula-only")
    assert record["exit_code"] == EXIT_INVALID_INPUT
    assert "report" not in record
    assert record["error"] == "--sweep takes its jobs from the file only, not the subcommand 'hh'"


def test_group_honours_p_max():
    argv = ["group", "--a", "h^2-3", "--classes", "order=2 omega=no;order=3 omega=yes"]
    assert run_job(argv)["results"][0]["dims"] == [1, 0, 4, 0, 0, 0]
    assert run_job([*argv, "--p-max", "2"])["results"][0]["dims"] == [1, 0, 4]


@pytest.mark.parametrize("argv, rejected", [
    (["invariants", "--a", "h", "--r", "2", "--paranoid"], "--paranoid"),
    (["selftest", "--p-max", "1"], "--p-max 1"),
], ids=["invariants-paranoid", "selftest-p-max"])
def test_flags_a_command_does_not_read_are_rejected(capsys, argv, rejected):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {rejected}\n")
    record = sweep_job(" ".join(argv))
    assert record["exit_code"] == EXIT_INVALID_INPUT
    assert record["error"].endswith(f"unrecognized arguments: {rejected}")
