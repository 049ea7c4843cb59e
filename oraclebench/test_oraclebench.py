"""Tests of the benchmark itself: span arithmetic, the job generator, the
report gate, the bypass property of the workloads and BENCHMARK.json.

    python3 -m pytest oraclebench -q
"""

from __future__ import annotations

import json
import shlex
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span, self_times  # noqa: E402


def test_self_time_of_nested_call_tree():
    tree = [
        Span("root", 0, None, 0.0, 10.0),
        Span("a", 0, 0, 1.0, 4.0),
        Span("leaf", 0, 1, 2.0, 3.0),
        Span("b", 0, 0, 5.0, 9.0),
        Span("leaf", 0, 3, 6.0, 8.5),
    ]
    got = self_times(tree)
    assert got == {"root": 3.0, "a": 2.0, "leaf": 3.5, "b": 1.5}
    assert sum(got.values()) == 10.0


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [
        Span("parent", 0, None, 0.0, 10.0),
        Span("x", 0, 0, -1.0, 2.0),
        Span("y", 0, 0, 1.0, 3.0),
    ]
    assert self_times(tree)["parent"] == 7.0


def test_recorder_links_parents_and_jobs():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    rec.job = 3
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    rec.open("next")
    assert [(s.name, s.parent, s.job) for s in rec.spans] == [
        ("outer", None, 3), ("inner", 0, 3), ("next", None, 3)]
    assert self_times(rec.spans[:2]) == {"outer": 2.0, "inner": 1.0}


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert jobs.generate(workload, 7) == jobs.generate(workload, 7)
    assert jobs.generate(workload, 7) != jobs.generate(workload, 8)


def test_generated_jobs_match_their_shapes_and_replay():
    from gwa.cli import build_parser

    for workload, (p_max, shapes) in jobs.WORKLOADS.items():
        generated = jobs.generate(workload, 1)
        assert [(j.mults, j.h0) for j in generated] == \
            [(m, h0) for m, h0, _ in shapes for _ in range(jobs.DRAWS)]
        for job in generated:
            args = build_parser().parse_args(shlex.split(job.command_line())[1:])
            assert args.a == job.argv[1].removeprefix("--a=")
            assert args.p_max == p_max
            assert job.coeffs[-1] in jobs.SCALES


def test_shape_check_rejects_a_polynomial_of_another_shape():
    # (h - 1)(h - 2) has two simple roots, not one double root.
    wrong = jobs.Job((2,), "1", (2, -3, 1), ("verify", "--a=h^2 - 3*h + 2"))
    with pytest.raises(ValueError, match=r"\(n, d\)"):
        jobs.check(wrong)
    garbled = jobs.Job((1, 1), "1", (2, -3, 1), ("verify", "--a=h^2 - 3*h + 5"))
    with pytest.raises(ValueError, match="does not parse"):
        jobs.check(garbled)


def test_gate_requires_agreement_and_equal_rows():
    rows = [
        {"kind": "homology", "source": "formula", "dims": [1, 0]},
        {"kind": "homology", "source": "oracle", "dims": [1, 0]},
    ]
    assert run.gate({"agreement": True, "results": rows}) is None
    assert "agreement" in run.gate({"agreement": None, "results": rows})
    bad = rows[:1] + [{"kind": "homology", "source": "oracle", "dims": [1, 1]}]
    assert "homology" in run.gate({"agreement": True, "results": bad})
    assert "homology" in run.gate({"agreement": True, "results": rows[:1]})


def _shrunk(workload: str, count: int) -> list:
    """The workload's first jobs, shrunk to p_max 0 so that they run fast."""
    return [jobs.Job(j.mults, j.h0, j.coeffs, j.argv[:-1] + ("0",))
            for j in jobs.generate(workload, 1)[:count]]


def test_a_pass_runs_every_job_once():
    small = _shrunk("rational", 2)
    loop = run.Loop(lambda: small)
    loop.run_pass()
    loop.run_pass()
    assert loop.attempted == 4
    assert [len(t) for t in loop.job_times.values()] == [2, 2]
    assert len(loop.setup_times) == 2 * run.SETUPS_PER_PASS
    assert loop.failures == []


def test_scaled_times_are_the_elapsed_time_in_kernel_units():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(3.0, [0.5 * ref, 1.5 * ref]) == 3.0
    assert calibrate.scaled(3.0, [2 * ref]) == 1.5


def test_gauge_samples_inside_a_step_and_takes_its_runs_out():
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.Gauge() as gauge:
        first = len(gauge.samples)
        t0 = time.perf_counter()
        _, got = gauge.timed(lambda: time.sleep(0.2))
        elapsed = time.perf_counter() - t0
    inside = gauge.samples[first:]
    assert len(inside) >= 4
    want = calibrate.scaled(elapsed - sum(inside), gauge.samples[first - 1:])
    assert got == pytest.approx(want, rel=0.05)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


class _FixedGauge:
    def timed(self, step):
        return step(), 0.5


def test_a_gauged_pass_keeps_the_gauge_times_and_stops_at_its_deadline():
    small = _shrunk("rational", 2)
    loop = run.Loop(lambda: small)
    loop.gauge = _FixedGauge()
    assert loop.run_pass() == 1.0
    assert loop.setup_times == [0.5] * run.SETUPS_PER_PASS
    assert list(loop.job_times.values()) == [[0.5], [0.5]]
    loop.run_pass(deadline=0.0)
    assert loop.attempted == 2


def _traced_pass(workload: str) -> dict:
    """Per-layer metrics of the workload's first job, shrunk to p_max 0."""
    small = _shrunk(workload, 1)
    loop = run.Loop(lambda: small)
    tracer = spans.Tracer()
    wall = loop.run_pass(tracer)
    assert tracer.missing == []
    assert loop.failures == []
    return spans.pass_metrics(tracer.recorder, wall)


def test_bypass_rational():
    m = _traced_pass("rational")
    assert m["rankcore.echelon_quad.calls"] == 0
    assert m["rankcore.echelon_int.calls"] > 0
    assert m["rankcore.echelon_int.max_pivot_bits"] > 0
    assert 0.95 <= m["trace.coverage"] <= 1.0


def test_bypass_quadratic():
    m = _traced_pass("quadratic")
    assert m["rankcore.echelon_int.calls"] == 0
    assert m["rankcore.echelon_quad.calls"] > 0


def test_bypass_quartic():
    m = _traced_pass("quartic")
    assert m["rankcore.echelon_int.calls"] == 0
    assert m["rankcore.echelon_quad.calls"] == 0
    assert m["linalg.rank_rows.calls"] > 0


def test_tracer_restores_every_patched_name():
    import gwa
    import gwa.complexes
    import gwa.linalg

    before = (gwa.complexes.homology_dim_at, gwa.linalg.homology_dim_at,
              gwa.homology_dim_at, gwa.linalg._kernels.echelon_int)
    tracer = spans.Tracer()
    tracer.install()
    assert gwa.complexes.homology_dim_at is not before[0]
    assert gwa.linalg.homology_dim_at is gwa.complexes.homology_dim_at
    tracer.uninstall()
    assert (gwa.complexes.homology_dim_at, gwa.linalg.homology_dim_at,
            gwa.homology_dim_at, gwa.linalg._kernels.echelon_int) == before


def test_vanished_function_is_reported_missing_not_zero():
    tracer = spans.Tracer([
        spans.Target("linalg.rank_rows", "gwa.linalg", "no_such_function"),
        spans.Target("rankcore.echelon_int", "gwa.linalg._no_such_module", "echelon_int"),
        spans.Target("complexes.oracle_dims", "gwa.complexes", "oracle_dims"),
    ])
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["gwa.linalg.no_such_function",
                              "gwa.linalg._no_such_module.echelon_int"]
    gone = spans.missing_layers(tracer)
    assert gone == {"linalg.rank_rows", "rankcore.echelon_int"}
    rec = spans.Recorder()
    values = spans.summarize([spans.pass_metrics(rec, 1.0)], [1.0], [1.0], gone)
    assert values["linalg.rank_rows.calls"] is None
    assert values["rankcore.echelon_int.self_s"] is None
    assert values["complexes.oracle_dims.calls"] == 0


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(spans.METRICS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
