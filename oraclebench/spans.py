"""Outside-in span trace of the gwa layers.

The benchmark wraps public functions of each `gwa` module from its own
files; nothing in `src/` knows about the trace.  A wrapper replaces the
function under every name a loaded `gwa` module binds it to, which is where
callers look it up: `gwa.complexes.homology_dim_at` because complexes
imports it by name, `echelon_int` on whichever kernel module `gwa.linalg`
loaded (so `rank_int` calls are seen too).  A target that no longer exists
is reported as missing, never as zero.

Spans (name, start, end, parent, job) are kept in memory.  A span's self
time is its duration minus the part of it that its child spans cover.  The
counting a wrapper does after its function returns runs inside a
`trace.count` span, so it is not charged to the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

BOOKKEEPING = "trace.count"


@dataclass
class Span:
    name: str
    job: int
    parent: int | None  # index of the enclosing span in Recorder.spans
    start: float
    end: float = 0.0


class Recorder:
    """Spans and per-layer counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, dict] = {}
        self.job = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.job, parent, self.clock()))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def counter(self, layer: str) -> dict:
        return self.counters.setdefault(layer, {})


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[str, float] = {}
    for span, kids in zip(spans, children):
        own = span.end - span.start - _covered(kids, span.start, span.end)
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# Counters, run after the wrapped function returns --------------------------


def _add(c: dict, key: str, value) -> None:
    c[key] = c.get(key, 0) + value


def _count_assemble(c, args, result) -> None:
    cells = nonzero = 0
    for row in result.rows:
        cells += len(row)
        # Any zero entry equals every other zero; counting by one that is
        # already in the row lets list.count match shared zeros by identity.
        zero = next((v for v in row if not v), None)
        nonzero += len(row) - (row.count(zero) if zero is not None else 0)
    _add(c, "cells", cells)
    _add(c, "nonzero", nonzero)


def _count_stabilize(c, args, result) -> None:
    value, at, history = result
    # The schedule stops once the value has repeated `window` times, so the
    # trailing run of equal values is exactly the useful part of the history.
    useful = 0
    for _, v in reversed(history):
        if v != value:
            break
        useful += 1
    _add(c, "steps", len(history))
    _add(c, "useful", useful)
    c["final_d_max"] = max(c.get("final_d_max", 0), at)


def _count_kernel(c, args, result) -> None:
    _add(c, "vectors", len(result))


def _echelon_counter(bits: Callable) -> Callable:
    def count(c, args, result) -> None:
        rows, ncols = args[0], args[1]
        rank, pivots, ech = result
        _add(c, "cells", len(rows) * ncols)
        _add(c, "rows", len(rows))
        _add(c, "rank", rank)
        top = max((bits(row[p]) for row, p in zip(ech, pivots)), default=0)
        c["max_pivot_bits"] = max(c.get("max_pivot_bits", 0), top)

    return count


_count_echelon_int = _echelon_counter(lambda v: abs(v).bit_length())
_count_echelon_quad = _echelon_counter(
    lambda v: max(abs(v[0]).bit_length(), abs(v[1]).bit_length()))


@dataclass(frozen=True)
class Target:
    """A function to wrap: `owner` is the dotted path of the object that
    holds it (a module, or a module attribute such as `gwa.linalg._kernels`)."""

    layer: str
    owner: str
    attr: str
    count: Callable | None = None


TARGETS = (
    Target("cli.run_job", "gwa.cli", "run_job"),
    Target("formulas", "gwa.formulas", "hh_dims"),
    Target("formulas", "gwa.formulas", "coh_dims"),
    Target("formulas", "gwa.formulas", "twisted_dims"),
    Target("complexes.oracle_dims", "gwa.complexes", "oracle_dims"),
    Target("complexes.assemble", "gwa.complexes", "assemble_total_matrix", _count_assemble),
    Target("complexes.stabilize", "gwa.linalg", "stabilize", _count_stabilize),
    Target("linalg.compose_is_zero", "gwa.linalg", "compose_is_zero"),
    Target("linalg.homology_dim_at", "gwa.linalg", "homology_dim_at"),
    Target("linalg.kernel_raw", "gwa.linalg", "kernel_raw", _count_kernel),
    Target("linalg.rank_rows", "gwa.linalg", "rank_rows"),
    Target("rankcore.echelon_int", "gwa.linalg._kernels", "echelon_int", _count_echelon_int),
    Target("rankcore.echelon_quad", "gwa.linalg._kernels", "echelon_quad", _count_echelon_quad),
)


def _resolve(path: str):
    """The object at a dotted path below an importable top module, or None."""
    top, *rest = path.split(".")
    obj = importlib.import_module(top)
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """Installs wrappers around `targets`; spans go to `self.recorder`."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.recorder = Recorder()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for target in self.targets:
            original = getattr(_resolve(target.owner), target.attr, None)
            if not callable(original):
                self.missing.append(f"{target.owner}.{target.attr}")
                continue
            wrapper = self._wrap(target, original)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "gwa" and not name.startswith("gwa."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.recorder
            span = rec.open(target.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if target.count is not None:
                book = rec.open(BOOKKEEPING)
                target.count(rec.counter(target.layer), args, result)
                rec.close(book)
            return result

        return traced


# Per-layer metrics ---------------------------------------------------------

#: (metric, unit, better).  Times and counts are per pass of the job list.
METRICS = (
    ("cli.run_job.self_s", "s", "lower"),
    ("formulas.self_s", "s", "lower"),
    ("complexes.oracle_dims.calls", "count", "lower"),
    ("complexes.oracle_dims.self_s", "s", "lower"),
    ("complexes.assemble.calls", "count", "lower"),
    ("complexes.assemble.self_s", "s", "lower"),
    ("complexes.assemble.cells", "count", "lower"),
    ("complexes.assemble.nnz_frac", "ratio", "higher"),
    ("complexes.stabilize.self_s", "s", "lower"),
    ("complexes.stabilize.steps", "count", "lower"),
    ("complexes.stabilize.useful_frac", "ratio", "higher"),
    ("complexes.stabilize.final_d_max", "degree", "lower"),
    ("linalg.compose_is_zero.calls", "count", "lower"),
    ("linalg.compose_is_zero.self_s", "s", "lower"),
    ("linalg.homology_dim_at.calls", "count", "lower"),
    ("linalg.homology_dim_at.self_s", "s", "lower"),
    ("linalg.kernel_raw.calls", "count", "lower"),
    ("linalg.kernel_raw.self_s", "s", "lower"),
    ("linalg.kernel_raw.vectors", "count", "lower"),
    ("linalg.rank_rows.calls", "count", "lower"),
    ("linalg.rank_rows.self_s", "s", "lower"),
    ("rankcore.echelon_int.calls", "count", "lower"),
    ("rankcore.echelon_int.self_s", "s", "lower"),
    ("rankcore.echelon_int.cells", "count", "lower"),
    ("rankcore.echelon_int.max_pivot_bits", "bits", "lower"),
    ("rankcore.echelon_int.rank_frac", "ratio", "higher"),
    ("rankcore.echelon_quad.calls", "count", "lower"),
    ("rankcore.echelon_quad.self_s", "s", "lower"),
    ("rankcore.echelon_quad.cells", "count", "lower"),
    ("rankcore.echelon_quad.max_pivot_bits", "bits", "lower"),
    ("rankcore.echelon_quad.rank_frac", "ratio", "higher"),
    ("trace.count.self_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_metrics(rec: Recorder, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took `wall` seconds."""
    selfs = self_times(rec.spans)
    calls: dict[str, int] = {}
    for span in rec.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    out: dict[str, float] = {}
    for name, _, _ in METRICS:
        layer, _, key = name.rpartition(".")
        c = rec.counters.get(layer, {})
        if key == "self_s":
            out[name] = selfs.get(layer, 0.0)
        elif key == "calls":
            out[name] = calls.get(layer, 0)
        elif key == "nnz_frac":
            out[name] = _ratio(c.get("nonzero", 0), c.get("cells", 0))
        elif key == "useful_frac":
            out[name] = _ratio(c.get("useful", 0), c.get("steps", 0))
        elif key == "rank_frac":
            out[name] = _ratio(c.get("rank", 0), c.get("rows", 0))
        elif layer != "trace":
            out[name] = c.get(key, 0)
    out["trace.coverage"] = _ratio(sum(selfs.values()), wall)
    return out


def summarize(passes: list[dict], untraced_walls: list[float], traced_walls: list[float],
              gone: set[str]) -> dict[str, float | None]:
    """Median over traced passes of each metric; None for a layer in `gone`."""
    out: dict[str, float | None] = {}
    for name, _, _ in METRICS:
        if name.rpartition(".")[0] in gone:
            out[name] = None
        elif name == "trace.overhead":
            out[name] = statistics.median(traced_walls) / statistics.median(untraced_walls)
        else:
            out[name] = statistics.median(p[name] for p in passes)
    return out


def missing_layers(tracer: Tracer) -> set[str]:
    gone = set(tracer.missing)
    return {t.layer for t in tracer.targets if f"{t.owner}.{t.attr}" in gone}
