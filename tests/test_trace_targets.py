"""The benchmark's tracer (`oraclebench/spans.py`) wraps gwa functions by
name and reports a vanished name as missing.  This keeps every name it
wraps alive: renaming or deleting one fails here, in the package's own
tests, and not only in the benchmark's."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "oraclebench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("oraclebench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(monkeypatch):
    import gwa.cli  # noqa: F401 -- the benchmark imports gwa.cli first, too

    tracer = _load_spans(monkeypatch).Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
