"""Tests of the benchmark itself; run with ``python -m pytest perfbench``."""

import subprocess
import sys
import types
from pathlib import Path

from tracing import Tracer, patched

HERE = Path(__file__).resolve().parent


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(1000))
        with tracer.span("inner"):
            pass
    calls, self_s = tracer.summary()
    _, start, end, _ = tracer.spans[0]
    assert calls == {"outer": 1, "inner": 2}
    assert abs(self_s["outer"] + self_s["inner"] - (end - start)) < 1e-9
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def test_missing_function_reports_zero_calls_and_names_are_restored():
    def present():
        return 1

    module = types.SimpleNamespace(present=present)
    tracer = Tracer()
    targets = [(module, "present", "m.present"), (module, "gone", "m.gone"),
               (None, "main", "absent.main")]
    with patched(tracer, targets):
        assert module.present() == 1
    calls, _ = tracer.summary()
    assert calls["m.present"] == 1 and calls["m.gone"] == 0
    assert module.present is present and not hasattr(module, "gone")


def test_selftest_runs_every_workload_at_a_tiny_size():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--selftest"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
