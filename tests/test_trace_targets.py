"""The functions the benchmark's tracer wraps still exist under their names.

`perfbench/trace.py` names each target as a module and an attribute, a
function or `Class.method`, and wraps it only when a traced run starts.  A
rename in verba would first break such a run; this test breaks instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def test_every_trace_target_resolves_in_verba(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, trace)  # its dataclasses look it up there
    spec.loader.exec_module(trace)
    targets = trace.TARGETS
    assert targets
    for target in targets:
        home = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(home, cls_name)
            assert callable(getattr(cls, meth)), target
            assert meth in vars(cls), f"{target.attr} is inherited; the tracer wraps it on its own class"
        else:
            assert callable(getattr(home, target.attr)), target
