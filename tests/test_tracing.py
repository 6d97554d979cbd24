"""The benchmark's tracer rebinds library functions by module and name; every
name it lists must stay importable from its module."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{modname}.{attr}"
        for modname, attrs in tracing.TRACED.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert missing == []
