"""The functions the benchmark's tracer looks up must exist.

``bench/tracing.py`` wraps each function in its ``TRACED`` table by looking
it up where it is defined; a missing one makes a benchmark run report
``correct: false``.  This test reads that table and resolves every entry the
same way, so removing or renaming a traced function fails here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module, path", [(module, path) for _, module, path, _ in tracing.TRACED]
)
def test_traced_function_resolves_to_a_callable(module, path):
    assert callable(tracing._resolve(module, path)), f"{module}.{path}"
