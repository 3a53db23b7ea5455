"""The traced benchmark mode (perfbench/tracing.py) wraps package functions
by module and name; one renamed or removed would make its per-layer
metrics read zero. Every hook must resolve against the package."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    tracing = load_tracing()
    missing = [f"{module}.{attr}" for _, module, attr in tracing.HOOKS
               if tracing._resolve(module, attr) is None]
    assert len(tracing.HOOKS) > 0
    assert missing == []
