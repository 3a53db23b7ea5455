"""The README states what the code has: its "Public API" section lists exactly
``se5nav.__all__``, and its memory formula uses the constants of the run bound."""

import re
from pathlib import Path

import se5nav
from se5nav.scenario import _MAX_RUN_BYTES, _TRACE_FLOATS_PER_RECORD, _TRUTH_FLOATS_PER_STEP

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_the_public_api():
    section = README.read_text().split("## Public API")[1].split("\n## ")[0]
    assert sorted(set(re.findall(r"`(\w+)`", section)) - {"__all__"}) == se5nav.__all__


def test_readme_memory_formula_uses_the_bound_constants():
    text = " ".join(README.read_text().split())
    truth, record = _TRUTH_FLOATS_PER_STEP, _TRACE_FLOATS_PER_RECORD
    assert f"8·({truth} + {record} / trace_stride) bytes per step" in text
    assert f"The {truth} floats of a step" in text and f"The {record} floats of a record" in text
    steps = _MAX_RUN_BYTES / (8 * (truth + record / 10))
    assert f"about {steps / 1e6:.1f} million steps at `trace_stride = 10`" in text
