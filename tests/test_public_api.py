"""The README's "Public API" section lists exactly ``se5nav.__all__``."""

import re
from pathlib import Path

import se5nav

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_the_public_api():
    section = README.read_text().split("## Public API")[1].split("\n## ")[0]
    assert sorted(set(re.findall(r"`(\w+)`", section)) - {"__all__"}) == se5nav.__all__
