"""tools/snapshot.py --compare reads each changed number against the
largest |value| of its field, so a signed value that crosses zero reports
its move on the field's scale, not a relative difference near 2."""

import importlib.util
from pathlib import Path

import pytest

SNAPSHOT = Path(__file__).resolve().parents[1] / "tools" / "snapshot.py"


def load_snapshot():
    spec = importlib.util.spec_from_file_location("snapshot_tool", SNAPSHOT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table(values) -> str:
    return "# se5nav-estimate-v1\nt,phx\n" + "".join(f"{k},{x!r}\n" for k, x in enumerate(values))


def test_zero_crossing_column_reads_its_move_on_the_column_scale():
    snapshot = load_snapshot()
    before = [1.0, 0.0004, -0.2, -1.0]
    after = [x - 1e-3 for x in before]  # 0.0004 -> -0.0006: |a - b| / max(|a|, |b|) would read 1.67
    diffs, other = snapshot.numeric_diff(table(before), table(after), csv_file=True)
    assert other == []
    assert [(field, line) for _, field, line in diffs] == [("phx", 3), ("phx", 4), ("phx", 5), ("phx", 6)]
    assert max(diffs)[0] == pytest.approx(1e-3, rel=0.01)


def test_compare_reports_the_field_scale(tmp_path, capsys):
    snapshot = load_snapshot()
    for side, values in (("before", [2.0, 1e-4, -2.0]), ("after", [2.0, -1.9e-3, -2.0])):
        (tmp_path / side).mkdir()
        (tmp_path / side / "estimate.csv").write_text(table(values))
    assert snapshot.compare(tmp_path / "before", tmp_path / "after") == 0
    out = capsys.readouterr().out
    assert "largest relative difference 1.00e-03 (phx, line 4)" in out
    assert "  phx: 1.00e-03" in out
