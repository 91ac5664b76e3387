"""The README's library quickstart runs as written."""

import re
from pathlib import Path

from debtkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart():
    """The python block of the README's "Library quickstart" section."""
    section = README.read_text(encoding="utf-8").split(
        "## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    # the block reads panel.csv and deflator.csv and fits from 1970 to 1995
    assert cli.main(["synth", "--out", str(tmp_path), "--n-countries", "30",
                     "--years", "1970:1995", "--seed", "0"]) == 0
    (tmp_path / "panel_synth.csv").rename(tmp_path / "panel.csv")
    (tmp_path / "deflator_synth.csv").rename(tmp_path / "deflator.csv")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    exec(compile(_quickstart(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "780 rows, 1970 to 1995"
    assert lines[1] == "30 countries in 26 years"
    # one fit per (t, dt), then the gamma
    assert len(lines) == 2 + 2 * 15 + 1
