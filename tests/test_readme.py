"""The README's library example runs as printed, so an API deletion cannot strand it."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "density_n000.csv", "density_n005.csv", "density_n015.csv",
        "report.json", "summary.csv"]
