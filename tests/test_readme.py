"""The README's library sketch runs as written."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_sketch_runs(monkeypatch):
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["trace"].y[-1] > 0
    assert scope["cert"].l_rate > 0
