"""The README's library sketch runs as written."""
import re
import types
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


ROOT_EXPORTS = {
    "load_config", "ControllerGains", "solve_equilibrium", "characteristic_roots",
    "simulate", "simulate_closed_loop", "build_certificate", "run",
}


def test_root_exports_one_entry_point_per_layer():
    import agechemo

    names = {
        name for name, value in vars(agechemo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == ROOT_EXPORTS
    paragraph = (ROOT / "README.md").read_text().split("The package root exports", 1)[1].split("\n\n", 1)[0]
    assert all("`%s`" % name in paragraph for name in ROOT_EXPORTS)
