"""The README's library sketch runs as written, and the names it cites exist."""
import importlib
import pkgutil
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


#: endings that make a dotted name a file name, not a module attribute
FILE_SUFFIXES = {"csv", "cfg", "txt", "py", "json", "md"}


def test_module_references_resolve():
    # every `module.name` the README cites, for a module of the package,
    # names an attribute that exists
    import agechemo

    modules = {m.name for m in pkgutil.iter_modules(agechemo.__path__)} | {"agechemo"}
    text = (ROOT / "README.md").read_text()
    refs = {
        ref for ref in re.findall(r"`(\w+(?:\.\w+)+)[`(]", text)
        if ref.split(".")[0] in modules and ref.rsplit(".", 1)[1] not in FILE_SUFFIXES
    }
    assert refs
    missing = []
    for ref in sorted(refs):
        head, *rest = ref.split(".")
        obj = importlib.import_module(head if head == "agechemo" else "agechemo." + head)
        for name in rest:
            if not hasattr(obj, name):
                missing.append(ref)
                break
            obj = getattr(obj, name)
    assert missing == []
