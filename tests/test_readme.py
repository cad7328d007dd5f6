"""The README's Python example runs as written against the public API."""

import importlib
import pkgutil
import re
from pathlib import Path

import mdquant

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    d_av = float(capsys.readouterr().out.split()[0])
    assert 0.0 < d_av < 1.0


def test_named_module_attributes_exist():
    # Every `module.NAME` the README names, for a module of the package,
    # resolves; a renamed or deleted constant leaves no stale reference.
    modules = {m.name for m in pkgutil.iter_modules(mdquant.__path__)}
    text = README.read_text(encoding="utf-8")
    named = {
        (module, name)
        for module, name in re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", text)
        if module in modules
    }
    assert len(named) >= 3
    for module, name in sorted(named):
        assert hasattr(importlib.import_module(f"mdquant.{module}"), name), f"{module}.{name}"
