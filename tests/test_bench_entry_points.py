"""Every function the benchmark's layer tracing wraps must exist where it looks.

``perfbench/spans.py`` replaces each ``ENTRY_POINTS`` binding through
``owner.__dict__[attr]``; a refactor that drops or moves one of those names
would otherwise surface only when the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


ENTRY_POINTS = load_entry_points()


@pytest.mark.parametrize(
    "module,path", [(m, p) for m, p, _, _ in ENTRY_POINTS], ids=lambda v: str(v)
)
def test_binding_resolves(module, path):
    owner = importlib.import_module(f"mdquant.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"mdquant.{module}.{path} is not bound where perfbench patches it"
    assert callable(owner.__dict__[attr])
