"""Every package name the benchmark uses must exist where it looks.

``perfbench/spans.py`` replaces each ``ENTRY_POINTS`` binding through
``owner.__dict__[attr]``, and ``perfbench/workloads.py`` and ``run.py``
import package names for their output checks and set-up probes; a refactor
that drops or moves one of those names would otherwise surface only when
the benchmark runs.
"""

import ast
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


# ---------------------------------------------------------------------------
# Package names the benchmark's workloads and runner import
# ---------------------------------------------------------------------------

BENCH = SPANS.parent


def mdquant_imports(path: Path) -> set:
    """(module, name) of every mdquant name a benchmark file imports.

    Covers import statements, the import lines of the Python source the file
    hands to fresh interpreters (its string constants), and attributes read
    from ``cli``, which in these files is always ``mdquant.cli``.  ``name`` is
    None for a plain module import.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sources = [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for line in node.value.splitlines():
                if line.startswith(("import mdquant", "from mdquant")):
                    sources.append(ast.parse(line))
    found = set()
    for source in sources:
        for node in ast.walk(source):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mdquant":
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update(
                    (alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "mdquant"
                )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cli"
            ):
                found.add(("mdquant.cli", node.attr))
    return found


BENCH_IMPORTS = sorted(
    mdquant_imports(BENCH / "workloads.py") | mdquant_imports(BENCH / "run.py"), key=str
)


def test_bench_imports_are_found():
    # The names the workloads' output checks and set-up probes use.
    assert {
        ("mdquant", "JointGaussianPair"),
        ("mdquant", "evaluate_distortion"),
        ("mdquant.persist", "bundle_from_dict"),
        ("mdquant.persist", "load_codec"),
        ("mdquant.simulator", "generate_scenario"),
        ("mdquant.cli", "main"),
    } <= set(BENCH_IMPORTS)


@pytest.mark.parametrize("module,name", BENCH_IMPORTS, ids=lambda v: str(v))
def test_bench_import_resolves(module, name):
    owner = importlib.import_module(module)
    if name is not None:
        assert hasattr(owner, name), f"perfbench imports {module}.{name}, which does not exist"
