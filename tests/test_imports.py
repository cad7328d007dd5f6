"""Every module-level import of the package is used where it is imported.

A name imported at module level and never read is dead weight, or a stale
binding of a deleted or moved API.  An import kept only for another reader
(``perfbench/spans.py`` patches some module bindings by name) carries
``# noqa: F401`` and the reason.  ``__init__`` is exempt: its imports are the
public API.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mdquant"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
NOQA = re.compile(r"#\s*noqa:\s*F401\s+\S")


def unused_imports(path: Path) -> list:
    """(line, name) of every module-level import that the module never reads."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        if any(NOQA.search(line) for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def test_modules_are_found():
    assert {"cli.py", "codec.py", "simulator.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == [], f"{path.name} imports names it never uses"


def test_an_unused_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy as np\n"
        "from .gaussian import JointGaussianPair, quantize_rho\n"
        "from .si_select import pairwise_mi  # noqa: F401  (patched by name elsewhere)\n"
        "from .codec import si_moment_stack  # noqa: F401\n"
        "x = np.zeros(quantize_rho(0.5, None))\n",
        encoding="utf-8",
    )
    # A bare noqa without a reason does not excuse the import.
    assert unused_imports(module) == [(2, "JointGaussianPair"), (4, "si_moment_stack")]
