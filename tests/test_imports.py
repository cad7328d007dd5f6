"""Every module-level import of the package is used where it is imported,
and none of them is scipy.

A name imported at module level and never read is dead weight, or a stale
binding of a deleted or moved API.  An import kept only for another reader
(``perfbench/spans.py`` patches some module bindings by name) carries
``# noqa: F401`` and the reason.  ``__init__`` is exempt: its imports are the
public API.

scipy is imported only inside the functions that call it: ``scipy.special``
takes longer to import than the rest of the package, and importing mdquant,
loading a codec, ``bound`` and ``report`` need none of it
(``tests/test_cold_start.py`` checks the commands themselves).
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mdquant"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
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


def eager_scipy_imports(path: Path) -> list:
    """Lines of the scipy imports that run when the module is imported: those outside any function."""
    found, todo = [], list(ast.parse(path.read_text(encoding="utf-8")).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


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
        "x = np.zeros(quantize_rho(0.5))\n",
        encoding="utf-8",
    )
    # A bare noqa without a reason does not excuse the import.
    assert unused_imports(module) == [(2, "JointGaussianPair"), (4, "si_moment_stack")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy_when_imported(path):
    assert eager_scipy_imports(path) == [], f"{path.name} imports scipy at module level"


def test_a_module_level_scipy_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy as np\n"
        "import scipy.special as sp\n"
        "from scipy import stats\n"
        "from .scipy_tools import helper\n"
        "if np:\n"
        "    from scipy.special import ndtr\n"
        "class C:\n"
        "    import scipy\n"
        "def f():\n"
        "    from scipy.special import ndtri\n"
        "    return ndtri\n",
        encoding="utf-8",
    )
    # The relative import is not scipy, and the function's import runs only when it is called.
    assert eager_scipy_imports(module) == [2, 3, 6, 8]
