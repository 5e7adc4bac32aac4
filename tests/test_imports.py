"""Every module-level import of the package, the tests and the tools is used by its module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# perfbench/ is left out: the benchmark's files change only with the benchmark
MODULES = sorted(
    [path for path in (ROOT / "src" / "arcipm").glob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "tools").glob("*.py"))
)


def unused_imports(text: str) -> list[str]:
    """Names bound by the module-level imports of ``text`` that it never reads.

    ``from __future__`` imports and imports marked ``# noqa: F401`` (kept
    for a reader outside the module) are left out.
    """
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_guard_flags_only_unread_imports():
    text = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from re import compile, escape\n"
        "from sys import argv  # noqa: F401\n"
        "PATTERN = compile(np.__name__)\n"
    )
    assert unused_imports(text) == ["math", "os", "escape"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
