"""Every module-level import of the package, the tests and the tools is used by its module,
with no marker to exempt one, every module-level definition of the package and every
method of its classes is read outside itself, the package multiplies with ndarray.dot,
not with @, outside the one product that keeps it, it calls compile, exec and eval
only where autodiff compiles its generated source, it sets numpy's floating-point
policy only in solve() and in the one public derivative that keeps its own, and the
iteration's modules call no np.all, np.any or np.full outside the start builders."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import arcipm
from conftest import perfbench_module

ROOT = Path(__file__).resolve().parents[1]
# perfbench/ is left out: the benchmark's files change only with the benchmark
MODULES = sorted(
    [path for path in (ROOT / "src" / "arcipm").glob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "tools").glob("*.py"))
)


def unused_imports(text: str) -> list[str]:
    """Names bound by the module-level imports of ``text`` that it never reads.

    ``from __future__`` imports are left out.  No marker exempts an import:
    a name kept only for a reader outside the module is flagged too.
    """
    tree = ast.parse(text)
    imported = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
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
    assert unused_imports(text) == ["math", "os", "escape", "argv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node, owner):
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield owner, inner.id
        elif isinstance(inner, ast.Attribute):
            yield owner, inner.attr


def top_level_reads(text: str):
    """(owner, name) for every name and attribute name read in ``text``.

    ``owner`` is the dotted name of the definition the read is in: a
    top-level function, a method of a top-level class (``Class.method``),
    or the class itself for the rest of its statement; None for any other
    top-level statement.
    """
    for statement in ast.parse(text).body:
        if isinstance(statement, ast.ClassDef):
            for part in ast.iter_child_nodes(statement):
                inner = isinstance(part, DEFINITIONS)
                yield from _reads(part, f"{statement.name}.{part.name}" if inner else statement.name)
        else:
            yield from _reads(statement, statement.name if isinstance(statement, DEFINITIONS) else None)


def definitions(text: str):
    """(dotted name, name) of each top-level function and class, and each method of such a class.

    Dunder methods are left out: Python calls them, not the code.
    """
    for statement in ast.parse(text).body:
        if isinstance(statement, DEFINITIONS):
            yield statement.name, statement.name
        if isinstance(statement, ast.ClassDef):
            for part in statement.body:
                if isinstance(part, DEFINITIONS) and not part.name.startswith("__"):
                    yield f"{statement.name}.{part.name}", part.name


def unread_definitions(package: dict, readers: dict, read_by_name=()) -> list[str]:
    """``path:name`` of each definition of :func:`definitions` in ``package`` that nothing reads.

    ``package`` and ``readers`` map a file's path to its text; the package's
    files read too.  A definition is read when code outside it, in any of
    those files, reads its name, as a name or as an attribute, or when the
    name is in ``read_by_name``.  Reads in a class's own methods count for
    the class but not for the method they are in.
    """
    readers_of = defaultdict(set)
    for path, text in {**readers, **package}.items():
        for owner, name in top_level_reads(text):
            readers_of[name].add((path, owner))

    def inside(dotted, path, reader):
        reader_path, owner = reader
        return reader_path == path and owner is not None and (owner + ".").startswith(dotted + ".")

    return [
        f"{path}:{dotted}"
        for path, text in package.items()
        for dotted, name in definitions(text)
        if name not in read_by_name
        and all(inside(dotted, path, reader) for reader in readers_of[name])
    ]


def test_guard_flags_only_unread_definitions():
    package = {
        "pkg/a.py": (
            "def used():\n    return helper()\n"
            "def helper():\n    return helper\n"
            "def orphan():\n    return orphan()\n"
            "class Kept:\n"
            "    def __init__(self):\n        pass\n"
            "    def of(self):\n        return self.helped()\n"
            "    def helped(self):\n        return Kept\n"
            "    def recursive(self):\n        return self.recursive()\n"
            "class Lonely:\n    def make(self):\n        return Lonely()\n"
            "def exported():\n    pass\n"
        )
    }
    readers = {"tools/t.py": "import pkg\nprint(pkg.a.used, pkg.a.Kept().of)\n"}
    assert unread_definitions(package, readers, {"exported"}) == [
        "pkg/a.py:orphan",
        "pkg/a.py:Kept.recursive",
        "pkg/a.py:Lonely",
        "pkg/a.py:Lonely.make",
    ]


def test_package_definitions_are_read_by_the_package_the_tools_or_the_benchmark():
    """Module-level definitions and the methods of package classes.

    Tests do not count as readers; the public API and the names the
    benchmark rebinds do.
    """
    texts = {
        str(path.relative_to(ROOT)): path.read_text()
        for folder in ("src/arcipm", "tools", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    }
    package = {path: text for path, text in texts.items() if path.startswith("src/")}
    rebound = {attribute for _, attribute, _, _ in perfbench_module("spans").targets()}
    assert "src/arcipm/step.py" in package
    assert unread_definitions(package, texts, rebound | set(arcipm.__all__)) == []


# The package's @ products that stay, by file and enclosing definition: on the
# strided views of MuPredictor.of, .dot takes another OpenBLAS path and its
# bits differ from matmul's at p = 16.
KEPT_MATMULS = {"step.py": ["MuPredictor.of"]}


def scoped_sites(text: str, test, label) -> list[str]:
    """``label(node, where)`` for each node of ``text`` that passes ``test``, in source order.

    ``where`` is the dotted name of the definition around the node, or
    ``<module>`` outside every function and class.
    """
    sites = []

    def visit(node, scope):
        if isinstance(node, DEFINITIONS):
            scope = (*scope, node.name)
        if test(node):
            sites.append(label(node, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), ())
    return sites


def matmul_sites(text: str) -> list[str]:
    """The dotted name of the definition around each ``@`` product in ``text``, one per product."""
    return scoped_sites(
        text,
        lambda node: isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult),
        lambda node, where: where,
    )


def test_guard_lists_each_product_in_its_definition():
    text = (
        "Y = a @ b\n"
        "class C:\n"
        "    def f(self, x, y):\n"
        "        x @= y\n"
        "        return x.dot(y)\n"
        "def g(a, b, c):\n"
        "    return (a @ b) @ c\n"
    )
    assert matmul_sites(text) == ["<module>", "C.f", "g", "g"]


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "arcipm").glob("*.py")),
    ids=lambda path: path.name,
)
def test_package_products_go_through_ndarray_dot(path):
    assert matmul_sites(path.read_text()) == KEPT_MATMULS.get(path.name, []), (
        "use ndarray.dot, not @: on the solver's operands of a few dozen entries the same "
        "BLAS call costs about half as much through .dot, whose dispatch is shorter; a product "
        "whose switch to .dot moves a digest keeps @, with a reason beside it and in KEPT_MATMULS"
    )


# The package's calls of the builtins that run source text, by file and enclosing
# definition: autodiff's _maker compiles the source an _Emitter writes, which
# holds only variable indices, counters and float reprs, once per source text.
CODE_BUILTINS = ("compile", "exec", "eval")
KEPT_CODE_CALLS = {"autodiff.py": ["_maker: exec", "_maker: compile"]}


def code_call_sites(text: str) -> list[str]:
    """``definition: name`` for each call of a :data:`CODE_BUILTINS` builtin in ``text``; ``re.compile`` is no such call."""
    return scoped_sites(
        text,
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in CODE_BUILTINS,
        lambda node, where: f"{where}: {node.func.id}",
    )


def test_guard_lists_each_code_call_in_its_definition():
    text = (
        "PATTERN = re.compile('x')\n"
        "def make(source):\n"
        "    exec(compile(source, '<s>', 'exec'), {})\n"
        "    return eval(source)\n"
    )
    assert code_call_sites(text) == ["make: exec", "make: compile", "make: eval"]


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "arcipm").glob("*.py")),
    ids=lambda path: path.name,
)
def test_package_runs_source_text_only_at_the_emitters_site(path):
    assert code_call_sites(path.read_text()) == KEPT_CODE_CALLS.get(path.name, []), (
        "compile, exec and eval run only the source that autodiff's emitter writes from a tree's "
        "structure, at _maker; any other call could run text that came from a user"
    )


# The package's floating-point settings, by file and enclosing definition: solve()
# states the one policy for the whole run, and autodiff's _quadratic keeps its own
# because value_gradient_hessian is public and reports an overflow as DomainError.
KEPT_ERRSTATE = {"solver.py": ["solve"], "autodiff.py": ["_quadratic"]}


def errstate_sites(text: str) -> list[str]:
    """The dotted name of the definition around each ``errstate(...)`` call in ``text``, one per call."""

    def errstate_call(node):
        func = node.func if isinstance(node, ast.Call) else None
        return (isinstance(func, ast.Attribute) and func.attr == "errstate") or (
            isinstance(func, ast.Name) and func.id == "errstate"
        )

    return scoped_sites(text, errstate_call, lambda node, where: where)


def test_guard_lists_each_errstate_in_its_definition():
    text = (
        "from numpy import errstate\n"
        "class C:\n"
        "    def f(self, v):\n"
        "        with np.errstate(over='ignore'):\n"
        "            return np.geterr(), v\n"
        "@numpy.errstate(all='raise')\n"
        "def g(v):\n"
        "    with errstate(invalid='ignore'):\n"
        "        return v\n"
    )
    assert errstate_sites(text) == ["C.f", "g", "g"]


# each listed file is a case too, so a listed site whose file is gone fails as one that moved
@pytest.mark.parametrize(
    "name", sorted({path.name for path in (ROOT / "src" / "arcipm").glob("*.py")} | set(KEPT_ERRSTATE))
)
def test_package_sets_the_floating_point_policy_in_one_place(name):
    path = ROOT / "src" / "arcipm" / name
    assert path.exists() and errstate_sites(path.read_text()) == KEPT_ERRSTATE.get(name, []), (
        "solve() runs under the package's one floating-point policy, stated in arcipm.solver's "
        "docstring; another errstate would split it again. A public function outside solve() "
        "that needs its own keeps it, with a reason beside it and in KEPT_ERRSTATE"
    )


# numpy functions whose Python wrappers cost more than the work they do on the
# iteration's operands
NUMPY_WRAPPERS = ("all", "any", "full")


def wrapper_call_sites(text: str) -> list[str]:
    """``definition: np.name`` for each call of a :data:`NUMPY_WRAPPERS` function in ``text``."""

    def wrapper_call(node):
        func = node.func if isinstance(node, ast.Call) else None
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "np"
            and func.attr in NUMPY_WRAPPERS
        )

    return scoped_sites(text, wrapper_call, lambda node, where: f"{where}: np.{node.func.attr}")


def test_guard_lists_each_wrapper_call_in_its_definition():
    text = (
        "X = np.full(3, 1.0)\n"
        "class C:\n"
        "    def f(self, v):\n"
        "        return np.all(v > 0) or v.all() or np.any(np.isnan(v))\n"
        "def g(v):\n"
        "    return np.minimum.reduce(v), np.zeros(2), numpy.full(2, 1.0)\n"
    )
    assert wrapper_call_sites(text) == ["<module>: np.full", "C.f: np.all", "C.f: np.any"]


@pytest.mark.parametrize("name", ["kkt.py", "solver.py", "step.py"])
def test_iteration_modules_call_no_numpy_wrappers(name):
    text = (ROOT / "src" / "arcipm" / name).read_text()
    assert wrapper_call_sites(text) == [], (
        "the iteration's modules call no np.all, np.any or np.full: with numpy 2.4.6 and one "
        "OpenBLAS thread, on 10 to 216 entries, np.all took 2.4-3.4 us and np.any 3.3-3.8 us a "
        "call, against 1.1 us for np.minimum.reduce(v) >= 0.0, and np.full 1.4-1.7 us, against "
        "0.2-0.3 us for np.zeros or nothing for a scalar that broadcasts"
    )
