"""Every name a kcone module imports is used in that module, every
module-level private name is used somewhere in the package, every error
type is raised, no module reads the process environment, and no handler
catches every exception.

No linter ships with the project's toolchain, so these AST scans stand in for
one. The package __init__ is exempt from the import scan: its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

import kcone

PACKAGE = sorted(Path(kcone.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_flags_an_unused_import():
    src = "import os\nimport sys\nfrom a import b as c, d\nprint(sys.argv, d)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private names bound at module level that no module reads."""
    defined: list[str] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{module}.{name}" for name in targets if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [d for d in defined if d.split(".", 1)[1] not in read]


def test_private_scan_flags_an_unread_name():
    sources = {
        "a": "_K = 1\n_J = 2\ndef _f():\n    return _J\nclass _C:\n    pass\n",
        "b": "from .a import _f\nimport a\nx = a._C\n",
    }
    assert unreferenced_private_names(sources) == ["a._K"]


def test_no_unreferenced_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_private_names(sources) == []


def unraised_error_types(sources: dict[str, str]) -> list[str]:
    """KconeError subclasses in sources["errors"] that no module raises,
    either directly or through a subclass that is raised."""
    bases: dict[str, list[str]] = {}
    for node in ast.parse(sources["errors"]).body:
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
    live: set[str] = set()
    stack: list[str] = []
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                stack.append(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", ""))
    while stack:
        name = stack.pop()
        if name in bases and name not in live:
            live.add(name)
            stack += bases[name]

    def is_kcone_error(name: str) -> bool:
        return name == "KconeError" or any(is_kcone_error(b) for b in bases.get(name, []))

    return [name for name in bases if is_kcone_error(name) and name not in live]


def test_error_scan_flags_an_unraised_type():
    sources = {
        "errors": "class KconeError(Exception):\n    pass\n"
                  "class A(KconeError):\n    pass\n"
                  "class B(A):\n    pass\n"
                  "class C(KconeError):\n    pass\n"
                  "class Dead(KconeError):\n    pass\n"
                  "class Other(Exception):\n    pass\n",
        "m": "from . import errors\nfrom .errors import B\n"
             "def f():\n    raise B('x')\n"
             "def g():\n    raise errors.C from None\n",
    }
    assert unraised_error_types(sources) == ["Dead"]


def test_every_error_type_is_raised():
    """An error type nothing raises is a contract no caller can meet."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unraised_error_types(sources) == []


_ENV_READS = {"environ", "getenv"}


def environment_reads(sources: dict[str, str]) -> list[str]:
    """Functions (module-qualified; the module itself for top-level code)
    that read os.environ or os.getenv, or import either from os."""
    found: set[str] = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENV_READS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in _ENV_READS for alias in node.names)
        ):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return sorted(found)


def test_env_scan_flags_environment_reads():
    sources = {
        "a": "import os\ndef f():\n    return os.environ.get('X')\n"
             "def g():\n    return os.path.join('a', 'b')\n",
        "b": "import os\nclass C:\n    def m(self):\n        return os.getenv('Y')\n",
        "c": "from os import environ\n",
    }
    assert environment_reads(sources) == ["a.f", "b.C.m", "c"]


def test_no_environment_reads():
    """Behaviour is set by the scenario and the command line only: no
    module reads an environment variable."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert environment_reads(sources) == []


_BROAD = {"Exception", "BaseException"}


def broad_excepts(sources: dict[str, str]) -> list[str]:
    """Handlers (module:line) that are bare or name Exception or
    BaseException, alone or in a tuple."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(
                c is None
                or (isinstance(c, ast.Name) and c.id in _BROAD)
                or (isinstance(c, ast.Attribute) and c.attr in _BROAD)
                for c in caught
            ):
                found.append(f"{module}:{node.lineno}")
    return found


def test_broad_except_scan_flags_catch_alls():
    sources = {
        "a": "try:\n    f()\nexcept:\n    pass\n"
             "try:\n    f()\nexcept ValueError:\n    pass\n",
        "b": "try:\n    f()\nexcept Exception as e:\n    pass\n"
             "try:\n    f()\nexcept (KeyError, builtins.BaseException):\n    pass\n"
             "try:\n    f()\nexcept (KeyError, OSError):\n    pass\n",
    }
    assert broad_excepts(sources) == ["a:3", "b:3", "b:7"]


def test_no_broad_excepts():
    """Errors the package cannot name must reach the caller: no handler
    catches everything."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert broad_excepts(sources) == []
