"""Dead-code guard: every module under ``src/repro`` is imported, and
every function, class and method there is referenced, from code outside
``tests/``.

A name counts as referenced when it appears outside ``tests/`` as an
identifier, an attribute or a word inside a string literal (perfbench
hooks functions by ``"module:qualname"`` strings). An import alone,
such as a package's re-export, does not count, nor does a docstring.
Methods are matched by their bare name, so one call of ``.fit`` keeps
every ``fit`` alive. Exempt: dunder methods, which Python calls itself, and
``repro.oracle``, the DuckDB reference that only tests call. A module
counts as imported when some file outside ``tests/`` names it in an
``import`` statement; package ``__init__``s are exempt.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
EXEMPT_MODULES = {"repro.oracle"}
_WORD = re.compile(r"[A-Za-z_]\w*")


def _module(path: Path) -> str:
    return ".".join(path.relative_to(SRC.parent).with_suffix("").parts)


def _definitions():
    """(module, qualified name, bare name) of each top-level function and
    class and each non-dunder method under ``src/repro``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(SRC.rglob("*.py")):
        mod = _module(path)
        if mod in EXEMPT_MODULES:
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defs):
                continue
            yield mod, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and not item.name.startswith("__"):
                        yield mod, f"{node.name}.{item.name}", item.name


def _names_in(path: Path) -> set[str]:
    nodes = list(ast.walk(ast.parse(path.read_text())))
    docstrings = {id(n.value) for n in nodes if isinstance(n, ast.Expr)}
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                names.update(_WORD.findall(node.value))
    return names


def _files_outside_tests() -> list[Path]:
    files = list(ROOT.glob("*.py"))
    for top in ("src", "jobs", "benchmarks", "perfbench"):
        files += (ROOT / top).rglob("*.py")
    # the oracle serves the tests
    return [p for p in files if not (p.parent == SRC and p.name == "oracle.py")]


def _used_outside_tests() -> set[str]:
    used = set()
    for path in _files_outside_tests():
        used |= _names_in(path)
    return used


def _imported_outside_tests() -> set[str]:
    """Every dotted name an ``import`` outside ``tests/`` may load:
    ``import a.b`` and ``from a.b import c`` give ``a.b`` and ``a.b.c``."""
    imported = set()
    for path in _files_outside_tests():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{a.name}" for a in node.names)
    return imported


def test_every_definition_is_used_outside_tests():
    used = _used_outside_tests()
    dead = [f"{mod}:{qual}" for mod, qual, name in _definitions() if name not in used]
    assert not dead, f"referenced only from tests/, or from nowhere: {dead}"


def test_every_module_is_imported_outside_tests():
    imported = _imported_outside_tests()
    modules = [_module(p) for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    dead = [m for m in modules if m not in imported and m not in EXEMPT_MODULES]
    assert not dead, f"imported only from tests/, or from nowhere: {dead}"
