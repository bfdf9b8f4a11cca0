"""Every name an import binds in the package or the tests is read in its file."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# an __init__.py imports only to re-export, so it is not scanned
SCANNED = sorted(p for p in (ROOT / "src" / "conecheck").rglob("*.py") if p.name != "__init__.py")
SCANNED += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that is read neither as a name nor in ``__all__``."""
    imported, read = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(e.value for e in getattr(node.value, "elts", ())
                        if isinstance(e, ast.Constant))
    return [(line, name) for line, name in imported if name not in read]


def test_scan_flags_leftover_imports():
    source = "import functools\nfrom enum import Enum\nimport os.path as osp\nimport math\n" \
             "from x import y\n__all__ = ['y']\nprint(math.pi)\n"
    assert unused_imports(source) == [(1, "functools"), (2, "Enum"), (3, "osp")]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, "\n".join(f"{path.relative_to(ROOT)}:{line}: {name} is imported "
                                 "but never read" for line, name in unused)
