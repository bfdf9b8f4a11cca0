"""Every field and method of the package's dataclasses is read as an attribute somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "conecheck").rglob("*.py"))
# a member counts as read when any of these files reads an attribute of its name
READERS = PACKAGE + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        f = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(f, "id", None) == "dataclass" or getattr(f, "attr", None) == "dataclass":
            return True
    return False


def dataclass_members(source: str) -> list:
    """(class, name) of each field and each non-dunder method of the dataclasses in a source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    out.append((node.name, item.target.id))
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    out.append((node.name, item.name))
    return out


def attributes_read(source: str) -> set:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_scan_flags_unread_members():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass R:\n    used: int\n    copy: int\n"
              "    def __post_init__(self):\n        pass\n    def spare(self):\n        pass\n"
              "class Plain:\n    other: int\n"
              "print(R(1, 2).used)\n")
    members = dataclass_members(source)
    assert members == [("R", "used"), ("R", "copy"), ("R", "spare")]
    read = attributes_read(source)
    assert [m for m in members if m[1] not in read] == [("R", "copy"), ("R", "spare")]


READ = set().union(*(attributes_read(p.read_text()) for p in READERS))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_dataclass_member_is_read(path):
    unread = [(cls, name) for cls, name in dataclass_members(path.read_text()) if name not in READ]
    assert not unread, "\n".join(f"{path.relative_to(ROOT)}: {cls}.{name} is never read "
                                 "in src, bench or tests" for cls, name in unread)
