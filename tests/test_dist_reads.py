"""Only ``mms`` reads ``.dist``: the rest of the package reads distances through its reads.

A cone keeps its per-cell table, and reading ``dist`` fills and keeps its n x n matrix,
so a read outside ``mms`` would bring back the matrix the table replaced.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "conecheck").rglob("*.py"))
OWNER = ROOT / "src" / "conecheck" / "mms.py"


def dist_reads(source: str) -> list:
    """Sorted (line, expression) of each ``.dist`` attribute in a source."""
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "dist")


def test_scan_flags_dist_reads():
    source = ("d = m.dist[0]\nrow = m.rows([0])\nfrom .mms import dist\n"
              "x = space.dist.max()\nm.distance = 1\nf(rep.equator.dist)\n")
    assert dist_reads(source) == [(1, "m.dist"), (4, "space.dist"), (6, "rep.equator.dist")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p != OWNER],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_mms_reads_dist(path):
    found = dist_reads(path.read_text())
    assert not found, "\n".join(f"{path.relative_to(ROOT)}:{line}: reads {expr}; use FiniteMMS."
                                 "rows, block or pairs, or mms.diameter" for line, expr in found)
