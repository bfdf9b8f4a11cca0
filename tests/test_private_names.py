"""cli.py reads no private name of another conecheck module: each rule it uses is public."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = ROOT / "src" / "conecheck" / "cli.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list:
    """Sorted (line, name) of each private name imported from, or read off, a package import."""
    tree, bound, out = ast.parse(source), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("conecheck")):
            for a in node.names:
                bound.add(a.asname or a.name)
                if _private(a.name):
                    out.append((node.lineno, a.name))
        elif isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names
                         if a.name.split(".")[0] == "conecheck")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                out.append((node.lineno, ast.unparse(node)))
    return sorted(out)


def test_scan_flags_private_reads():
    source = ("import numpy as np\nimport conecheck.transport\nfrom . import mms as m, __version__\n"
              "from .model_fns import passes, _sigma_raw\n_own = np._NoValue\n"
              "m.cone(m._theta_step, m.FiniteMMS._x)\nconecheck.transport._lp_plan()\n"
              "passes(_own, __version__, m.__name__)\n")
    assert private_reads(source) == [(4, "_sigma_raw"), (6, "m.FiniteMMS._x"),
                                     (6, "m._theta_step"), (7, "conecheck.transport._lp_plan")]


def test_cli_reads_no_private_name_of_the_package():
    found = private_reads(CLI.read_text())
    assert not found, "\n".join(f"src/conecheck/cli.py:{line}: reads the private {name}"
                                for line, name in found)
