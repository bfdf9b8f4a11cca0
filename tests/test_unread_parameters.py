"""Every parameter of a package function is read in the function's body."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "conecheck").rglob("*.py"))


def unread_parameters(source: str) -> list:
    """(function, parameter) of each parameter its function never reads.

    A read in a nested function counts.  The subcommands ``cmd_*`` share
    one signature, ``cmd(args)``, whether or not a subcommand has options.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name.startswith("cmd_"):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.name, p) for p in params if p not in read]
    return out


def test_scan_flags_unread_parameters():
    source = ("def f(a, b, *rest, c=1, **kw):\n    return a + kw['x']\n"
              "def g(x):\n    def inner():\n        return x\n    return inner\n"
              "def cmd_run(args):\n    return 0\n")
    assert unread_parameters(source) == [("f", "b"), ("f", "rest"), ("f", "c")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_parameter_is_read(path):
    unread = unread_parameters(path.read_text())
    assert not unread, "\n".join(f"{path.relative_to(ROOT)}: {fn} never reads its "
                                 f"parameter {p}" for fn, p in unread)
