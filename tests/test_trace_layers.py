"""Every span of the benchmark's tracer still wraps a callable of the package.

``bench/tracing.py`` skips a (module, attribute) site the package no longer
has, so a rename would read as zero for that layer's metrics; this fails
instead.  The file is run with ``runpy``, which writes no bytecode beside it.
"""

import importlib
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = runpy.run_path(str(ROOT / "bench" / "tracing.py"))["LAYERS"]


def callable_sites(sites) -> list:
    """The (module, attribute) sites that name a callable of an importable module."""
    out = []
    for modname, attr in sites:
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            continue
        if callable(getattr(mod, attr, None)):
            out.append((modname, attr))
    return out


def test_scan_drops_missing_sites():
    sites = [("conecheck.mms", "suspension_check"), ("conecheck.mms", "no_such_check"),
             ("conecheck.no_such_module", "cone"), ("conecheck.mms", "__all__")]
    assert callable_sites(sites) == [("conecheck.mms", "suspension_check")]


@pytest.mark.parametrize("name, sites", [layer[:2] for layer in LAYERS],
                         ids=[layer[0] for layer in LAYERS])
def test_every_layer_has_a_callable_site(name, sites):
    assert callable_sites(sites), f"span {name}: none of {sites} is a callable of the package"
