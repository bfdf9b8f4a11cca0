"""In-memory span tracer that wraps the package's layer functions from outside.

Wrapping replaces module attributes in this process only, at every place a
caller looks the name up (``conecheck.transport.midpoints`` as well as
``conecheck.mms.midpoints``); the package source is not touched.  Spans
(name, start, end, parent) and counts stay in memory until ``write``.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, thread id)
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self.pairs = set()
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._lock = threading.Lock()  # cd-check calls traced layers from a thread pool
        self._saved = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        st = self._stack()
        sid = next(self._ids)
        parent = st[-1] if st else None
        st.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident()))

    def wrap(self, name: str, sites, on_call=None, on_return=None) -> None:
        """Wrap the callable at each (module name, attribute) site as span ``name``.

        A site the package no longer has is skipped, so a later refactor
        reads as zero for that layer instead of stopping the benchmark.
        """
        for modname, attr in sites:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                continue

            def wrapper(*args, _orig=orig, **kwargs):
                with self._lock:
                    self.counts[name + ".calls"] += 1
                    if on_call is not None:
                        on_call(self, args, kwargs)
                out = self.span(name, _orig, *args, **kwargs)
                if on_return is not None:
                    with self._lock:
                        on_return(self, out)
                return out

            self._saved.append((mod, attr, orig))
            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def self_times(self) -> dict:
        """Seconds per span name, minus the time covered by each span's children."""
        child = defaultdict(float)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, name, t0, t1, _, _ in self.spans:
            out[name] += (t1 - t0) - child[sid]
        return dict(out)

    def write(self, path) -> None:
        payload = {
            "spans": [
                {"id": s, "name": n, "start": a, "end": b, "parent": p, "thread": t}
                for s, n, a, b, p, t in self.spans
            ],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# the package's layers
# ---------------------------------------------------------------------------

def _array_bytes(obj) -> int:
    """Bytes held by the arrays of a coupling, dense or sparse, not its densities."""
    total = 0
    for value in getattr(obj, "__dict__", {}).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif hasattr(value, "data") and hasattr(value, "nnz"):  # scipy sparse
            total += sum(getattr(value, a).nbytes for a in ("data", "indices", "indptr", "row", "col")
                         if isinstance(getattr(value, a, None), np.ndarray))
    return total


def _w2_call(tr, args, kwargs):
    mu0 = args[1] if len(args) > 1 else kwargs["mu0"]
    mu1 = args[2] if len(args) > 2 else kwargs["mu1"]
    key = hashlib.sha1(mu0.mass.tobytes() + b"|" + mu1.mass.tobytes()).hexdigest()
    tr.pairs.add(key)


def _w2_return(tr, out):
    coupling = out[1]
    tr.maxima["transport.coupling_mb"] = max(
        tr.maxima["transport.coupling_mb"], _array_bytes(coupling) / 1e6)


def _lp_call(tr, args, kwargs):
    c = args[0] if args else kwargs["c"]
    tr.counts["transport.lp.vars"] += int(np.size(c))


def _eigen_call(tr, args, kwargs):
    tr.counts["spectral1d.eigen.modes"] += int(args[1] if len(args) > 1 else kwargs["k"])


def _dijkstra_call(tr, args, kwargs):
    idx = kwargs.get("indices", args[3] if len(args) > 3 else None)
    graph = args[0] if args else kwargs["csgraph"]
    tr.counts["mms.warped_product.sources"] += (
        graph.shape[0] if idx is None else int(np.size(idx)))


LAYERS = [
    # (span name, [(module, attribute), ...], on_call, on_return)
    ("transport.wasserstein2", [("conecheck.transport", "wasserstein2")], _w2_call, _w2_return),
    ("transport.lp", [("conecheck.transport", "linprog")], _lp_call, None),
    ("transport.certify", [("conecheck.transport", "_certify_optimality")], None, None),
    ("transport.displacement_midpoint", [("conecheck.transport", "displacement_midpoint")], None, None),
    ("transport.renyi_entropy", [("conecheck.transport", "renyi_entropy")], None, None),
    ("mms.midpoints", [("conecheck.mms", "midpoints"), ("conecheck.transport", "midpoints")], None, None),
    ("model_fns.coeff", [("conecheck.transport", "sigma_coeff"),
                         ("conecheck.transport", "tau_coeff")], None, None),
    ("mms.cone", [("conecheck.mms", "cone")], None, None),
    ("mms.save_mms_json", [("conecheck.mms", "save_mms_json")], None, None),
    ("mms.load_mms_json", [("conecheck.mms", "load_mms_json"),
                           ("conecheck.transport", "load_mms_json")], None, None),
    ("mms.validate", [("conecheck.mms", "validate")], None, None),
    ("mms.warped_product", [("conecheck.mms", "warped_product")], None, None),
    ("mms.warped_product.dijkstra", [("conecheck.mms", "dijkstra")], _dijkstra_call, None),
    ("mms.suspension_check", [("conecheck.mms", "suspension_check")], None, None),
    ("spectral1d.discretize_fiber_operator",
     [("conecheck.spectral1d", "discretize_fiber_operator")], None, None),
    ("spectral1d.eigen", [("conecheck.spectral1d", "eigen")], _eigen_call, None),
    ("spectral1d.heat_semigroup_1d", [("conecheck.spectral1d", "heat_semigroup_1d")], None, None),
    ("spectral1d.bakry_ledoux_check", [("conecheck.spectral1d", "bakry_ledoux_check")], None, None),
    ("spectral1d.cone_spectrum", [("conecheck.spectral1d", "cone_spectrum")], None, None),
    ("gamma_calc.graph.curvature_dimension",
     [("conecheck.gamma_calc.graph", "curvature_dimension"),
      ("conecheck.gamma_calc", "curvature_dimension")], None, None),
    ("gamma_calc.graph.gamma2", [("conecheck.gamma_calc.graph", "gamma2"),
                                 ("conecheck.gamma_calc", "gamma2")], None, None),
    ("gamma_calc.graph.be_check", [("conecheck.gamma_calc.graph", "be_check"),
                                   ("conecheck.gamma_calc", "be_check")], None, None),
    ("gamma_calc.grid.gamma2_2d", [("conecheck.gamma_calc.grid", "gamma2_2d"),
                                   ("conecheck.gamma_calc", "gamma2_2d")], None, None),
    ("gamma_calc.grid.warped_gamma2_identity_check",
     [("conecheck.gamma_calc.grid", "warped_gamma2_identity_check"),
      ("conecheck.gamma_calc", "warped_gamma2_identity_check")], None, None),
    ("gamma_calc.grid.sharp_gamma2_estimate_check",
     [("conecheck.gamma_calc.grid", "sharp_gamma2_estimate_check"),
      ("conecheck.gamma_calc", "sharp_gamma2_estimate_check")], None, None),
]


def install(tracer: Tracer) -> None:
    for name, sites, on_call, on_return in LAYERS:
        tracer.wrap(name, sites, on_call, on_return)


def layer_metrics(tracer: Tracer) -> dict:
    """Layer figures of the one pass the tracer recorded."""
    selft = tracer.self_times()
    c = tracer.counts
    calls = c["transport.wasserstein2.calls"]
    out = {}

    def s(metric, span):
        out[metric] = (selft.get(span, 0.0), "s")

    def n(metric):
        out[metric] = (float(c[metric]), "count")

    s("transport.wasserstein2.s", "transport.wasserstein2")
    n("transport.wasserstein2.calls")
    s("transport.lp.s", "transport.lp")
    n("transport.lp.calls")
    n("transport.lp.vars")
    s("transport.certify.s", "transport.certify")
    out["transport.wasserstein2.distinct_ratio"] = (
        len(tracer.pairs) / calls if calls else 0.0, "ratio")
    out["transport.coupling_mb"] = (tracer.maxima["transport.coupling_mb"], "MB")
    s("transport.displacement_midpoint.s", "transport.displacement_midpoint")
    s("transport.renyi_entropy.s", "transport.renyi_entropy")
    s("mms.midpoints.s", "mms.midpoints")
    n("mms.midpoints.calls")
    s("model_fns.coeff.s", "model_fns.coeff")
    n("model_fns.coeff.calls")
    s("mms.cone.s", "mms.cone")
    s("mms.save_mms_json.s", "mms.save_mms_json")
    s("mms.load_mms_json.s", "mms.load_mms_json")
    s("mms.validate.s", "mms.validate")
    s("mms.warped_product.s", "mms.warped_product")
    s("mms.warped_product.dijkstra_s", "mms.warped_product.dijkstra")
    n("mms.warped_product.sources")
    s("mms.suspension_check.s", "mms.suspension_check")
    s("spectral1d.discretize_fiber_operator.s", "spectral1d.discretize_fiber_operator")
    s("spectral1d.eigen.s", "spectral1d.eigen")
    n("spectral1d.eigen.calls")
    n("spectral1d.eigen.modes")
    s("spectral1d.heat_semigroup_1d.s", "spectral1d.heat_semigroup_1d")
    n("spectral1d.heat_semigroup_1d.calls")
    s("spectral1d.bakry_ledoux_check.s", "spectral1d.bakry_ledoux_check")
    s("spectral1d.cone_spectrum.s", "spectral1d.cone_spectrum")
    s("gamma_calc.graph.curvature_dimension.s", "gamma_calc.graph.curvature_dimension")
    n("gamma_calc.graph.curvature_dimension.calls")
    n("gamma_calc.graph.gamma2.calls")
    s("gamma_calc.graph.be_check.s", "gamma_calc.graph.be_check")
    s("gamma_calc.grid.gamma2_2d.s", "gamma_calc.grid.gamma2_2d")
    n("gamma_calc.grid.gamma2_2d.calls")
    s("gamma_calc.grid.warped_gamma2_identity_check.s",
      "gamma_calc.grid.warped_gamma2_identity_check")
    s("gamma_calc.grid.sharp_gamma2_estimate_check.s",
      "gamma_calc.grid.sharp_gamma2_estimate_check")
    return out
