"""Per-layer tracing of the randic package, installed from outside it.

Each traced function is replaced, under every name a randic module binds it
to, by a wrapper that records one span: its metric name, start, end, parent
span and request id.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the durations of its direct children; calls are
strictly nested because the workloads are single-threaded.

Modules are resolved with ``importlib.import_module``: the package attribute
``randic.spectra`` is the ``spectra()`` function, not the module, so patching
through the package namespace would silently wrap nothing.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# function name -> span name, per defining module.  Private helpers are listed
# where the scan path calls them directly instead of the public verifiers.
LAYER_FUNCTIONS = {
    "randic.graphs": {
        "_connected_masks": "graphs.enumerate",
        "subdivision": "graphs.subdivision",
        "parse_graph6": "graphs.graph6",
        "encode_graph6": "graphs.graph6",
    },
    "randic.spectra": {
        "randic_matrix": "spectra.build",
        "normalized_laplacian": "spectra.build",
        "normalized_signless_laplacian": "spectra.build",
        "randic_energy": "spectra.energy",
        "energy_of": "spectra.energy",
    },
    "randic.linalg": {
        "symmetric_eigenvalues": "linalg.eig",
        "charpoly_from_eigenvalues": "linalg.charpoly",
        "substitute_quadratic": "linalg.charpoly",
        "coefficient_residual": "linalg.charpoly",
        "product_over_roots": "linalg.product",
        "cluster_distinct": "linalg.cluster",
    },
    "randic.identities": {
        "verify_subdivision_charpoly": "identities.charpoly",
        "_charpoly_residuals": "identities.charpoly",
        "verify_eigenvalue_correspondence": "identities.correspondence",
        "_correspondence_residual": "identities.correspondence",
        "verify_subdivision_energy": "identities.energy",
        "_energy_residuals": "identities.energy",
        "verify_k_distinct_identity": "identities.identity",
        "classify_distinct_count": "identities.classification",
        "is_strongly_regular": "identities.classification",
        "verify_local_conditions": "identities.local",
        "local_condition_residuals": "identities.local",
        "scan_small_graphs": "identities",
        "_scan_range": "identities",
        "_scan_one": "identities",
    },
    "randic.cli": {"main": "cli"},
}

EIG_BUCKETS = ((1, 8), (9, 16), (17, 32), (33, 64), (65, 128))
COUNT_UNITS = ("count", "ratio", "n3_computed")  # metrics that must repeat exactly

# span names reported with a call count, and with a self time
_CALLS = ("linalg.charpoly", "linalg.product", "linalg.cluster", "spectra.build",
          "graphs.subdivision", "graphs.graph6")
_SELF = _CALLS + ("spectra.energy", "identities.charpoly", "identities.correspondence",
                  "identities.energy", "identities.identity", "identities.classification",
                  "identities.local", "identities", "cli")


def _randic_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "randic" or name.startswith("randic."))]


def _eig_digest(args, kwargs) -> tuple[int, str]:
    m = args[0] if args else kwargs["m"]
    a = np.ascontiguousarray(m, dtype=np.float64)
    return a.shape[0], hashlib.blake2b(a.tobytes(), digest_size=12).hexdigest()


class Tracer:
    """Install with ``install()``, run the workload, then ``uninstall()``.

    ``clock`` returns the time in seconds that spans are measured in.

    ``request`` is set by the workload before each request so that spans of
    one request share an id.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # (id, parent id or -1, name, request, t0, t1, self seconds, attrs)
        self.spans: list[tuple] = []
        self.request = -1
        self.masks = 0  # edge masks handed to the enumerator
        self.enumerated = 0  # connected graphs it yielded
        self.missing: list[str] = []
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._patched: list[tuple] = []  # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, name: str, t0: float, t1: float, attrs) -> None:
        self._stack.pop()
        dur = t1 - t0
        parent = -1
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][0]
        self.spans.append((frame[0], parent, name, self.request, t0, t1, dur - frame[1], attrs))

    def _wrap(self, fn, name: str):
        tracer = self
        if name == "graphs.enumerate":
            def traced_masks(n, start, stop):
                # one span per next(), so enumeration time is not charged
                # to whatever the caller does between graphs
                it = fn(n, start, stop)
                tracer.masks += stop - start
                while True:
                    frame = tracer._enter()
                    t0 = tracer.clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._leave(frame, name, t0, tracer.clock(), None)
                        return
                    tracer._leave(frame, name, t0, tracer.clock(), None)
                    tracer.enumerated += 1
                    yield item
            return traced_masks

        def traced(*args, **kwargs):
            attrs = _eig_digest(args, kwargs) if name == "linalg.eig" else None
            frame = tracer._enter()
            t0 = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(frame, name, t0, tracer.clock(), attrs)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        homes = {name: importlib.import_module(name) for name in LAYER_FUNCTIONS}
        modules = _randic_modules()
        for module_name, table in LAYER_FUNCTIONS.items():
            home = homes[module_name]
            for fname, span in table.items():
                fn = getattr(home, fname, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{fname}")
                    continue
                wrapper = self._wrap(fn, span)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, fn = self._patched.pop()
            setattr(mod, attr, fn)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, graphs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every span recorded so far.

        ``graphs`` is the number of graphs the workload checked, the base of
        ``linalg.eig.calls_per_graph``.
        """
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        eig_bucket = [0.0] * len(EIG_BUCKETS)
        eig_digests: set[str] = set()
        n3_sum = 0
        for _id, _parent, name, _req, _t0, _t1, own, attrs in self.spans:
            calls[name] += 1
            self_s[name] += own
            if name == "linalg.eig":
                order, digest = attrs
                eig_digests.add(digest)
                n3_sum += order ** 3
                for i, (lo, hi) in enumerate(EIG_BUCKETS):
                    if lo <= order <= hi:
                        eig_bucket[i] += own
        eig_calls = calls["linalg.eig"]
        out: dict[str, tuple[float, str]] = {
            "linalg.eig.self_s": (self_s["linalg.eig"], "s"),
        }
        for (lo, hi), value in zip(EIG_BUCKETS, eig_bucket):
            out[f"linalg.eig.self_s.n{lo}-{hi}"] = (value, "s")
        out["linalg.eig.calls"] = (eig_calls, "count")
        out["linalg.eig.calls_per_graph"] = (eig_calls / graphs if graphs else 0.0, "ratio")
        out["linalg.eig.unique_ratio"] = (
            len(eig_digests) / eig_calls if eig_calls else 0.0, "ratio")
        out["linalg.eig.n3_sum"] = (n3_sum, "n3_computed")
        out["linalg.eig.ns_per_n3"] = (
            self_s["linalg.eig"] * 1e9 / n3_sum if n3_sum else 0.0, "ns/n3")
        for name in _CALLS:
            out[f"{name}.calls"] = (calls[name], "count")
        for name in _SELF:
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["graphs.enumerate.graphs"] = (self.enumerated, "count")
        out["graphs.enumerate.masks"] = (self.masks, "count")
        out["graphs.enumerate.connected_ratio"] = (
            self.enumerated / self.masks if self.masks else 0.0, "ratio")
        out["graphs.enumerate.self_s"] = (self_s["graphs.enumerate"], "s")
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, parent id, name, request,
        start, end, self seconds and attributes."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
