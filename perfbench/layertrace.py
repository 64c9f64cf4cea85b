"""Per-layer call counts and self times, recorded from outside the program.

``Tracer`` replaces each traced loccwork function with a timing wrapper
under every module attribute that holds it.  That matters because ``locc``,
``workbounds`` and ``ensembles`` import ``qstate`` functions by name: patching
``qstate`` alone would miss their calls.  A function's self time is its
wrapper's wall time minus the wall time of traced calls nested inside it.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict

# Functions reported one by one, as <module>.<function>.calls / .self_s.
FUNCTIONS = {
    "qstate": ("apply_kraus_vector", "reduced_density", "von_neumann_entropy",
               "apply_two_site_vector"),
    "locc": ("execute", "protocol_work", "refine_rank_one"),
    "workbounds": ("w_local", "eg_alternating", "eg_bruteforce", "product_overlap"),
    "lab": ("run_scaling", "run_tail", "work_report"),
    "cli": ("cli_main",),
}
# Functions reported as one figure per module.
GROUPS = {
    "ensembles": ("sample_haar", "sample_circuit", "sample_subset", "graph_state",
                  "subset_state"),
    "graphs": ("adjacency_upper", "gen_random_graph", "gen_lattice", "caro_wei_bound",
               "greedy_independent_set", "max_independent_set_bruteforce", "save_graph",
               "load_graph"),
}
# Counts read from return values, summed per pass (branch bytes: maximum).
COUNTERS = ("locc.leaves", "locc.branch_bytes_max", "lab.rows", "lab.tail_samples")
COMPLEX_BYTES = 16
PACKAGE = "loccwork"


def _record_tree(counts: dict, tree) -> None:
    leaves = len(tree.leaves)
    counts["locc.leaves"] += leaves
    # Computed, not measured: one dense complex vector per leaf.
    size = leaves * tree.input_state.dim * COMPLEX_BYTES
    counts["locc.branch_bytes_max"] = max(counts["locc.branch_bytes_max"], size)


def _record_rows(counts: dict, rows) -> None:
    counts["lab.rows"] += len(rows)


def _record_tail(counts: dict, rows) -> None:
    counts["lab.tail_samples"] += rows[0].samples if rows else 0


HOOKS = {
    "locc.execute": _record_tree,
    "lab.run_scaling": _record_rows,
    "lab.run_tail": _record_tail,
}


class Tracer:
    """Install with ``with tracer.installed():``; each pass ends with ``end_pass``."""

    def __init__(self) -> None:
        self._stack: list = []
        self._calls = defaultdict(int)
        self._self = defaultdict(float)
        self._counts = defaultdict(int)
        self.passes: list = []
        self._originals = {}
        for module, names in list(FUNCTIONS.items()) + list(GROUPS.items()):
            mod = sys.modules[f"{PACKAGE}.{module}"]
            for name in names:
                # A renamed function raises here rather than reading 0.
                fn = getattr(mod, name)
                key = f"{module}.{name}"
                self._originals[id(fn)] = (fn, self._wrap(key, fn, HOOKS.get(key)))

    def _wrap(self, key: str, fn, hook):
        stack, calls, self_time, counts = self._stack, self._calls, self._self, self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                nested = stack.pop()
                calls[key] += 1
                self_time[key] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    @staticmethod
    def _modules() -> list:
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def _swap(self, to_wrapper: bool) -> None:
        lookup = {}
        for original, wrapper in self._originals.values():
            src, dst = (original, wrapper) if to_wrapper else (wrapper, original)
            lookup[id(src)] = dst
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if id(value) in lookup:
                    setattr(mod, name, lookup[id(value)])

    @contextlib.contextmanager
    def installed(self):
        """Route every traced name to its wrapper for the duration."""
        self._swap(True)
        try:
            yield self
        finally:
            self._swap(False)

    def end_pass(self) -> None:
        """Store this pass's figures and reset the accumulators."""
        self.passes.append(dict(calls=dict(self._calls),
                                self_s=dict(self._self), counts=dict(self._counts)))
        self._calls.clear()
        self._self.clear()
        self._counts.clear()

    def metrics(self, traced_pass_s: float, untraced_pass_s: float, traced_wall_s: float) -> dict:
        """Per-layer metrics: medians over traced passes (counts repeat exactly),
        the traced and untraced pass times scaled to the nominal host speed,
        and each layer's wall self time as a share of the traced pass's wall
        time."""

        def med(get) -> float:
            return statistics.median(get(p) for p in self.passes)

        out = {}
        layer_self = defaultdict(float)
        for module, names in FUNCTIONS.items():
            for name in names:
                key = f"{module}.{name}"
                out[f"{key}.calls"] = (med(lambda p: p["calls"].get(key, 0)), "count")
                self_s = med(lambda p: p["self_s"].get(key, 0.0))
                out[f"{key}.self_s"] = (self_s, "s")
                layer_self[module] += self_s
        for module, names in GROUPS.items():
            keys = [f"{module}.{name}" for name in names]
            self_s = med(lambda p: sum(p["self_s"].get(k, 0.0) for k in keys))
            calls = med(lambda p: sum(p["calls"].get(k, 0) for k in keys))
            if module == "ensembles":
                out["ensembles.draw.self_s"] = (self_s, "s")
                out["ensembles.states"] = (calls, "count")
            else:
                out[f"{module}.self_s"] = (self_s, "s")
            layer_self[module] += self_s
        for name in COUNTERS:
            unit = "B_computed" if name.endswith("_bytes_max") else "count"
            out[name] = (med(lambda p: p["counts"].get(name, 0)), unit)
        out["trace.pass_s"] = (traced_pass_s, "s")
        out["trace.untraced_pass_s"] = (untraced_pass_s, "s")
        out["trace.overhead_pct"] = (100.0 * (traced_pass_s / untraced_pass_s - 1.0), "%")
        out["trace.pass_wall_s"] = (traced_wall_s, "s")
        for module, total in layer_self.items():
            out[f"{module}.share_pct"] = (100.0 * total / traced_wall_s, "%")
        return out
