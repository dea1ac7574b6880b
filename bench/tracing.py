"""Spans and counters recorded from outside the crnbalance modules.

A ``Tracer`` wraps public functions of the package while it is installed.
A name imported with ``from .x import f`` is a separate reference in every
importing module, so installing replaces the function object everywhere it
is bound inside ``crnbalance`` (the defining module, the importers and the
package namespace); wrapping only the defining module would silently miss
the calls made through the other references.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions whose calls become spans; the layer of a
# metric is the module name.
TARGETS = {
    "kinetics": ("log_jacobian", "evaluate"),
    "equilibria": ("solve_equilibria", "linkage_decomposition_evidence", "kse_check",
                   "check_lp_property", "analyze_acb", "acb_verdict",
                   "sample_coset_counts", "poly_pl_equilibrated_check"),
    "decomposition": ("search_decompositions", "check_decomposition"),
    "rational": ("rref", "positive_kernel_vector"),
    "network": ("structural_invariants",),
    "kinetic_matrices": ("build_t_matrices",),
    "fileformat": ("parse_crn",),
    "report": ("dumps_report",),
    "cli": ("run_cli",),
    "transform": ("star_msc",),
}
# numpy.linalg.lstsq is called once per Newton step, and only there.
LSTSQ = "equilibria.lstsq"


def _count_solve(tracer: "Tracer", result) -> None:
    for key in ("attempts", "converged", "distinct"):
        tracer.counts[f"equilibria.{key}"] += int(result.diagnostics[key])


def _count_found(tracer: "Tracer", result) -> None:
    tracer.counts["decomposition.search_decompositions.found"] += len(result)


RESULT_COUNTERS = {
    "equilibria.solve_equilibria": _count_solve,
    "decomposition.search_decompositions": _count_found,
}


class Tracer:
    """In-memory spans (name, start, end, parent, item) and counters.

    ``inclusive`` adds a span's duration to its name only when no enclosing
    span has the same name, so recursion is not counted twice; ``self_s``
    is a span's duration minus the time its child spans cover.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.item = ""
        self._item_inclusive: dict[str, float] = defaultdict(float)
        self._item_self: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._child: list[float] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self._child.append(0.0)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._active[name] += 1
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        name, dur = span[0], end - span[1]
        self._stack.pop()
        self._active[name] -= 1
        if not self._active[name]:
            self._item_inclusive[name] += dur
        self._item_self[name] += dur - self._child[idx]
        if span[3] >= 0:
            self._child[span[3]] += dur

    def _wrap(self, name: str, fn):
        tracer = self
        on_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        homes = {name: importlib.import_module(f"crnbalance.{name}") for name in TARGETS}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "crnbalance" or key.startswith("crnbalance."))]
        for mod_name, funcs in TARGETS.items():
            home = homes[mod_name]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        self._patched.append((np.linalg, "lstsq", np.linalg.lstsq))
        np.linalg.lstsq = self._wrap(LSTSQ, np.linalg.lstsq)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------
    def summary(self) -> dict:
        return {"counts": dict(self.counts), "inclusive_s": dict(self.inclusive),
                "self_s": dict(self.self_s)}

    def end_item(self, scale: float = 1.0) -> None:
        """Add the current item's times to the totals, multiplied by ``scale``."""
        for name, value in self._item_inclusive.items():
            self.inclusive[name] += value * scale
        for name, value in self._item_self.items():
            self.self_s[name] += value * scale
        self._item_inclusive.clear()
        self._item_self.clear()

    def merge(self, summary: dict, spans: list, item: str) -> None:
        """Add a child process's totals to the current item, and its spans
        (re-parented in this list)."""
        for key, value in summary["counts"].items():
            self.counts[key] += value
        for key, value in summary["inclusive_s"].items():
            self._item_inclusive[key] += value
        for key, value in summary["self_s"].items():
            self._item_self[key] += value
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, item])
