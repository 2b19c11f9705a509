"""In-memory spans around the calls the benchmark makes into each qwndo layer.

The tracer replaces module attributes with timing wrappers; it never edits the
package. Callers inside qwndo resolve these attributes at call time (for
example `training.minimize_vector` calls `_grad_from_eval` through the module
globals), so the wrappers see every call. A traced name that no longer exists
raises instead of reporting zeros.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from qwndo import kernels, maxlik, measurement, metrics, ndo, training, walk

# layer name -> (owner, attribute)
LAYERS = {
    "walk.evolve": (walk, "evolve"),
    "measurement.all_basis_unitaries": (measurement, "all_basis_unitaries"),
    "measurement.generate_dataset": (measurement, "generate_dataset"),
    "metrics.fidelity": (metrics, "fidelity"),
    "ndo.evaluate": (ndo, "evaluate"),
    "kernels.pair_cache": (kernels, "pair_cache"),
    "kernels.assemble_jacobian": (kernels, "assemble_jacobian"),
    "training.model_distributions": (training, "model_distributions"),
    "training.grad": (training, "_grad_from_eval"),
    "training.gram": (training, "gram"),
    "training.solve_metric": (training, "solve_metric"),
    "training.gradient_fallback": (training, "_gradient_fallback"),
    "maxlik.grad": (maxlik._MaxlikObjective, "grad"),
}
# maxlik imports minimize_vector by name, so both bindings are wrapped.
OPTIMIZER_LOOPS = ((training, "minimize_vector"), (maxlik, "minimize_vector"))
LINE_SEARCH = (training, "_armijo")

TERMINATIONS = {"grad_tol": "grad_tol", "max_iters": "max_iters",
                "line-search failure": "line_search_failure"}
COUNTERS = (
    "training.gram.flops",  # 2 d^2 P (P+1) per call, from the Jacobian's shape
    "kernels.assemble_jacobian.bytes",  # 16 d^2 P per call, the complex Jacobian
    "training.iterations",
    "training.linesearch.trials",
    "training.linesearch.accepted",
    *("training.termination." + t for t in TERMINATIONS.values()),
)
SPAN_NAMES = (*LAYERS, "training.minimize_vector", "training.linesearch")


class Tracer:
    """Spans (name, start, end, parent) and counters, kept until `dump`."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.spans[idx]
            self.spans[idx] = (name, start, time.perf_counter(), parent)

    def _wrap(self, owner, attr: str, make) -> None:
        if not hasattr(owner, attr):
            raise AttributeError(
                f"traced name {getattr(owner, '__name__', owner)}.{attr} no longer exists; "
                "update perfbench/tracing.py"
            )
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _timed(self, name: str, orig, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = orig(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every traced layer; raises AttributeError if one is missing."""
        extra = {
            "training.gram": self._count_gram_flops,
            "kernels.assemble_jacobian": self._count_jacobian_bytes,
        }
        for name, (owner, attr) in LAYERS.items():
            self._wrap(owner, attr, lambda orig, n=name: self._timed(n, orig, extra.get(n)))
        for owner, attr in OPTIMIZER_LOOPS:
            self._wrap(owner, attr, lambda orig: self._timed(
                "training.minimize_vector", orig, self._count_report))
        self._wrap(*LINE_SEARCH, self._line_search)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _count_gram_flops(self, args, out) -> None:
        rows, cols = args[0].shape  # (d^2, P) complex -> rank-2d^2 update
        self.counts["training.gram.flops"] += 2 * rows * cols * (cols + 1)

    def _count_jacobian_bytes(self, args, out) -> None:
        self.counts["kernels.assemble_jacobian.bytes"] += out.nbytes

    def _count_report(self, args, out) -> None:
        report = out[1]
        self.counts["training.iterations"] += report.iterations
        self.counts["training.termination." + TERMINATIONS[report.termination]] += 1

    def _line_search(self, orig):
        def armijo(fun, *args, **kwargs):
            def trial(x):
                self.counts["training.linesearch.trials"] += 1
                return fun(x)

            with self.span("training.linesearch"):
                res = orig(trial, *args, **kwargs)
            if res is not None:
                self.counts["training.linesearch.accepted"] += 1
            return res

        return armijo

    def layer_stats(self) -> dict[str, float]:
        """calls, total_s and self_s per span name (zero if never called), plus the counters."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats: dict[str, float] = {}
        for name in SPAN_NAMES:
            stats.update({name + ".calls": 0, name + ".total_s": 0.0, name + ".self_s": 0.0})
        for (name, start, end, _), kids in zip(self.spans, child_s):
            stats[name + ".calls"] = stats.get(name + ".calls", 0) + 1
            stats[name + ".total_s"] = stats.get(name + ".total_s", 0.0) + (end - start)
            stats[name + ".self_s"] = stats.get(name + ".self_s", 0.0) + (end - start - kids)
        stats.update(self.counts)
        return stats

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
            fh.write("\n")
