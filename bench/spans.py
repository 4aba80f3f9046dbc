"""In-memory span tracer for the traced benchmark run.

Wrappers installed around public maghom functions record one span per call:
name, start, end and the index of the enclosing span.  Counters are taken at
the same boundaries.  Time spent computing counters (for example the nonzero
count of a matrix handed to Smith normal form) is excluded from every span,
so the self times of all spans add up to the root span's duration.

A layer metric ``<module>.<what>_s`` is the summed self time (span duration
minus the time covered by child spans) of the functions mapped to it below.
The direct and geometric per-component route functions are counted, not
timed: their own small glue falls into the self time of the span that called
them.  The tree route is both counted and timed, as trees work.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

ROOT_SPAN = "cli.main"


class CoverageError(RuntimeError):
    """A traced function is missing, so its layer would silently read zero."""


def _count_snf(counts, args, result):
    a = args[0]
    counts["homology.snf_calls"] += 1
    counts["homology.snf_cells"] += a.rows * a.cols
    counts["homology.snf_nnz"] += sum(1 for row in a.to_lists() for x in row if x)
    counts["homology.snf_max_dim"] = max(counts["homology.snf_max_dim"], a.rows, a.cols)


def _count_basis(counts, args, result):
    counts["magnitude.basis_cells"] += sum(len(basis) for basis in result)


def _count_walks(counts, args, result):
    counts["graphs.walks"] += len(result)


def _count_summands(counts, args, result):
    counts["trees.summands"] += len(result)


def _count_simplices(counts, args, result):
    counts["geometric.simplices"] += len(result.total)


def _count_relative(counts, args, result):
    counts["simplicial.relative_cells"] += sum(
        result.dim(n) for n in range(result.top_degree + 1)
    )


def _count_spheres(counts, args, result):
    if result == "sphere":
        counts["trees.spheres"] += 1


# (module, function, time metric, counter)
TIMED = (
    ("maghom.homology", "smith_normal_form", "homology.snf_s", _count_snf),
    ("maghom.homology", "homology_all", "homology.homology_s", None),
    ("maghom.magnitude", "enumerate_basis", "magnitude.enumerate_s", _count_basis),
    ("maghom.magnitude", "magnitude_chain_complex", "magnitude.assemble_s", None),
    ("maghom.graphs", "enumerate_walks", "graphs.walks_s", _count_walks),
    ("maghom.trees", "decompose_tree_component", "trees.decompose_s", _count_summands),
    ("maghom.trees", "tree_homology_by_pair", "trees.decompose_s", None),
    ("maghom.geometric", "build_k_pair", "geometric.kpair_s", _count_simplices),
    ("maghom.geometric", "chain_map_t", "geometric.chainmap_s", None),
    ("maghom.geometric", "verify_chain_map", "geometric.verify_s", None),
    ("maghom.geometric", "cross_validate", "geometric.verify_s", None),
    ("maghom.simplicial", "SimplicialComplex.__init__", "simplicial.complex_s", None),
    ("maghom.simplicial", "relative_chain_complex", "simplicial.relative_s", _count_relative),
    ("maghom.report", "build_table", "report.table_s", None),
    ("maghom.report", "render_table", "report.render_s", None),
)

# Functions that compute one component (a, b, l) by one route.  A call that
# is not nested in another route call counts as one component computation.
ROUTES = (
    ("maghom.magnitude", "magnitude_homology_direct"),
    ("maghom.geometric", "magnitude_homology_geometric"),
    ("maghom.trees", "tree_homology_by_pair"),
)

COUNTED = (("maghom.trees", "classify_delta", _count_spheres),)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in TIMED)) + ("cli.self_s",)
COUNT_METRICS = (
    "homology.snf_calls", "homology.snf_cells", "homology.snf_nnz",
    "homology.snf_max_dim", "magnitude.basis_cells", "graphs.walks",
    "trees.summands", "trees.spheres", "geometric.simplices",
    "simplicial.relative_cells", "report.components",
)


def span_name(module_name, name):
    return f"{module_name.rsplit('.', 1)[-1]}.{name}"


class Tracer:
    """Spans and counters of one traced command."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self._paused = 0.0
        self._route_depth = 0
        self.counts = Counter()
        self.calls = Counter()

    def _now(self):
        return perf_counter() - self._paused

    def span(self, name, fn, *args, **kwargs):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[1] = self._now()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self._now()
            self._stack.pop()

    def wrap(self, kind, name, fn, hook):
        """A wrapper of fn: a timed span, a component route, or a plain count.

        Timed and counted wrappers count calls by name; a route wrapper counts
        a component only when no other route call encloses it.
        """
        if kind == "route":
            def wrapper(*args, **kwargs):
                if self._route_depth == 0:
                    self.counts["report.components"] += 1
                self._route_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._route_depth -= 1
            return wrapper

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if kind == "timed":
                result = self.span(name, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                t = perf_counter()
                hook(self.counts, args, result)
                self._paused += perf_counter() - t
            return result
        return wrapper

    def layer_metrics(self):
        """Per-layer metrics of this command; the root span is the CLI call."""
        duration = [end - start for _, start, end, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += duration[i]
        metric_of = {span_name(m, f): metric for m, f, metric, _ in TIMED}
        metric_of[ROOT_SPAN] = "cli.self_s"
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for i, (name, _, _, _) in enumerate(self.spans):
            out[metric_of[name]] += duration[i] - covered[i]
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        cells, summands = out["homology.snf_cells"], out["trees.summands"]
        out["homology.snf_density"] = out["homology.snf_nnz"] / cells if cells else 0.0
        out["trees.sphere_ratio"] = out["trees.spheres"] / summands if summands else 0.0
        out["trace.wall_s"] = duration[0]
        return out


def install(tracer):
    """Wrap every binding of the traced functions; returns the undo list.

    ``from .x import y`` leaves copies of y in other modules (cli, geometric,
    magnitude, trees and the package itself), so every maghom module namespace
    is searched for the original object.  Modules are looked up through
    importlib because ``maghom.homology`` as an attribute is the re-exported
    function, not the module.
    """
    plan = [(m, f, "timed", hook) for m, f, _, hook in TIMED]
    plan += [(m, f, "route", None) for m, f in ROUTES]
    plan += [(m, f, "counted", hook) for m, f, hook in COUNTED]
    modules = [module for name, module in list(sys.modules.items())
               if name == "maghom" or name.startswith("maghom.")]
    undo = []
    try:
        for module_name, name, kind, hook in plan:
            owner = importlib.import_module(module_name)
            if "." in name:
                # a method has one binding, on its class
                cls_name, attr = name.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, "__dict__", {}).get(attr)
                if original is None:
                    raise CoverageError(f"{module_name}.{name} is missing")
                bindings = [(cls, attr)]
            else:
                original = getattr(owner, name, None)
                if original is None:
                    raise CoverageError(f"{module_name}.{name} is missing")
                bindings = [(module, attr) for module in modules
                            for attr, value in vars(module).items() if value is original]
            wrapper = tracer.wrap(kind, span_name(module_name, name), original, hook)
            for target, attr in bindings:
                setattr(target, attr, wrapper)
                undo.append((target, attr, original))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo):
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)
