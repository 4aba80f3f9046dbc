"""Result tables: per-pair groups, optional type grouping, totals, rendering.

Human-readable tables put degrees on rows (like the reference rank tables);
the structured JSON form always records the per-pair groups so that nothing
is lost by aggregation.  All output is a pure function of the inputs, so
reruns are byte-identical.
"""

from __future__ import annotations

from .geometric import magnitude_homology_geometric
from .graphs import GraphError, InternalCheckError, pair_orbits, refuse_long
from .homology import _Value, direct_sum
from .magnitude import ComponentKey, magnitude_homology_direct
from .trees import tree_homology_by_pair, tree_magnitude_closed_form

FORMAT_VERSION = 1


class MagnitudeTable(_Value):
    """Magnitude homology of one graph at one length, all ordered pairs.

    ``pair_groups`` maps each pair, in row-major order, to its groups in
    degrees 0..kmax; ``type_groups``, once ``apply_types`` ran, maps each
    label, in first-appearance order, to the direct sums over its pairs.
    """

    def __init__(self, graph_spec, l, kmax, method, pair_groups=None, type_groups=None):
        self.graph_spec = graph_spec
        self.l = l
        self.kmax = kmax
        self.method = method
        self.pair_groups = {} if pair_groups is None else pair_groups
        self.type_groups = type_groups

    def _fields(self):
        return (self.graph_spec, self.l, self.kmax, self.method,
                self.pair_groups, self.type_groups)

    def _sum_by_degree(self, pairs):
        """The direct sum of the groups of ``pairs`` in each degree 0..kmax."""
        return [direct_sum(self.pair_groups[pair][k] for pair in pairs)
                for k in range(self.kmax + 1)]

    def totals(self):
        """Componentwise direct sum over all pairs, one group per degree."""
        return self._sum_by_degree(self.pair_groups)

    def apply_types(self, labeling):
        """Group pairs by a labeling dict mapping (a, b) tuples to labels.

        The labeling must cover every computed pair (GraphError otherwise).
        Only the labels of computed pairs get a column, in order of first
        appearance in the labeling.
        """
        missing = next((key for key in self.pair_groups if key not in labeling), None)
        if missing:
            raise GraphError(f"labeling does not cover pair ({missing[0]}, {missing[1]})")
        labels = dict.fromkeys(labeling[key] for key in labeling if key in self.pair_groups)
        self.type_groups = {
            label: self._sum_by_degree([key for key in self.pair_groups if labeling[key] == label])
            for label in labels
        }


def build_table(g, l, kmax=None, method="auto", pair=None, graph_spec=None):
    """Magnitude homology of a graph at length l, one route for every component.

    ``method`` is "direct", "geometric", "tree" or "auto"; auto picks the
    tree route on trees and the geometric route otherwise when l >= 3, and
    the direct route below that.  ``table.method`` records the route that
    ran.  ``kmax`` defaults to l; ``pair`` restricts the table to a single
    ordered pair.

    The route runs once per orbit of ordered pairs under the graph's
    isometries and reversal (``pair_orbits``); every other pair gets a copy
    of its representative's groups.  ``cross_validate``, behind
    ``maghom check``, still solves every component, because it verifies
    the routes.  A whole tree table is checked against the closed form in
    degrees 1..kmax; a disagreement raises InternalCheckError.  An l or
    kmax past the recursion limit raises GraphError before any work.
    """
    if kmax is None:
        kmax = l
    refuse_long(f"{graph_spec or repr(g)} l={l}", l, kmax)
    if method == "auto":
        method = "direct" if l < 3 else "tree" if g.is_tree() else "geometric"
    # the route functions are looked up here, at call time, so that
    # wrappers installed on the module attributes see every call
    if method == "direct":
        route = magnitude_homology_direct
    elif method == "geometric":
        route = magnitude_homology_geometric
    elif method == "tree":
        route = tree_homology_by_pair
    else:
        raise ValueError(f"unknown method: {method!r}")
    table = MagnitudeTable(
        graph_spec=graph_spec or repr(g), l=l, kmax=kmax, method=method
    )
    orbits = {pair: pair} if pair is not None else pair_orbits(g)
    for key, rep in orbits.items():
        if key == rep:
            table.pair_groups[key] = route(g, ComponentKey(*key, l), kmax)
        else:
            table.pair_groups[key] = list(table.pair_groups[rep])
    if method == "tree" and pair is None:
        # the per-walk decomposition must reproduce the closed form
        totals = table.totals()
        for k in range(1, kmax + 1):
            expected = tree_magnitude_closed_form(g, l, k)
            if totals[k] != expected:
                raise InternalCheckError(
                    f"tree totals disagree with the closed form at k={k}: "
                    f"{totals[k].describe()} vs {expected.describe()}"
                )
    return table


# -- text rendering -----------------------------------------------------------


def _render_grid(header, rows):
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    lines = []
    for row in [header] + rows:
        lines.append(
            "  ".join(str(cell).rjust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def render_table(table):
    """Human-readable table: one row per degree k.

    Columns are the type labels when a type grouping was applied, the single
    pair when the table was restricted, and just the totals otherwise.
    """
    title = (
        f"magnitude homology  graph={table.graph_spec}  "
        f"l={table.l}  kmax={table.kmax}  method={table.method}"
    )
    if table.type_groups is not None:
        header = ["k", *table.type_groups, "total"]
        columns = list(table.type_groups.values())
    elif len(table.pair_groups) == 1:
        [((a, b), groups)] = table.pair_groups.items()
        header = ["k", f"({a},{b})"]
        columns = [groups]
    else:
        header = ["k", "total"]
        columns = []
    totals = table.totals()
    rows = []
    for k in range(table.kmax + 1):
        row = [f"k={k}"] + [col[k].short() for col in columns]
        if table.type_groups is not None or not columns:
            row.append(totals[k].short())
        rows.append(row)
    return title + "\n" + _render_grid(header, rows) + "\n"


# -- structured reports ---------------------------------------------------------


def _group_record(k, group):
    return {"k": k, "betti": group.betti, "torsion": list(group.torsion)}


def table_to_dict(table):
    doc = {
        "l": table.l,
        "kmax": table.kmax,
        "method": table.method,
        "components": [
            {
                "a": a,
                "b": b,
                "groups": [_group_record(k, group) for k, group in enumerate(groups)],
            }
            for (a, b), groups in table.pair_groups.items()
        ],
        "totals": [_group_record(k, group) for k, group in enumerate(table.totals())],
    }
    if table.type_groups is not None:
        doc["types"] = [
            {
                "label": label,
                "groups": [_group_record(k, group) for k, group in enumerate(groups)],
            }
            for label, groups in table.type_groups.items()
        ]
    return doc


def report_document(tables, graph_spec, g, method):
    """The versioned structured report for one or more lengths."""
    from . import __version__

    return {
        "format_version": FORMAT_VERSION,
        "tool": {"name": "maghom", "version": __version__},
        "graph": {
            "spec": graph_spec,
            "vertices": list(g.vertices),
            "edge_count": g.num_edges,
        },
        "method": method,
        "seed": None,  # reports come from deterministic runs
        "results": [table_to_dict(table) for table in tables],
    }


def dump_json(doc):
    """Deterministic JSON serialization (stable key order, trailing newline)."""
    import json

    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_pair_labeling(text, g):
    """Parse a --types labeling file: JSON mapping "u,v" keys to labels.

    Requires complete coverage of all ordered vertex pairs, known vertices
    and each pair named once (GraphError otherwise); returns a dict keyed by
    (a, b) tuples preserving file order.
    """
    import json

    try:
        # objects as tuples of (key, value) in file order, so that a repeated
        # key is kept and seen; arrays stay lists
        doc = json.loads(text, object_pairs_hook=tuple)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"invalid labeling file: {exc}") from None
    if not isinstance(doc, tuple):
        raise GraphError("labeling file must be a JSON object")
    labeling = {}
    for key, label in doc:
        parts = key.split(",")
        if len(parts) != 2:
            raise GraphError(f'labeling key {key!r} is not of the form "u,v"')
        a, b = parts[0].strip(), parts[1].strip()
        g.index(a), g.index(b)
        if not isinstance(label, str):
            raise GraphError(f"label for {key!r} must be a string")
        if (a, b) in labeling:
            raise GraphError(f"labeling names pair ({a}, {b}) twice")
        labeling[(a, b)] = label
    for a in g.vertices:
        for b in g.vertices:
            if (a, b) not in labeling:
                raise GraphError(f"labeling does not cover pair ({a}, {b})")
    return labeling
