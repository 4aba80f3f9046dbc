"""Result tables: per-pair groups, optional type grouping, totals, rendering.

Human-readable tables put degrees on rows (like the reference rank tables);
the structured JSON form always records the per-pair groups so that nothing
is lost by aggregation.  All output is a pure function of the inputs, so
reruns are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .geometric import magnitude_homology_geometric
from .graphs import pair_orbits
from .homology import direct_sum
from .magnitude import ComponentKey, magnitude_homology_direct
from .trees import tree_homology_by_pair

FORMAT_VERSION = 1


@dataclass
class MagnitudeTable:
    """Magnitude homology of one graph at one length, all ordered pairs."""

    graph_spec: str
    l: int
    kmax: int
    method: str
    pair_keys: list = field(default_factory=list)
    pair_groups: dict = field(default_factory=dict)
    type_labels: list | None = None
    type_groups: dict | None = None

    def group(self, a, b, k):
        return self.pair_groups[(a, b)][k]

    def totals(self):
        """Componentwise direct sum over all pairs, one group per degree."""
        return [
            direct_sum(self.pair_groups[key][k] for key in self.pair_keys)
            for k in range(self.kmax + 1)
        ]

    def type_totals(self, label):
        groups = self.type_groups[label]
        return [groups[k] for k in range(self.kmax + 1)]

    def apply_types(self, labeling):
        """Group pairs by a labeling dict mapping (a, b) tuples to labels.

        The labeling must cover every ordered pair.  Label order follows
        first appearance in the labeling.
        """
        missing = [key for key in self.pair_keys if key not in labeling]
        if missing:
            a, b = missing[0]
            raise ValueError(f"labeling does not cover pair ({a}, {b})")
        labels = []
        for key in labeling:
            if labeling[key] not in labels:
                labels.append(labeling[key])
        self.type_labels = labels
        self.type_groups = {
            label: [
                direct_sum(
                    self.pair_groups[key][k]
                    for key in self.pair_keys
                    if labeling[key] == label
                )
                for k in range(self.kmax + 1)
            ]
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
    the routes.
    """
    if kmax is None:
        kmax = l
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
        table.pair_keys.append(key)
        if key == rep:
            table.pair_groups[key] = route(g, ComponentKey(*key, l), kmax)
        else:
            table.pair_groups[key] = list(table.pair_groups[rep])
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
    if table.type_labels is not None:
        header = ["k"] + table.type_labels + ["total"]
        columns = [table.type_totals(label) for label in table.type_labels]
    elif len(table.pair_keys) == 1:
        a, b = table.pair_keys[0]
        header = ["k", f"({a},{b})"]
        columns = [table.pair_groups[(a, b)]]
    else:
        header = ["k", "total"]
        columns = []
    totals = table.totals()
    rows = []
    for k in range(table.kmax + 1):
        row = [f"k={k}"] + [col[k].short() for col in columns]
        if table.type_labels is not None or not columns:
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
                "groups": [
                    _group_record(k, group)
                    for k, group in enumerate(table.pair_groups[(a, b)])
                ],
            }
            for a, b in table.pair_keys
        ],
        "totals": [_group_record(k, group) for k, group in enumerate(table.totals())],
    }
    if table.type_labels is not None:
        doc["types"] = [
            {
                "label": label,
                "groups": [
                    _group_record(k, group)
                    for k, group in enumerate(table.type_totals(label))
                ],
            }
            for label in table.type_labels
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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_pair_labeling(text, g):
    """Parse a --types labeling file: JSON mapping "u,v" keys to labels.

    Requires complete coverage of all ordered vertex pairs and known
    vertices; returns a dict keyed by (a, b) tuples preserving file order.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid labeling file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("labeling file must be a JSON object")
    labeling = {}
    for key, label in doc.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ValueError(f'labeling key {key!r} is not of the form "u,v"')
        a, b = parts[0].strip(), parts[1].strip()
        g.index(a), g.index(b)
        if not isinstance(label, str):
            raise ValueError(f"label for {key!r} must be a string")
        labeling[(a, b)] = label
    for a in g.vertices:
        for b in g.vertices:
            if (a, b) not in labeling:
                raise ValueError(f"labeling does not cover pair ({a}, {b})")
    return labeling
