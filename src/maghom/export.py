"""The files of ``maghom export``: one component's K pair, and a tree's walk pairs.

Only the export command imports this module, from inside the command, so a
compute or check run loads none of it.  For a key (a, b, l) the command
writes K and K' with each simplex's interior length (``<stem>.pair.json``),
each of them in OFF format up to dimension 3 (``<stem>.total.off``,
``<stem>.sub.off``) and, on a tree, every walk of l steps with its turning
points and its pair on positions 1..l-1 (``<stem>.deltas.json``).  K' is
taken by its definition, the simplices of K of interior length at most
l - 1; wrapping K and K' in ``SimplicialComplex`` checks both are closed.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .geometric import build_k_pair
from .report import dump_json
from .simplicial import SimplicialComplex, downward_closure
from .trees import decompose_tree_component, turning_points


def interior_length(g, key, simplex):
    """Total length of the endpoint-closed vertex tuple of a simplex of K."""
    closed = (key.a, *[v for _, v in simplex], key.b)
    return sum(g.distances[x][y] for x, y in zip(closed, closed[1:]))


def pair_complexes(g, key):
    """(K, K', lengths): the pair of one component and the interior length of each simplex of K."""
    kpair = build_k_pair(g, key)
    lengths = {s: interior_length(g, key, s) for s in kpair.total}
    labels = kpair.labels[1:-1]
    total = SimplicialComplex(labels, lengths)
    sub = SimplicialComplex(labels, [s for s, length in lengths.items() if length <= key.l - 1])
    return total, sub, lengths


def build_delta_pair(phi, l):
    """The full simplex on positions 1..l-1 and its faces missing a turning point.

    ``phi`` is the walk's turning-point tuple.  Returned as the pair (total,
    sub); total is the downward closure of the simplex of all positions,
    empty at l <= 1.  The relative basis in degree n is the set of
    (n+1)-subsets of positions containing every turning point; reading those
    positions from the walk and closing with the endpoints is exactly the
    per-walk magnitude basis two degrees up.
    """
    positions = list(range(1, l))
    required = set(phi)
    total = SimplicialComplex(positions, downward_closure([positions]))
    sub = SimplicialComplex(positions, [s for s in total if not required <= set(s)])
    return total, sub


def complex_to_dict(complex_, annotate=None):
    """Structured form of a complex for serialization, labels and simplices as tuples.

    With ``annotate``, a function from a simplex to a dict of extra fields,
    the form also lists every simplex, each record carrying those fields.
    """
    doc = {
        "format_version": 1,
        "label_universe": complex_.labels,
        "dim": complex_.dim,
        "maximal_simplices": complex_.maximal_simplices(),
    }
    if annotate is not None:
        doc["simplices"] = [{"labels": s, **annotate(s)} for s in complex_]
    return doc


def complex_to_off(complex_):
    """Render a complex of dimension <= 3 on (position, vertex) labels in OFF format.

    Each vertex is drawn at x = its position and y = the rank of its vertex
    among the vertices in first-appearance order.  The face list contains
    every triangle plus any maximal edge or vertex, so that nothing silently
    disappears from the rendering.
    """
    if complex_.dim > 3:
        raise ValueError(f"OFF export supports dimension <= 3, got {complex_.dim}")
    verts = [s[0] for s in complex_.simplices_of_dim(0)]
    vertex_line = {lab: i for i, lab in enumerate(verts)}
    layer_of = {v: i for i, v in enumerate(dict.fromkeys(v for _, v in verts))}

    faces = complex_.simplices_of_dim(2)
    faces.extend(s for s in complex_.maximal_simplices() if len(s) <= 2)
    edge_count = len(complex_.simplices_of_dim(1))

    lines = ["OFF", f"{len(verts)} {len(faces)} {edge_count}"]
    for lab in verts:
        pos, v = lab
        lines.append(f"{pos:g} {layer_of[v]:g} 0  # {lab!r}")
    for s in faces:
        lines.append(" ".join([str(len(s))] + [str(vertex_line[lab]) for lab in s]))
    return "\n".join(lines) + "\n"


def export_texts(g, graph_spec, key, stem):
    """The text of every file that ``maghom export`` writes for ``key``, by path.

    Prints a notice on stderr for an empty pair and for each complex that
    is too high-dimensional for OFF.
    """
    a, b, l = key
    total, sub, lengths = pair_complexes(g, key)
    if g.distances[a][b] > l:
        print(f"notice: d({a}, {b}) > {l}, the pair is empty", file=sys.stderr)

    def annotate(simplex):
        return {"interior_length": lengths[simplex]}

    doc = {"format_version": 1, "graph": graph_spec, "a": a, "b": b, "l": l,
           "total": complex_to_dict(total, annotate=annotate),
           "sub": complex_to_dict(sub, annotate=annotate)}
    texts = {Path(f"{stem}.pair.json"): dump_json(doc)}
    for name, complex_ in (("total", total), ("sub", sub)):
        if complex_.dim > 3:
            print(f"notice: {name} complex has dimension {complex_.dim} > 3, "
                  "skipping OFF export", file=sys.stderr)
            continue
        texts[Path(f"{stem}.{name}.off")] = complex_to_off(complex_)

    if g.is_tree():
        records = []
        for walk in decompose_tree_component(g, key):
            phi = turning_points(walk)
            total, sub = build_delta_pair(phi, l)
            records.append({"walk": walk, "turning_points": phi,
                            "total": complex_to_dict(total), "sub": complex_to_dict(sub)})
        texts[Path(f"{stem}.deltas.json")] = dump_json({"format_version": 1, "components": records})
    return texts
