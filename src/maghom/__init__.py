"""Integer magnitude homology of finite connected graphs.

The package computes the bigraded groups MH_{k,l} of a graph three ways: a
direct chain-complex route that works for every degree, a geometric route
through relative simplicial pairs (degrees k >= 2), and a closed form for
trees.  The routes are kept independent so they can cross-validate each
other; all linear algebra is exact over the integers.
``build_table`` runs one route on one component per symmetry orbit of
ordered vertex pairs and copies the groups to the rest of the orbit.
"""

from .geometric import (
    CrossValidationReport,
    KPair,
    build_k_pair,
    cross_validate,
    magnitude_homology_geometric,
)
from .graphs import (
    Graph,
    GraphError,
    InternalCheckError,
    enumerate_walks,
    generate,
    parse_graph,
    random_connected_graph,
    sq2_pair_types,
)
from .homology import HomologyGroup
from .magnitude import ComponentKey, magnitude_homology_direct
from .report import (
    MagnitudeTable,
    build_table,
    dump_json,
    parse_pair_labeling,
    render_table,
    report_document,
)
from .trees import tree_homology_by_pair, tree_magnitude_closed_form

__version__ = "0.1.0"

__all__ = [
    "build_k_pair",
    "build_table",
    "ComponentKey",
    "cross_validate",
    "CrossValidationReport",
    "dump_json",
    "enumerate_walks",
    "generate",
    "Graph",
    "GraphError",
    "HomologyGroup",
    "InternalCheckError",
    "KPair",
    "magnitude_homology_direct",
    "magnitude_homology_geometric",
    "MagnitudeTable",
    "parse_graph",
    "parse_pair_labeling",
    "random_connected_graph",
    "render_table",
    "report_document",
    "sq2_pair_types",
    "tree_homology_by_pair",
    "tree_magnitude_closed_form",
]
