"""The oracles in ``oracles.py`` stay independent of the package they check.

They read no distance table or neighbour lookup of ``Graph`` (the metric is
their own breadth-first search over the edge list), and they import from
the package only the containers they hand results in, the random graph draw
of ``maghom check`` and ``relative_chain_complex``, which the fixture
builders ``chain_complex`` and ``pair_chain_complex`` call.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
METRIC_NAMES = {"distances", "distance_rows", "distance", "neighbors"}
PACKAGE_NAMES = {"Graph", "random_connected_graph", "IntegerMatrix", "relative_chain_complex"}


def oracle_tree():
    return ast.parse(ORACLES.read_text(), filename=str(ORACLES))


def test_oracles_read_no_production_metric():
    # getattr(g, "distances") is a read too, so string constants count
    reads = [
        (node.lineno, node.attr if isinstance(node, ast.Attribute) else node.value)
        for node in ast.walk(oracle_tree())
        if isinstance(node, ast.Attribute) and node.attr in METRIC_NAMES
        or isinstance(node, ast.Constant) and node.value in METRIC_NAMES
    ]
    assert reads == []


def test_oracles_import_only_containers_from_the_package():
    allowed, refused = [], []
    for node in ast.walk(oracle_tree()):
        if isinstance(node, ast.Import):
            # a whole module would reach every name in it
            refused += [alias.name for alias in node.names if alias.name.split(".")[0] == "maghom"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "maghom":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                (allowed if alias.name in PACKAGE_NAMES else refused).append(name)
    assert allowed, "the guard found no package import to check"
    assert refused == []
