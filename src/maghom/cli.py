"""Command-line interface: compute, check, and export.

Exit codes: 0 success, 2 usage or input error, 3 validation mismatch
between computation routes, 4 internal consistency failure.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from .geometric import InternalCheckError, build_k_pair, cross_validate, interior_length
from .graphs import (
    GraphError,
    generate,
    is_generator_spec,
    parse_graph,
    random_connected_graph,
)
from .magnitude import ComponentKey
from .report import (
    build_table,
    dump_json,
    parse_pair_labeling,
    render_table,
    report_document,
)
from .simplicial import complex_to_dict, complex_to_off
from .trees import build_delta_pair, decompose_tree_component, tree_magnitude_closed_form

EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class RunConfig:
    """Validated run options shared by the commands.

    Construction enforces the numeric invariants and that the --out
    directory exists, so nothing is written before a usage error;
    graph-dependent checks (pair membership, tree input for the tree
    method) happen after the graph is loaded.
    """

    graph_spec: str | None
    l_values: tuple = ()
    kmax: int | None = None
    method: str = "auto"
    pair: tuple | None = None
    out: str | None = None
    fmt: str = "table"
    seed: int | None = None
    trials: int | None = None
    n_max: int | None = None

    def __post_init__(self):
        for l in self.l_values:
            if l < 0:
                raise GraphError("--l must be nonnegative")
            if self.method in ("geometric", "tree") and l < 3:
                raise GraphError(f"method {self.method} needs l >= 3, got l={l}")
        if self.kmax is not None and self.kmax < 0:
            raise GraphError("--kmax must be nonnegative")
        if self.trials is not None and self.trials < 0:
            raise GraphError("--trials must be nonnegative")
        if self.n_max is not None and self.n_max < 2:
            raise GraphError(f"--n-max must be at least 2, got {self.n_max}")
        if self.out is not None:
            parent = Path(self.out).parent
            if not parent.is_dir():
                raise GraphError(f"--out directory does not exist: {str(parent)!r}")


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_graph(spec):
    if is_generator_spec(spec):
        return generate(spec)
    path = Path(spec)
    if not path.exists():
        raise GraphError(f"not a builtin generator and not a file: {spec!r}")
    return parse_graph(path.read_text(encoding="utf-8"))


def _parse_l_range(text):
    parts = text.split("-", 1) if "-" in text.strip().lstrip("-") else [text]
    try:
        if len(parts) == 1:
            value = int(text)
            return (value,)
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"--l expects an integer or a range like 3-5, got {text!r}") from None
    if hi < lo:
        raise GraphError(f"empty --l range: {text!r}")
    return tuple(range(lo, hi + 1))


def _parse_pair(text, g):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise GraphError(f'--pair expects "u,v", got {text!r}')
    g.index(parts[0]), g.index(parts[1])
    return (parts[0], parts[1])


def _write_output(text, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Integer magnitude homology of finite connected graphs."""


@main.command()
@click.option("--graph", "graph_spec", required=True,
              help="Builtin generator spec (sq2, path:n, cycle:n, complete:n, "
                   "star:n, random-tree:n:seed) or a graph file path.")
@click.option("--l", "l_spec", required=True,
              help="Length parameter: an integer or a range like 3-5.")
@click.option("--kmax", type=int, default=None,
              help="Highest homology degree to report (default: l).")
@click.option("--method", type=click.Choice(["auto", "geometric", "direct", "tree"]),
              default="auto", show_default=True)
@click.option("--pair", default=None, help='Restrict to one ordered pair "u,v".')
@click.option("--types", "types_path", type=click.Path(), default=None,
              help="JSON labeling file grouping pairs into symmetry types.")
@click.option("--out", default=None, help="Write output to this file instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["table", "structured"]),
              default="table", show_default=True)
def compute(graph_spec, l_spec, kmax, method, pair, types_path, out, fmt):
    """Compute magnitude homology groups of a graph."""
    try:
        g = _load_graph(graph_spec)
        cfg = RunConfig(
            graph_spec=graph_spec,
            l_values=_parse_l_range(l_spec),
            kmax=kmax,
            method=method,
            pair=_parse_pair(pair, g) if pair else None,
            out=out,
            fmt=fmt,
        )
        labeling = None
        if types_path:
            path = Path(types_path)
            if not path.exists():
                raise GraphError(f"labeling file not found: {types_path!r}")
            labeling = parse_pair_labeling(path.read_text(encoding="utf-8"), g)
        if cfg.method == "tree" and not g.is_tree():
            raise GraphError("method tree needs a tree input")
    except (GraphError, ValueError) as exc:
        _fail(EXIT_USAGE, exc)

    tables = []
    try:
        for l in cfg.l_values:
            table = build_table(
                g, l, cfg.kmax, cfg.method, pair=cfg.pair, graph_spec=graph_spec
            )
            if labeling is not None:
                table.apply_types(labeling)
            if table.method == "tree" and cfg.pair is None:
                _check_tree_totals(g, table)
            tables.append(table)
    except InternalCheckError as exc:
        _fail(EXIT_INTERNAL, exc)

    if cfg.fmt == "structured":
        doc = report_document(tables, graph_spec, g, cfg.method, seed=None)
        _write_output(dump_json(doc), cfg.out)
    else:
        text = "\n".join(render_table(t, graph_label=graph_spec) for t in tables)
        _write_output(text, cfg.out)


def _check_tree_totals(g, table):
    # the per-walk decomposition must reproduce the closed form
    totals = table.totals()
    for k in range(3, table.kmax + 1):
        if table.l >= 3:
            expected = tree_magnitude_closed_form(g, table.l, k)
            if totals[k] != expected:
                raise InternalCheckError(
                    f"tree totals disagree with the closed form at k={k}: "
                    f"{totals[k].describe()} vs {expected.describe()}"
                )


@main.command()
@click.option("--graph", "graph_spec", default=None,
              help="Check one specific graph instead of random ones.")
@click.option("--l", "l_spec", default=None,
              help="Length (or range) to check; random per trial when omitted.")
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n-max", type=int, default=6, show_default=True,
              help="Largest random graph size.")
@click.option("--l-max", type=int, default=5, show_default=True,
              help="Largest random length parameter.")
def check(graph_spec, l_spec, trials, seed, n_max, l_max):
    """Cross-validate the geometric route against the direct route."""
    try:
        cfg = RunConfig(
            graph_spec=graph_spec,
            l_values=_parse_l_range(l_spec) if l_spec else (),
            method="geometric" if graph_spec else "auto",
            seed=seed,
            trials=trials,
            n_max=n_max,
        )
        if graph_spec is not None:
            g = _load_graph(graph_spec)
            l_values = cfg.l_values or (3,)
            for l in l_values:
                if l < 3:
                    raise GraphError(f"check needs l >= 3, got l={l}")
        elif trials == 0:
            click.echo("warning: 0 trials requested, vacuous pass", err=True)
            sys.exit(0)
    except (GraphError, ValueError) as exc:
        _fail(EXIT_USAGE, exc)

    try:
        if graph_spec is not None:
            for l in l_values:
                report = cross_validate(g, l, chain_level=True)
                click.echo(f"{graph_spec}: {report.describe()}")
                if not report.ok:
                    sys.exit(EXIT_MISMATCH)
            sys.exit(0)

        rng = random.Random(seed)
        for trial in range(1, trials + 1):
            g = random_connected_graph(rng, n_min=2, n_max=n_max)
            l = rng.randint(3, max(3, l_max))
            report = cross_validate(g, l, chain_level=True)
            click.echo(
                f"trial {trial}/{trials}: n={g.num_vertices} e={g.num_edges} "
                f"{report.describe()}"
            )
            if not report.ok:
                click.echo(f"counterexample: {report.mismatch.describe()}", err=True)
                sys.exit(EXIT_MISMATCH)
        click.echo(f"{trials}/{trials} trials agree")
    except InternalCheckError as exc:
        _fail(EXIT_INTERNAL, exc)


@main.command()
@click.option("--graph", "graph_spec", required=True)
@click.option("--l", "l_value", type=int, required=True)
@click.option("--pair", required=True, help='Ordered pair "u,v".')
@click.option("--out", required=True,
              help="Output path stem; writes <stem>.pair.json plus OFF files.")
def export(graph_spec, l_value, pair, out):
    """Export the geometric pair of one component for inspection."""
    try:
        g = _load_graph(graph_spec)
        a, b = _parse_pair(pair, g)
        if l_value < 3:
            raise GraphError(f"export needs l >= 3, got l={l_value}")
        cfg = RunConfig(graph_spec=graph_spec, l_values=(l_value,), out=out)
    except (GraphError, ValueError) as exc:
        _fail(EXIT_USAGE, exc)

    key = ComponentKey(a, b, l_value)
    kpair = build_k_pair(g, key)
    if g.distance(a, b) > l_value:
        click.echo(
            f"notice: d({a}, {b}) > {l_value}, the pair is empty", err=True
        )

    def annotate(simplex):
        return {"interior_length": interior_length(g, key, simplex)}

    stem = Path(cfg.out)
    doc = {
        "format_version": 1,
        "graph": graph_spec,
        "a": a,
        "b": b,
        "l": l_value,
        "total": complex_to_dict(kpair.total, annotate=annotate),
        "sub": complex_to_dict(kpair.sub, annotate=annotate),
    }
    paths = [stem.with_suffix(".pair.json")]
    paths[0].write_text(dump_json(doc), encoding="utf-8")

    for name, complex_ in (("total", kpair.total), ("sub", kpair.sub)):
        path = stem.with_suffix(f".{name}.off")
        if complex_.dim > 3:
            click.echo(
                f"notice: {name} complex has dimension {complex_.dim} > 3, "
                f"skipping OFF export", err=True,
            )
            continue
        path.write_text(complex_to_off(complex_), encoding="utf-8")
        paths.append(path)

    if g.is_tree() and l_value >= 3:
        records = []
        for component in decompose_tree_component(g, key):
            delta = build_delta_pair(component, l_value)
            records.append(
                {
                    "walk": list(component.walk),
                    "turning_points": list(component.phi),
                    "total": complex_to_dict(delta.total, include_all=False),
                    "sub": complex_to_dict(delta.sub, include_all=False),
                }
            )
        path = stem.with_suffix(".deltas.json")
        path.write_text(
            dump_json({"format_version": 1, "components": records}), encoding="utf-8"
        )
        paths.append(path)

    for path in paths:
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
