"""Command-line interface: compute, check, and export.

Exit codes: 0 success, 2 usage or input error, 3 validation mismatch
between computation routes, 4 internal consistency failure.
"""

from __future__ import annotations

import os
import random
import re
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from .geometric import build_k_pair, cross_validate, interior_length
from .graphs import (
    GraphError,
    InternalCheckError,
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
from .simplicial import SimplicialComplex, complex_to_dict, complex_to_off
from .trees import build_delta_pair, decompose_tree_component

EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_file(spec, missing):
    """The text of the regular file at ``spec``; GraphError(missing) if none."""
    try:
        if Path(spec).is_file():
            return Path(spec).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphError(f"cannot read {spec!r}: {exc.strerror}") from None
    raise GraphError(missing)


def _load_graph(spec):
    if is_generator_spec(spec):
        return generate(spec)
    return parse_graph(_read_file(spec, f"not a builtin generator and not a file: {spec!r}"))


def _check_lengths(l_values, method):
    for l in l_values:
        if method in ("geometric", "tree") and l < 3:
            raise GraphError(f"method {method} needs l >= 3, got l={l}")


def _check_out(out):
    # --out must name a path in an existing directory and not a directory
    # itself (an existing one or one with a trailing separator), so that
    # nothing is written before a usage error
    if out.endswith((os.sep, "/")) or Path(out).is_dir():
        raise GraphError(f"--out names a directory: {out!r}")
    parent = Path(out).parent
    if not parent.is_dir():
        raise GraphError(f"--out directory does not exist: {str(parent)!r}")


def _parse_l_range(text):
    # ASCII digits only: int() alone also takes "1_0", "+4", " 4 " and
    # digits of other scripts, which the --l help does not promise
    if re.fullmatch(r"-[0-9]+", text):
        raise GraphError("--l must be nonnegative")
    match = re.fullmatch(r"([0-9]+)(?:-([0-9]+))?", text)
    if match is None:
        raise GraphError(f"--l expects an integer or a range like 3-5, got {text!r}")
    lo, hi = int(match[1]), int(match[2] or match[1])
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
        l_values = _parse_l_range(l_spec)
        pair = _parse_pair(pair, g) if pair else None
        _check_lengths(l_values, method)
        if kmax is not None and kmax < 0:
            raise GraphError("--kmax must be nonnegative")
        if out is not None:
            _check_out(out)
        labeling = None
        if types_path:
            text = _read_file(types_path, f"labeling file not found: {types_path!r}")
            labeling = parse_pair_labeling(text, g)
        if method == "tree" and not g.is_tree():
            raise GraphError("method tree needs a tree input")
    except (GraphError, ValueError) as exc:
        _fail(EXIT_USAGE, exc)

    tables = []
    try:
        for l in l_values:
            table = build_table(g, l, kmax, method, pair=pair, graph_spec=graph_spec)
            if labeling is not None:
                table.apply_types(labeling)
            tables.append(table)
    except InternalCheckError as exc:
        _fail(EXIT_INTERNAL, f"{graph_spec}: {exc}")

    if fmt == "structured":
        _write_output(dump_json(report_document(tables, graph_spec, g, method)), out)
    else:
        _write_output("\n".join(map(render_table, tables)), out)


@main.command()
@click.option("--graph", "graph_spec", default=None,
              help="Check one specific graph instead of random ones.")
@click.option("--l", "l_spec", default=None,
              help="Length or range like 3-5 for --graph (default: 3); "
                   "random trials draw l up to --l-max.")
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n-max", type=int, default=6, show_default=True,
              help="Largest random graph size.")
@click.option("--l-max", type=int, default=5, show_default=True,
              help="Largest random length parameter.")
def check(graph_spec, l_spec, trials, seed, n_max, l_max):
    """Cross-validate the geometric route against the direct route."""
    try:
        if l_spec is not None and graph_spec is None:
            raise GraphError("--l needs --graph; random trials draw l up to --l-max")
        if graph_spec is not None:
            ctx = click.get_current_context()
            for name in ("trials", "seed", "n_max", "l_max"):
                if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE:
                    flag = "--" + name.replace("_", "-")
                    raise GraphError(f"{flag} applies to random trials, not to --graph")
            l_values = _parse_l_range(l_spec) if l_spec is not None else (3,)
            _check_lengths(l_values, "geometric")
            g = _load_graph(graph_spec)
        elif trials < 0:
            raise GraphError("--trials must be nonnegative")
        elif n_max < 2:
            raise GraphError(f"--n-max must be at least 2, got {n_max}")
        elif l_max < 3:
            raise GraphError(f"--l-max must be at least 3, got {l_max}")
        elif trials == 0:
            click.echo("warning: 0 trials requested, vacuous pass", err=True)
            sys.exit(0)
    except (GraphError, ValueError) as exc:
        _fail(EXIT_USAGE, exc)

    try:
        if graph_spec is not None:
            for l in l_values:
                report = cross_validate(g, l)
                click.echo(f"{graph_spec}: {report.describe()}")
                if not report.ok:
                    sys.exit(EXIT_MISMATCH)
            sys.exit(0)

        rng = random.Random(seed)
        for trial in range(1, trials + 1):
            g = random_connected_graph(rng, n_min=2, n_max=n_max)
            l = rng.randint(3, l_max)
            report = cross_validate(g, l)
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
        _check_out(out)
    except (GraphError, ValueError) as exc:
        _fail(EXIT_USAGE, exc)

    key = ComponentKey(a, b, l_value)
    kpair = build_k_pair(g, key)
    if g.distance(a, b) > l_value:
        click.echo(
            f"notice: d({a}, {b}) > {l_value}, the pair is empty", err=True
        )

    # the only consumer of whole complexes: wrapping validates downward closure
    total = SimplicialComplex(kpair.labels, kpair.total)
    sub = SimplicialComplex(kpair.labels, kpair.sub)

    def annotate(simplex):
        return {"interior_length": interior_length(g, key, simplex)}

    doc = {
        "format_version": 1,
        "graph": graph_spec,
        "a": a,
        "b": b,
        "l": l_value,
        "total": complex_to_dict(total, annotate=annotate),
        "sub": complex_to_dict(sub, annotate=annotate),
    }
    paths = [Path(f"{out}.pair.json")]
    paths[0].write_text(dump_json(doc), encoding="utf-8")

    for name, complex_ in (("total", total), ("sub", sub)):
        path = Path(f"{out}.{name}.off")
        if complex_.dim > 3:
            click.echo(
                f"notice: {name} complex has dimension {complex_.dim} > 3, "
                f"skipping OFF export", err=True,
            )
            continue
        path.write_text(complex_to_off(complex_), encoding="utf-8")
        paths.append(path)

    if g.is_tree():
        records = []
        for component in decompose_tree_component(g, key):
            total, sub = build_delta_pair(component, l_value)
            records.append(
                {
                    "walk": list(component.walk),
                    "turning_points": list(component.phi),
                    "total": complex_to_dict(total, include_all=False),
                    "sub": complex_to_dict(sub, include_all=False),
                }
            )
        path = Path(f"{out}.deltas.json")
        path.write_text(
            dump_json({"format_version": 1, "components": records}), encoding="utf-8"
        )
        paths.append(path)

    for path in paths:
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
