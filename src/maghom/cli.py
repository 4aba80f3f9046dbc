"""Command-line interface: compute, check, and export.

Exit codes: 0 success, 2 usage or input error, 3 validation mismatch
between computation routes, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from contextlib import contextmanager
from pathlib import Path

from .geometric import build_k_pair, cross_validate, interior_length
from .graphs import (
    TOO_LONG,
    GraphError,
    InternalCheckError,
    generate,
    integer,
    is_generator_spec,
    parse_graph,
    random_connected_graph,
    refuse_long,
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
from .trees import build_delta_pair, decompose_tree_component, turning_points

EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4


@contextmanager
def _failures(run):
    """Exit 2 on GraphError or RecursionError, 4 on InternalCheckError; ``run``
    names the graph and length in the last two messages."""
    code = EXIT_USAGE
    try:
        yield
        return
    except GraphError as exc:
        message = exc
    except RecursionError:
        # basis and walk enumeration recurse once per step of a chain
        message = f"{run}: {TOO_LONG}"
    except InternalCheckError as exc:
        code, message = EXIT_INTERNAL, f"{run}: {exc}"
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _read_file(spec, missing):
    """The text of the regular file at ``spec``; GraphError(missing) if none.

    A leading UTF-8 byte-order mark is dropped.
    """
    try:
        if Path(spec).is_file():
            return Path(spec).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise GraphError(f"cannot read {spec!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GraphError(f"cannot read {spec!r}: not UTF-8 text ({exc.reason})") from None
    raise GraphError(missing)


def _load_graph(spec):
    if is_generator_spec(spec):
        return generate(spec)
    return parse_graph(_read_file(spec, f"not a builtin generator and not a file: {spec!r}"))


def _check_out(out):
    # --out must name a path in an existing directory and not a directory
    # itself (an existing one or one with a trailing separator), so that
    # nothing is written before a usage error
    parent = Path(out).parent
    try:
        if out.endswith((os.sep, "/")) or Path(out).is_dir():
            raise GraphError(f"--out names a directory: {out!r}")
        if not parent.is_dir():
            raise GraphError(f"--out directory does not exist: {str(parent)!r}")
    except OSError as exc:
        raise GraphError(f"cannot write {out!r}: {exc.strerror}") from None


def _parse_l_range(text):
    # ASCII digits only: int() alone also takes "1_0", "+4", " 4 " and
    # digits of other scripts, which the --l help does not promise
    if re.fullmatch(r"-[0-9]+", text):
        raise GraphError("--l must be nonnegative")
    match = re.fullmatch(r"([0-9]+)(?:-([0-9]+))?", text)
    if match is None:
        raise GraphError(f"--l expects an integer or a range like 3-5, got {text!r}")
    try:
        lo, hi = integer(match[1]), integer(match[2] or match[1])
    except ValueError:
        # the digits are well formed, so there are more than int() reads
        raise GraphError(f"--l has more than {sys.get_int_max_str_digits()} digits") from None
    if hi < lo:
        raise GraphError(f"empty --l range: {text!r}")
    # a range, not a tuple: a huge --l range costs nothing before it runs
    return range(lo, hi + 1)


def _parse_pair(text, g):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise GraphError(f'--pair expects "u,v", got {text!r}')
    g.index(parts[0]), g.index(parts[1])
    return (parts[0], parts[1])


def _write_files(texts):
    """Write each path's text, none if a path is a directory; GraphError names the path."""
    try:
        for path in texts:
            if path.is_dir():
                raise GraphError(f"cannot write {str(path)!r}: it is a directory")
        for path, text in texts.items():
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise GraphError(f"cannot write {str(path)!r}: {exc.strerror}") from None


def _random_trials(seed, trials, n_max, l_max):
    """(label, graph, l) of each random trial, drawn one at a time."""
    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        g = random_connected_graph(rng, n_max=n_max)
        l = rng.randint(3, l_max)
        yield f"trial {trial}/{trials}: n={g.num_vertices} e={g.num_edges}", g, l


def compute(graph_spec, l_spec, kmax, method, pair, types_path, out, fmt):
    """Compute magnitude homology groups of a graph."""
    with _failures(f"{graph_spec} l={l_spec}"):
        g = _load_graph(graph_spec)
        l_values = _parse_l_range(l_spec)
        pair = _parse_pair(pair, g) if pair else None
        if kmax is not None and kmax < 0:
            raise GraphError("--kmax must be nonnegative")
        refuse_long(f"{graph_spec} l={l_spec}", l_values[-1], kmax, "--kmax")
        if out is not None:
            _check_out(out)
        labeling = None
        if types_path:
            text = _read_file(types_path, f"labeling file not found: {types_path!r}")
            labeling = parse_pair_labeling(text, g)

        tables = []
        for l in l_values:
            table = build_table(g, l, kmax, method, pair=pair, graph_spec=graph_spec)
            if labeling is not None:
                table.apply_types(labeling)
            tables.append(table)
        if fmt == "structured":
            rendered = dump_json(report_document(tables, graph_spec, g, method))
        else:
            rendered = "\n".join(map(render_table, tables))
        if out:
            _write_files({Path(out): rendered})
        else:
            sys.stdout.write(rendered)


# the random-trial options of check; each parses to None unless given, so
# that --graph refuses even an explicit default
_TRIAL_DEFAULTS = {"trials": 20, "seed": 0, "n_max": 6, "l_max": 5}


def check(graph_spec, l_spec, **trial_options):
    """Cross-validate the geometric route against the direct route."""
    with _failures("check"):
        if l_spec is not None and graph_spec is None:
            raise GraphError("--l needs --graph; random trials draw l up to --l-max")
        if graph_spec is not None:
            for name in _TRIAL_DEFAULTS:
                if trial_options[name] is not None:
                    flag = "--" + name.replace("_", "-")
                    raise GraphError(f"{flag} applies to random trials, not to --graph")
            l_values = _parse_l_range(l_spec) if l_spec is not None else (3,)
            g = _load_graph(graph_spec)
            refuse_long(f"{graph_spec}: l={l_values[-1]}", l_values[-1])
            runs = ((f"{graph_spec}:", g, l) for l in l_values)
        else:
            trials, seed, n_max, l_max = (
                default if trial_options[name] is None else trial_options[name]
                for name, default in _TRIAL_DEFAULTS.items()
            )
            if trials < 0:
                raise GraphError("--trials must be nonnegative")
            if n_max < 2:
                raise GraphError(f"--n-max must be at least 2, got {n_max}")
            if l_max < 3:
                raise GraphError(f"--l-max must be at least 3, got {l_max}")
            if l_max > sys.getrecursionlimit():
                raise GraphError(
                    f"--l-max is past the recursion limit ({sys.getrecursionlimit()}), got {l_max}"
                )
            if trials == 0:
                print("warning: 0 trials requested, vacuous pass", file=sys.stderr)
                sys.exit(0)
            runs = _random_trials(seed, trials, n_max, l_max)

        for label, g, l in runs:
            with _failures(f"{label} l={l}"):
                report = cross_validate(g, l)
            # flushed, so that a piped check shows each run as it ends
            print(f"{label} {report.describe()}", flush=True)
            if not report.ok:
                print(f"counterexample: {report.mismatch.describe()}", file=sys.stderr)
                sys.exit(EXIT_MISMATCH)
        if graph_spec is None:
            print(f"{trials}/{trials} trials agree")


def export(graph_spec, l_spec, pair, out):
    """Export the geometric pair of one component for inspection."""
    with _failures(f"{graph_spec} l={l_spec}"):
        if not re.fullmatch(r"[0-9]+", l_spec):
            raise GraphError(f"export --l expects one nonnegative integer, got {l_spec!r}")
        l_value = _parse_l_range(l_spec)[0]
        g = _load_graph(graph_spec)
        a, b = _parse_pair(pair, g)
        _check_out(out)
        refuse_long(f"{graph_spec} l={l_spec}", l_value)
        key = ComponentKey(a, b, l_value)
        kpair = build_k_pair(g, key)
        if g.distances[a][b] > l_value:
            print(f"notice: d({a}, {b}) > {l_value}, the pair is empty", file=sys.stderr)

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
        # every file's text first, so that a bad path leaves nothing written
        texts = {Path(f"{out}.pair.json"): dump_json(doc)}
        for name, complex_ in (("total", total), ("sub", sub)):
            if complex_.dim > 3:
                print(
                    f"notice: {name} complex has dimension {complex_.dim} > 3, "
                    f"skipping OFF export", file=sys.stderr,
                )
                continue
            texts[Path(f"{out}.{name}.off")] = complex_to_off(complex_)

        if g.is_tree():
            records = []
            for walk in decompose_tree_component(g, key):
                phi = turning_points(walk)
                total, sub = build_delta_pair(phi, l_value)
                records.append(
                    {
                        "walk": list(walk),
                        "turning_points": list(phi),
                        "total": complex_to_dict(total),
                        "sub": complex_to_dict(sub),
                    }
                )
            texts[Path(f"{out}.deltas.json")] = dump_json(
                {"format_version": 1, "components": records}
            )

        _write_files(texts)
        for path in texts:
            print(f"wrote {path}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maghom", description="Integer magnitude homology of finite connected graphs.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    stand_ins = {}  # each command's "--option=" for every option it requires

    def command(name, run, summary):
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        sub.set_defaults(run=run)

        def option(flag, **kwargs):
            if kwargs.get("required"):
                stand_ins.setdefault(name, []).append(f"{flag}=")
            sub.add_argument(flag, **kwargs)
        return option

    graph_help = ("Builtin generator spec (sq2, path:n, cycle:n, complete:n, star:n, "
                  "random-tree:n:seed) or a graph file path.")
    option = command("compute", compute, "Compute magnitude homology groups of a graph.")
    option("--graph", dest="graph_spec", metavar="SPEC", required=True, help=graph_help)
    option("--l", dest="l_spec", metavar="L", required=True,
           help="Length parameter: an integer or a range like 3-5.")
    option("--kmax", type=integer, metavar="K",
           help="Highest homology degree to report (default: l).")
    option("--method", choices=["auto", "geometric", "direct", "tree"], default="auto",
           help="Route that computes the groups (default: auto).")
    option("--pair", metavar="U,V", help='Restrict to one ordered pair "u,v".')
    option("--types", dest="types_path", metavar="FILE",
           help="JSON labeling file grouping pairs into symmetry types.")
    option("--out", metavar="FILE", help="Write output to this file instead of stdout.")
    option("--format", dest="fmt", choices=["table", "structured"], default="table",
           help="Output format (default: table).")

    option = command("check", check, "Cross-validate the geometric route against the direct route.")
    option("--graph", dest="graph_spec", metavar="SPEC",
           help="Check one specific graph instead of random ones.")
    option("--l", dest="l_spec", metavar="L",
           help="Length or range like 3-5 for --graph (default: 3); "
                "random trials draw l up to --l-max.")
    option("--trials", type=integer, metavar="N",
           help=f"Number of random graphs (default: {_TRIAL_DEFAULTS['trials']}).")
    option("--seed", type=integer, metavar="N",
           help=f"Seed of the random graphs (default: {_TRIAL_DEFAULTS['seed']}).")
    option("--n-max", type=integer, metavar="N",
           help=f"Largest random graph size (default: {_TRIAL_DEFAULTS['n_max']}).")
    option("--l-max", type=integer, metavar="L",
           help=f"Largest random length parameter (default: {_TRIAL_DEFAULTS['l_max']}).")

    option = command("export", export, "Export the geometric pair of one component for inspection.")
    option("--graph", dest="graph_spec", metavar="SPEC", required=True, help=graph_help)
    option("--l", dest="l_spec", metavar="L", required=True, help="Length parameter: one integer.")
    option("--pair", metavar="U,V", required=True, help='Ordered pair "u,v".')
    option("--out", metavar="STEM", required=True,
           help="Output path stem; writes <stem>.pair.json plus OFF files.")
    return parser, stand_ins


# built once, at import: building it runs argparse's gettext lookups, which
# import locale, and that cost belongs to start-up rather than to the command
_PARSER, _STAND_INS = _build_parser()


def _attach_values(argv):
    """argv with "--option value" as "--option=value" where value begins with "-".

    Every maghom option takes one value, but argparse reads a value that
    begins with "-" (``--l -1-3``, ``--pair -a,b``) as another option, so it
    would never reach the check that names what is wrong with it.
    """
    attached = []
    for token in argv:
        if (token.startswith("-") and attached and attached[-1] != "--help"
                and re.fullmatch(r"--[a-z-]+", attached[-1])):
            attached[-1] += "=" + token
        else:
            attached.append(token)
    return attached


def main(args=None, prog_name=None):
    """Run one maghom command on ``args`` (default: ``sys.argv[1:]``).

    Exits 2 on a usage error; ``prog_name`` is accepted and ignored, the
    program is always named maghom.
    """
    argv = _attach_values(sys.argv[1:] if args is None else args)
    # argparse checks for missing options before it reports unknown ones, so
    # a misspelt --gra would read as a missing --graph: a first parse, with
    # every required option given after the command name, names them first
    stand_ins = _STAND_INS.get(argv[0], []) if argv else []
    unknown = _PARSER.parse_known_args(argv[:1] + stand_ins + argv[1:])[1]
    if unknown:
        _PARSER.error(f"unrecognized arguments: {' '.join(unknown)}")
    options = vars(_PARSER.parse_args(argv))
    options.pop("run")(**options)


# bench/worker.py calls main.main(args=..., prog_name=...), the form click's
# entry point had
main.main = main


if __name__ == "__main__":
    main()
