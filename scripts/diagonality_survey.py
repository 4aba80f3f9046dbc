#!/usr/bin/env python3
"""Survey which small graphs have diagonal magnitude homology.

A graph is diagonal when MH_{k,l} vanishes for every k != l.  Trees,
complete graphs and the 4-cycle come out diagonal; the longer cycles and
sq2 do not.  The script computes
totals for each family member over a length range and prints one row per
(graph, l) with the off-diagonal degrees that carry homology.

Usage:
    python scripts/diagonality_survey.py [--l-max 4] [--specs path:3 cycle:5 ...]
"""

import argparse
import sys

from maghom import build_table, generate

DEFAULT_SPECS = [
    "path:3", "path:5",
    "star:5",
    "random-tree:7:2",
    "cycle:4", "cycle:5", "cycle:6", "cycle:7",
    "complete:3", "complete:4",
    "sq2",
]


def survey(spec, l, kmax=None):
    g = generate(spec)
    table = build_table(g, l, kmax, "direct")
    totals = table.totals()
    off = {k: h for k, h in enumerate(totals) if k != l and h.betti + len(h.torsion) > 0}
    return totals, off


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--l-max", type=int, default=4)
    parser.add_argument("--specs", nargs="*", default=DEFAULT_SPECS,
                        help="builtin generator specs to survey")
    args = parser.parse_args(argv)

    width = max(len(s) for s in args.specs) + 2
    print(f"{'graph':<{width}}{'l':>3}  diagonal  off-diagonal entries")
    verdicts = {}
    for spec in args.specs:
        for l in range(2, args.l_max + 1):
            totals, off = survey(spec, l)
            flat = ", ".join(f"k={k}: {h.describe()}" for k, h in off.items()) or "-"
            diagonal = "yes" if not off else "no"
            verdicts.setdefault(spec, []).append(not off)
            print(f"{spec:<{width}}{l:>3}  {diagonal:<9} {flat}")
    print()
    always = [s for s, flags in verdicts.items() if all(flags)]
    print(f"diagonal at every surveyed l: {', '.join(always) if always else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
