#!/usr/bin/env python3
"""Reproduce the sq2 rank table at l = 4 by both computation routes.

Prints the per-type table (eight symmetry classes of ordered vertex pairs),
checks that the direct and geometric routes agree on every component, and
optionally writes the structured report plus the pair-type labeling file.

Usage:
    python scripts/reproduce_sq2.py [--out-dir DIR]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from maghom import (
    build_table,
    dump_json,
    generate,
    render_table,
    report_document,
    sq2_pair_types,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="also write report JSON and the labeling file here")
    args = parser.parse_args(argv)

    g = generate("sq2")
    labeling = {tuple(k.split(",")): v for k, v in sq2_pair_types().items()}

    tables = {}
    for method in ("direct", "geometric"):
        start = time.monotonic()
        table = build_table(g, 4, 4, method, graph_spec="sq2")
        table.apply_types(labeling)
        elapsed = time.monotonic() - start
        tables[method] = table
        print(f"--- method={method} ({elapsed:.2f}s)")
        print(render_table(table, graph_label="sq2"))

    direct, geometric = tables["direct"], tables["geometric"]
    disagreements = [
        (a, b, k)
        for (a, b) in direct.pair_keys
        for k in range(5)
        if direct.group(a, b, k) != geometric.group(a, b, k)
    ]
    if disagreements:
        print(f"routes disagree on {len(disagreements)} entries: {disagreements[:5]}")
        return 1
    print("direct and geometric routes agree on all 36 components")

    totals = [h.betti for h in direct.totals()]
    print(f"totals by degree: {totals} (expected [0, 0, 0, 12, 112])")

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        report_path = args.out_dir / "sq2_l4_report.json"
        report_path.write_text(
            dump_json(report_document([direct], "sq2", g, "direct"))
        )
        labeling_path = args.out_dir / "sq2_types.json"
        labeling_path.write_text(json.dumps(sq2_pair_types(), indent=2) + "\n")
        print(f"wrote {report_path} and {labeling_path}")

    return 0 if totals == [0, 0, 0, 12, 112] else 1


if __name__ == "__main__":
    sys.exit(main())
