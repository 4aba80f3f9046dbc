"""maghom benchmark: the CLI entry point on four fixed workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload sq2-direct --seed 1 --seconds 30 --trace 0

Commands run one at a time (closed loop, one client, single thread) for
``--seconds`` seconds, each in a fresh worker interpreter that calls
``maghom.cli.main`` with ``PYTHONPATH=src``.  Every command's exit code and
stdout are checked against the answers pinned in ``workloads.json``.  The
last stdout line is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``:

* ``--trace 0``: wall_s (median command time), setup_s (median time from
  spawning a worker until it has imported ``maghom.cli``) and peak_rss_mb
  (median over the workers of their peak resident memory).  Both times are
  scaled to the machine's speed, measured by the reference load of
  reference.py in the same worker (see there): other tenants of the machine
  change how fast it runs Python by up to 1.6x within seconds, and an
  unscaled time measures them more than the code.
* ``--trace 1``: per-layer self times and counts from spans.py, taken from
  the traced command with the median wall time, plus the tracing overhead.

The workloads are fixed inputs, so every ``--seed`` runs the same work; the
seeds inside the workloads (``check --seed``, ``random-tree:14:<seed>``) are
chosen with ``--workload-seed dev|heldout``, each with its own pinned answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170


def machine_notes():
    """Python and click versions, CPU count and model, load at start."""
    try:
        click_version = metadata.version("click")
    except metadata.PackageNotFoundError:
        click_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "click": click_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(job, env, timeout):
    """One command in a fresh worker; adds the worker's set-up seconds."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "imported" in result:
        result["setup"] = result["imported"] - spawned
    return result


def output_problems(text, answer):
    """Differences between one command's stdout and the pinned answer."""
    problems = []
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != answer["sha256"]:
        problems.append(f"stdout sha256 {digest} != pinned {answer['sha256']}")
    cells = [line.split()[-1] for line in text.splitlines() if line.startswith("k=")]
    if "totals" in answer and cells != [str(x) for x in answer["totals"]]:
        problems.append(f"totals {cells} != pinned {answer['totals']}")
    if "top" in answer and cells[-1:] != [str(answer["top"])]:
        problems.append(f"top degree {cells[-1:]} != closed form {answer['top']}")
    lines = text.splitlines()
    if "last_line" in answer and lines[-1:] != [answer["last_line"]]:
        problems.append(f"last line {lines[-1:]} != {answer['last_line']!r}")
    return problems


def call_problems(calls, expect):
    """Wrapper coverage: calls that must be zero or nonzero on this workload."""
    problems = [f"{name} ran {calls.get(name, 0)} times, expected 0"
                for name in expect["zero"] if calls.get(name, 0)]
    problems += [f"{name} never ran; a wrapper lost its binding?"
                 for name in expect["nonzero"] if not calls.get(name, 0)]
    return problems


def layer_values(results, workload, problems):
    """Per-layer metrics of the traced command with the median wall time."""
    traced = sorted(results, key=lambda res: res["records"][1]["wall"])
    chosen = traced[(len(traced) - 1) // 2]
    values = dict(chosen["layers"])
    values["trace.overhead_s"] = statistics.median(
        res["records"][1]["wall"] - res["records"][0]["wall"] for res in results)
    values["trace.reference_s"] = statistics.median(
        x for res in results for x in res["reference"])
    problems += call_problems(chosen["calls"], workload["expect_calls"])
    if len({json.dumps([res["counts"], res["calls"]], sort_keys=True) for res in results}) != 1:
        problems.append("counts differ between traced commands")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload['name']}.spans.json").write_text(
        json.dumps(chosen["spans"]), encoding="utf-8")
    times = {k: v for k, v in values.items()
             if k.endswith("_s") and not k.startswith("trace.")}
    top = max(times, key=times.get)
    print(f"dominant layer: {top}, {times[top] / values['trace.wall_s']:.0%} of the "
          f"traced wall {values['trace.wall_s']:.3f} s", file=sys.stderr)
    return values


def end_to_end_values(results):
    """Medians over the run's workers, times scaled to the machine's speed.

    Each worker's untraced command time is scaled by NOMINAL_S over the mean
    of the two reference loads around it, and its set-up time by NOMINAL_S
    over the reference load right after it.
    """
    nominal = reference.NOMINAL_S
    return {
        "wall_s": statistics.median(
            res["records"][0]["wall"] * nominal / statistics.mean(res["reference"])
            for res in results),
        "setup_s": statistics.median(
            res["setup"] * nominal / res["reference"][0] for res in results),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", choices=("dev", "heldout"), default="dev")
    args = parser.parse_args(argv)

    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    workload = dict(spec["workloads"][args.workload], name=args.workload)
    if args.workload_seed not in workload["answers"]:
        parser.error(f"{args.workload} has no {args.workload_seed} seed")
    if not (SRC / "maghom" / "cli.py").is_file():
        print(f"error: no maghom source tree at {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    seed = workload.get("seeds", {}).get(args.workload_seed)
    command = [part.replace("{seed}", str(seed)) for part in workload["argv"]]
    answer = workload["answers"][args.workload_seed]
    print(f"workload {args.workload}: maghom {' '.join(command)}", file=sys.stderr)
    print(f"machine {json.dumps(machine_notes())}", file=sys.stderr)

    env = child_env()
    job = {"argv": command, "trace": bool(args.trace)}
    results = []
    last = 0.0
    # stop before a command that would end past --seconds
    while not results or time.perf_counter() - started + last < args.seconds:
        begun = time.perf_counter()
        result = run_worker(job, env, DEADLINE_S - (begun - started))
        last = time.perf_counter() - begun
        if "coverage_error" in result:
            print(f"error: tracing coverage: {result['coverage_error']}", file=sys.stderr)
            return 1
        results.append(result)

    problems = []
    bad = set()
    for digest, text in {d: t for res in results for d, t in res["outputs"].items()}.items():
        found = output_problems(text, answer)
        if found:
            bad.add(digest)
            problems += found
    records = [record for res in results for record in res["records"]]
    traced_digests = {r["sha256"] for r in records if r.get("traced")}
    if traced_digests and traced_digests != {r["sha256"] for r in records if not r.get("traced")}:
        problems.append("traced and untraced commands printed different stdout")
    failed = 0
    for record in records:
        crashed = record["code"] != 0 or record["error"]
        if crashed:
            problems.append(f"exit code {record['code']}: {record['error'] or record['stderr']}")
        failed += bool(crashed or record["sha256"] in bad)

    if args.trace:
        values = layer_values(results, workload, problems)
    else:
        values = end_to_end_values(results)
        print(f"unscaled medians: command {statistics.median(r['wall'] for r in records):.4f} s, "
              f"reference {statistics.median(x for res in results for x in res['reference']):.4f} s "
              f"(nominal {reference.NOMINAL_S} s)", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    # a terminated run raises SystemExit, so subprocess.run kills and reaps
    # the worker it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.exit(main())
