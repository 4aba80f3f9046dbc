"""Benchmark worker: one fresh interpreter that runs one maghom CLI command.

run.py starts it with PYTHONPATH pointing at the checkout's ``src`` and the
job as JSON in argv[1]; the result leaves as one JSON object on stdout.  Each
command gets its own process, as it would from the shell, so nothing cached
by one command can speed up the next.  A traced job runs the command once
untraced and once traced in the same process, so the tracing overhead is
measured under the same conditions.  The reference load in reference.py runs
right before and right after the untraced command, to gauge the machine's
speed while it ran.
"""

import time

import maghom.cli

# taken before the worker's own imports; CLOCK_MONOTONIC is system-wide, so
# run.py can subtract the time it spawned this process
IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback

import reference
import spans


def run_command(argv, tracer=None):
    """One CLI call; returns (record, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = 0, None
    invoke = maghom.cli.main.main
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                invoke(args=argv, prog_name="maghom")
            else:
                tracer.span(spans.ROOT_SPAN, invoke, args=argv, prog_name="maghom")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        error = traceback.format_exc(limit=5)
    wall = time.perf_counter() - start
    text = out.getvalue()
    record = {
        "wall": wall,
        "code": code,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "stderr": err.getvalue()[-2000:],
        "error": error,
    }
    return record, text


def main():
    job = json.loads(sys.argv[1])
    before = reference.timed()
    record, text = run_command(job["argv"])
    result = {
        "imported": IMPORTED,
        "reference": [before, reference.timed()],
        "records": [record],
        "outputs": {record["sha256"]: text},
    }
    if job["trace"]:
        tracer = spans.Tracer()
        try:
            undo = spans.install(tracer)
        except spans.CoverageError as exc:
            print(json.dumps({"coverage_error": str(exc)}))
            return
        try:
            record, text = run_command(job["argv"], tracer)
        finally:
            spans.uninstall(undo)
        record["traced"] = True
        result["records"].append(record)
        result["outputs"].setdefault(record["sha256"], text)
        result["layers"] = tracer.layer_metrics()
        result["calls"] = dict(tracer.calls)
        result["counts"] = dict(tracer.counts)
        result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
