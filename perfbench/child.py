"""One benchmark process: runs a workload's CLI operations in-process.

    python perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR --result FILE
    python perfbench/child.py --setup --workload NAME --seed N --workdir DIR

The first form imports ``schrostab.cli`` and calls the command repeatedly,
one operation at a time, until ``--seconds`` have passed.
With ``--trace 1`` it runs pairs of one untraced and one traced operation.  It checks every
operation's outputs and writes walls, check failures, spans and peak memory
to ``--result`` as JSON.  The second form times a fresh interpreter's import
of ``schrostab.cli`` plus the workload's smallest invocation, and prints the
seconds.  ``run.py`` starts both; neither is meant to be called by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import sys
import time
import traceback

from tracer import Tracer
from workloads import WORKLOADS, Op, Workload


def run_op(main, argv: list[str], outdir: str, tracer: Tracer | None = None):
    """Run one CLI invocation; returns the Op, its wall time and bytes written."""
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    os.environ["SCHROSTAB_OUTDIR"] = outdir
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            with tracer.span("cli") if tracer else contextlib.nullcontext():
                main(args=argv, prog_name="schrostab")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # the command crashed: a failed operation, not a harness fault
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
    if tracer:
        _, start, end, _ = tracer.spans[0]  # the "cli" span
        wall = end - start
    stdout = out.getvalue()
    written = len(stdout.encode()) + sum(
        os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))
    return Op(code=code, stdout=stdout, outdir=outdir, stderr=err.getvalue()), wall, written


def _checked(check, op: Op) -> list[str]:
    try:
        return check(op)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_workload(workload: Workload, seconds: float, trace: bool, workdir: str) -> dict:
    """Timed loop, checks and extra operations; the result record as a dict."""
    from schrostab.cli import main

    outdir = os.path.join(workdir, "op")
    run_op(main, workload.warmup, outdir)
    ops, traces = [], []

    def one(argv, check, traced: bool, kind: str):
        tracer = Tracer() if traced else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            op, wall, written = run_op(main, argv, outdir, tracer)
            errors = _checked(check, op)
        ops.append({"kind": kind, "traced": traced, "wall_s": wall,
                    "bytes_written": written, "errors": errors})
        if tracer:
            traces.append({"spans": tracer.spans,
                           "distinct": {k: len(v) for k, v in tracer.keys.items()}})

    # A traced run alternates the order within each pair, so drift cancels in the overhead.
    orders = ((False, True), (True, False)) if trace else ((False,),)
    start = time.perf_counter()
    for i in itertools.count():
        for traced in orders[i % len(orders)]:
            one(workload.argv, workload.check, traced, "timed")
        if time.perf_counter() - start >= seconds:
            break
    for argv, check in workload.extra:
        one(argv, check, False, "extra")
    shutil.rmtree(outdir, ignore_errors=True)

    import numpy
    import scipy

    return {
        "ops": ops,
        "traces": traces,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
            .get("version", "unknown"),
        },
    }


def _setup(workload: Workload, workdir: str) -> float:
    start = time.perf_counter()
    from schrostab.cli import main

    run_op(main, workload.warmup, os.path.join(workdir, "op"))
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result")
    p.add_argument("--setup", action="store_true")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup:
        print(repr(_setup(workload, args.workdir)))
        return 0
    result = run_workload(workload, args.seconds, bool(args.trace), args.workdir)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
