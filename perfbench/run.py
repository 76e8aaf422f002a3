"""Benchmark entry point: one workload run, its metrics and its run record.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It starts, one at a time,
``SETUP_SAMPLES`` fresh interpreters that time the import of ``schrostab.cli``
plus the workload's smallest invocation (``setup_s``), then one child that
imports ``schrostab.cli`` and calls the workload's command in-process, one
operation after another (closed loop, one client), until ``--seconds`` have
passed.  Every child gets ``BLAS_THREADS`` OpenBLAS threads.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json;
with ``--trace 1`` the child alternates untraced and traced operations and
the metrics are the per-layer ones, derived from the spans.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric with its
unit, ``fail_frac`` and the run record.  The spans and the run record are
also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import call_counts, durations, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 5
# One thread: on 2 cores, two OpenBLAS threads made resolvent-sweep 8x slower
# (33.7 s against 4.2 s) and spread spectrum-ladder over 6.8-8.5 s.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150

# Per-layer metrics that are not "<span>.<calls|self_s|pNN_ms|pNN_us>".
# Reuse ratios are distinct inputs over calls, per operation; 0 when never called.
REUSE = {
    "spectral.eigensolve_reuse": ("spectral.spectral_abscissa", "spectral.eigenpairs"),
    "grid.scheme_matrices_reuse": ("grid.build_scheme_matrices", "grid.build_scheme_matrices"),
}
SPAN_ALIASES = {"dynamics.stepper_setup_s": "dynamics.stepper_setup.self_s"}
PERCENTILE_SCALE = {"ms": 1e3, "us": 1e6}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def layer_metrics(names, result: dict) -> tuple[dict, dict]:
    """Per-layer metric values (means per traced operation) and percentile sample counts."""
    traces = result["traces"]
    timed = [op for op in result["ops"] if op["kind"] == "timed"]
    n = len(traces)
    selfs = [self_times(t["spans"]) for t in traces]
    counts = [call_counts(t["spans"]) for t in traces]
    traced_wall = statistics.fmean(d for t in traces for d in durations(t["spans"], "cli"))
    untraced_wall = statistics.fmean(op["wall_s"] for op in timed if not op["traced"])
    values, samples = {}, {}
    for name in names:
        span, stat = SPAN_ALIASES.get(name, name).rsplit(".", 1)
        if name == "trace.wall_s":
            values[name] = traced_wall
        elif name == "trace.overhead_s":
            values[name] = traced_wall - untraced_wall
        elif name == "cli.bytes_written":
            values[name] = statistics.fmean(op["bytes_written"] for op in timed)
        elif name in REUSE:
            keyed, called = REUSE[name]
            values[name] = sum(
                t["distinct"][keyed] / c[called] for t, c in zip(traces, counts) if c.get(called)
            ) / n
        elif stat == "calls":
            values[name] = sum(c.get(span, 0) for c in counts) / n
        elif stat == "self_s":
            values[name] = sum(s.get(span, 0.0) for s in selfs) / n
        elif stat[0] == "p" and stat[-3] == "_":
            pooled = [d for t in traces for d in durations(t["spans"], span)]
            values[name] = percentile(pooled, float(stat[1:-3])) * PERCENTILE_SCALE[stat[-2:]]
            samples[name] = len(pooled)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return values, samples


def end_to_end_metrics(names, result: dict, setup: list[float]) -> dict:
    walls = [op["wall_s"] for op in result["ops"] if op["kind"] == "timed"]
    known = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    return {name: known[name] for name in names}


def source_id() -> dict:
    """Git SHA when the checkout is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    sha = "unavailable"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("SCHROSTAB_OUTDIR", None)
    return env


def run_children(args, work: Path) -> tuple[list[float], dict]:
    child = [sys.executable, str(ROOT / "perfbench" / "child.py"),
             "--workload", args.workload, "--seed", str(args.seed)]
    env = child_env()
    setup = []
    for i in range(0 if args.trace else SETUP_SAMPLES):
        proc = subprocess.run(child + ["--setup", "--workdir", str(work / f"setup{i}")],
                              env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        setup.append(float(proc.stdout.split()[-1]))
    result_path = work / "result.json"
    proc = subprocess.run(
        child + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--workdir", str(work), "--result", str(result_path)],
        env=env, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with {proc.returncode}")
    return setup, json.loads(result_path.read_text())


def summarize(spec: dict, args, setup: list[float], result: dict) -> tuple[dict, dict]:
    """The result line (outcome counts and the metrics BENCHMARK.json asks for at this
    trace level) and the run record."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if args.trace:
        values, samples = layer_metrics(names, result)
    else:
        values, samples = end_to_end_metrics(names, result, setup), {}
    timed = [op for op in result["ops"] if op["kind"] == "timed"]
    samples.update({
        "wall_s": sum(not op["traced"] for op in timed),
        "traced_ops": sum(op["traced"] for op in timed),
        "setup_s": len(setup),
    })
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **source_id(), **result["env"],
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS, "samples": samples,
    }
    failed = sum(bool(op["errors"]) for op in result["ops"])
    line = {
        "correct": failed == 0, "attempted": len(result["ops"]), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return line, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "schrostab" / "cli.py").is_file():
        print(f"no schrostab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup, result = run_children(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    line, record = summarize(spec, args, setup, result)
    stem = f"{args.workload}.trace{args.trace}"
    (OUT / f"{stem}.record.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(result["traces"]))

    for op in result["ops"]:
        if op["errors"]:
            print(f"FAILED {op['kind']} op: {'; '.join(op['errors'])}", file=sys.stderr)
    for name, m in line["metrics"].items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    fail_frac = line["failed"] / line["attempted"]
    print(f"{'fail_frac':<44} {fail_frac:>16.6g} ({line['failed']}/{line['attempted']})")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
