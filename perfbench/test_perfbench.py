"""Tests of the benchmark itself, on tiny configurations of the four workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from schrostab import grid  # noqa: E402
from schrostab.cli import main as cli_main  # noqa: E402
from schrostab.grid import Mesh  # noqa: E402
from schrostab.spectral import resolvent_sweep, spectral_abscissa  # noqa: E402
from schrostab.systems import SemiDiscreteSystem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spectrum_reference(n_list):
    return {(s, n): spectral_abscissa(SemiDiscreteSystem(s, Mesh(n))).abscissa
            for s in wl.SCHEMES for n in n_list}


def _resolvent_reference(n_list):
    return {(s, n): resolvent_sweep(SemiDiscreteSystem(s, Mesh(n)), -20.0, 20.0).sup_norm
            for s in wl.SCHEMES for n in n_list}


TINY_N = {"spectrum-ladder": (15, 31), "resolvent-sweep": (7, 15)}
REFERENCE = {"spectrum-ladder": _spectrum_reference, "resolvent-sweep": _resolvent_reference}


def tiny(name: str, reference=None) -> wl.Workload:
    if name in TINY_N:
        n_list = TINY_N[name]
        return wl.WORKLOADS[name](0, n_list, reference or REFERENCE[name](n_list))
    if name == "decay-sim":
        return wl.decay_sim(0, n=31)
    return wl.identity_verify(0, samples=20)


def _run(workload: wl.Workload, trace: bool, tmp_path: Path):
    result = child.run_workload(workload, seconds=0.0, trace=trace, workdir=str(tmp_path))
    args = argparse.Namespace(workload=workload.name, seed=0, seconds=0.0, trace=int(trace))
    setup = [0.5] if not trace else []
    return result, run.summarize(SPEC, args, setup, result)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit(name, trace, tmp_path):
    _, (line, record) = _run(tiny(name), trace, tmp_path)
    metrics = line["metrics"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(metrics) == [m["name"] for m in wanted]
    for m in wanted:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert record["blas_threads"] <= record["nproc"]


@pytest.mark.parametrize("name", ["spectrum-ladder", "resolvent-sweep", "decay-sim"])
def test_traced_self_times_account_for_wall(name, tmp_path):
    original = grid.build_scheme_matrices
    _, (line, _) = _run(tiny(name), True, tmp_path)
    metrics = line["metrics"]
    assert grid.build_scheme_matrices is original
    # Every span under the CLI call is counted once; the oracle check runs outside it.
    covered = sum(m["value"] for key, m in metrics.items()
                  if key.endswith("self_s") or key == "dynamics.stepper_setup_s"
                  if not key.startswith("continuous."))
    assert covered == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)


@pytest.mark.parametrize("name", sorted(TINY_N))
def test_wrong_reference_fails(name, tmp_path):
    reference = REFERENCE[name](TINY_N[name])
    key = ("order_reduction", TINY_N[name][0])
    reference[key] *= 1.001
    result, (line, _) = _run(tiny(name, reference), False, tmp_path)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 1  # fail_frac 1
    assert str(key) in result["ops"][0]["errors"][0]


def test_perturbed_check_rejects_a_passing_verify(tmp_path):
    workload = tiny("identity-verify")
    _, check_perturbed = workload.extra[0]
    op, _, _ = child.run_op(cli_main, workload.argv, str(tmp_path / "op"))
    assert op.code == 0
    assert check_perturbed(op)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay-sim", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
