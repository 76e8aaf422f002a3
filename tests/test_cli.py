import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import schrostab
from schrostab.cli import MAX_N_LIST, main
from schrostab.dynamics import MAX_N, EnergyTrace
from schrostab.errors import NumericalError
from schrostab.grid import Mesh
from schrostab.identities import MAX_SAMPLES
from schrostab.spectral import MAX_LINEAR_STEPS, ResolventSweepReport, spectral_abscissa
from schrostab.systems import CLASSICAL, SemiDiscreteSystem


@pytest.fixture
def runner():
    return CliRunner()


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


class TestSpectrum:
    def test_csv_both_schemes(self, runner, tmp_path):
        out = tmp_path / "spectrum.csv"
        result = runner.invoke(
            main, ["spectrum", "--n-list", "5,9", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = read_lines(out)
        assert lines[0] == "scheme,N,h,k,abscissa,max_eigen_residual"
        assert len(lines) == 5  # header + 2 schemes x 2 sizes
        assert os.path.exists(str(out) + ".meta.json")
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["config"]["n_list"] == [5, 9]

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "spectrum.json"
        result = runner.invoke(
            main,
            ["spectrum", "--scheme", "order-reduction", "--n-list", "7",
             "--out", str(out), "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["scheme"] == "order_reduction"
        assert row["n"] == 7
        assert row["abscissa"] < 0

    def test_svg_written(self, runner, tmp_path):
        out = tmp_path / "spectrum.csv"
        svg = tmp_path / "spectrum.svg"
        result = runner.invoke(
            main,
            ["spectrum", "--n-list", "5,9", "--out", str(out), "--svg", str(svg)],
        )
        assert result.exit_code == 0, result.output
        text = svg.read_text()
        assert text.startswith("<?xml") or text.lstrip().startswith("<svg")

    def test_outdir_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("SCHROSTAB_OUTDIR", str(tmp_path))
        result = runner.invoke(main, ["spectrum", "--n-list", "5", "--out", "rel.csv"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "rel.csv").exists()

    def test_deterministic_output(self, runner, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            result = runner.invoke(
                main, ["spectrum", "--scheme", "classical", "--n-list", "9",
                       "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_bad_n_list_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["spectrum", "--n-list", "9,zero", "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2

    def test_nonpositive_n_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["spectrum", "--n-list", "0,3", "--out", str(out)])
        assert result.exit_code == 2
        assert "positive integers" in result.output
        assert not any(tmp_path.iterdir())

    def test_dimension_cap_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["spectrum", "--n-list", str(MAX_N_LIST + 1), "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2

    def test_order_reduction_beyond_dense_cap(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["spectrum", "--scheme", "order-reduction", "--n-list", "4095",
                   "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert read_lines(out)[1].startswith("order_reduction,4095,")

    @pytest.mark.parametrize("scheme", ["order-reduction", "order_reduction"])
    def test_order_reduction_beyond_the_classical_cap(self, runner, tmp_path, scheme):
        # the order-reduction spectrum is O(N) and runs to the simulate cap
        out = tmp_path / "x.json"
        result = runner.invoke(
            main, ["spectrum", "--scheme", scheme, "--n-list", f"7,{MAX_N_LIST + 1},65535",
                   "--format", "json", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(out.read_text())["rows"]
        assert [row["n"] for row in rows] == [7, MAX_N_LIST + 1, 65535]
        for row in rows:
            scale = 6.6 / row["h"] ** 4  # bounds max theta + (k/h) ||c||^2 at k=1
            assert -1.97 < row["abscissa"] < -1.94
            assert 0 <= row["max_eigen_residual"] <= 1e-15 * scale

    def test_classical_beyond_dense_cap(self, runner, tmp_path):
        out = tmp_path / "x.json"
        result = runner.invoke(
            main, ["spectrum", "--scheme", "classical", "--n-list", "2048",
                   "--format", "json", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        row = json.loads(out.read_text())["rows"][0]
        scale = (2 / row["h"]) ** 2 + 2.5**0.5 / row["h"]  # bounds ||A||_2 at k=1
        assert (row["scheme"], row["n"]) == ("classical", 2048)
        assert row["abscissa"] < 0
        assert row["max_eigen_residual"] <= 1e-14 * scale

    @pytest.mark.parametrize("scheme", ["classical", "order-reduction"])
    def test_subnormal_damping_abscissa_is_negative(self, runner, tmp_path, scheme):
        # k h is subnormal; at N = 1023 the classical abscissa underflows to -0.0
        out = tmp_path / "x.json"
        result = runner.invoke(
            main, ["spectrum", "--scheme", scheme, "--n-list", "1,2,62,63,1000,1023",
                   "--k", "1e-320", "--format", "json", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(out.read_text())["rows"]
        assert [row["n"] for row in rows] == [1, 2, 62, 63, 1000, 1023]
        assert all(row["abscissa"] <= 0 and np.signbit(row["abscissa"]) for row in rows)


class TestResolvent:
    def test_csv_with_summary_block(self, runner, tmp_path):
        out = tmp_path / "res.csv"
        result = runner.invoke(
            main,
            ["resolvent", "--scheme", "order-reduction", "--n-list", "7",
             "--beta-min", "-5", "--beta-max", "5", "--linear-steps", "11",
             "--log-decades", "1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = read_lines(out)
        assert lines[0] == "scheme,N,k,beta,norm"
        summary_at = lines.index("sup_norm,argmax_beta")
        assert summary_at > 1
        assert len(lines) == summary_at + 2  # one summary row per sweep
        sup, argmax = (float(v) for v in lines[summary_at + 1].split(","))
        norms = [float(line.split(",")[4]) for line in lines[1:summary_at]]
        assert sup == pytest.approx(max(norms))
        betas = [float(line.split(",")[3]) for line in lines[1:summary_at]]
        assert argmax in betas

    def test_json_sweeps(self, runner, tmp_path):
        out = tmp_path / "res.json"
        result = runner.invoke(
            main,
            ["resolvent", "--n-list", "5", "--beta-min", "-2", "--beta-max", "2",
             "--linear-steps", "5", "--log-decades", "0.5",
             "--out", str(out), "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert len(payload["sweeps"]) == 2  # both schemes
        for sw in payload["sweeps"]:
            assert sw["sup_norm"] >= max(sw["norm"]) - 1e-12
            assert len(sw["beta"]) == len(sw["norm"])

    def test_order_reduction_beyond_dense_cap(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["resolvent", "--scheme", "order-reduction", "--n-list", "4095",
                   "--linear-steps", "11", "--log-decades", "1", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = read_lines(out)
        assert lines[1].startswith("order_reduction,4095,")
        assert 0.52 < float(lines[-1].split(",")[0]) < 0.53  # the sup norm

    def test_log_decades_cap_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["resolvent", "--n-list", "3", "--log-decades", "400",
                   "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--log-decades': 400.0 exceeds the cap of 30" in result.output
        assert not any(tmp_path.iterdir())


class TestSimulate:
    def test_csv_and_summary(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        result = runner.invoke(
            main,
            ["simulate", "--n", "15", "--dt", "0.01", "--t-final", "1.0",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = read_lines(out)
        assert lines[0] == "t,energy,boundary_abs,step_gap"
        assert len(lines) == 101
        energies = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        summary = json.loads(Path(str(out) + ".summary.json").read_text())
        assert summary["n"] == 15
        assert summary["omega_fit"] is not None
        assert summary["max_step_gap"] <= 1e-12 * summary["initial_energy"]

    def test_seed_changes_trace(self, runner, tmp_path):
        outs = []
        for seed in (0, 1):
            out = tmp_path / f"sim{seed}.csv"
            result = runner.invoke(
                main,
                ["simulate", "--n", "7", "--dt", "0.01", "--t-final", "0.1",
                 "--seed", str(seed), "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            outs.append(out.read_text())
        assert outs[0] != outs[1]

    def test_never_assembles_the_generator(self, runner, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate assembled a dense generator")

        monkeypatch.setattr("schrostab.systems.assemble_generator", refuse)
        out = tmp_path / "sim.csv"
        result = runner.invoke(
            main,
            ["simulate", "--n", "4095", "--dt", "0.01", "--t-final", "0.1",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert len(read_lines(out)) == 11

    def test_classical_step_gap_is_not_at_roundoff(self, runner, tmp_path):
        # the step gap is the order-reduction dissipation identity's defect, which
        # the classical scheme does not satisfy (5.3e-3 E(0) at N=63)
        out = tmp_path / "sim.csv"
        result = runner.invoke(
            main,
            ["simulate", "--scheme", "classical", "--n", "63", "--k", "1", "--dt", "1e-3",
             "--t-final", "0.1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(Path(str(out) + ".summary.json").read_text())
        assert summary["max_step_gap"] > 1e-4 * summary["initial_energy"]

    def test_rejects_both_scheme(self, runner, tmp_path):
        result = runner.invoke(
            main, ["simulate", "--scheme", "both", "--n", "7",
                   "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("window", [["--t-final", "1e15"], ["--t-final", "1001", "--dt", "1e-3"],
                                        ["--dt", "1e-320"]])
    def test_step_cap_is_usage_error(self, runner, tmp_path, monkeypatch, window):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated past the step cap")

        monkeypatch.setattr("schrostab.cli.simulate", refuse)
        result = runner.invoke(
            main, ["simulate", "--n", "7", "--out", str(tmp_path / "x.csv")] + window
        )
        assert result.exit_code == 2, result.output
        assert "--t-final/--dt ask for" in result.output
        assert "above the cap of 1000000" in result.output
        assert not any(tmp_path.iterdir())


    def test_fit_window_keeps_the_last_sample(self, runner, tmp_path):
        # 70 * 0.01 rounds to 0.7000000000000001, above --t-final
        out = tmp_path / "sim.csv"
        result = runner.invoke(
            main,
            ["simulate", "--n", "15", "--dt", "1e-2", "--t-final", "0.7", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = np.array([[float(x) for x in line.split(",")[:2]] for line in read_lines(out)[1:]])
        times, energies = rows.T
        assert times[-1] > 0.7
        window = times >= 0.35
        expect = -0.5 * np.polyfit(times[window], np.log(energies[window]), 1)[0]
        summary = json.loads(Path(str(out) + ".summary.json").read_text())
        assert summary["omega_fit"] == expect

    def test_order_reduction_at_large_n(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        result = runner.invoke(
            main,
            ["simulate", "--n", "65535", "--dt", "0.01", "--t-final", "0.05", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert len(read_lines(out)) == 6

    @pytest.mark.parametrize("scheme", ["order-reduction", "classical"])
    def test_non_finite_set_up_exits_3(self, runner, tmp_path, scheme):
        result = runner.invoke(main, ["simulate", "--scheme", scheme, "--n", "7",
                                      "--k", "1e308", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 3, result.output
        assert "numerical failure: modal midpoint step not finite" in result.output

    def test_does_not_load_scipy_fft(self, tmp_path):
        # a fresh interpreter: numpy.fft does the modal transform
        code = ("import sys; from schrostab.cli import main; "
                "main(['simulate', '--n', '63', '--t-final', '0.01', '--out', sys.argv[1]], "
                "standalone_mode=False); print('scipy.fft' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "x.csv")],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split()[-1] == "False"


def test_simulate_rows_match_f_strings(runner, tmp_path, monkeypatch):
    # the rows as they were formatted one f-string at a time, over numpy scalars
    rng = np.random.default_rng(7)
    boundary = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
    # magnitudes at a rounding tie, where np.abs and scalar abs part ways
    ties = boundary[np.abs(boundary) != [abs(b) for b in boundary.tolist()]]
    assert ties.size > 0
    boundary = np.concatenate([boundary, ties, [0j, -0.0 - 0.0j, 3 + 4j, 5e-324j, 1e300 + 1e300j]])
    gaps = rng.standard_normal(boundary.size) * 1e-16
    gaps[:6] = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1.7976931348623157e308]
    times = np.arange(boundary.size + 1) * 1e-3
    trace = EnergyTrace(times=times, energies=np.exp(-times) * rng.uniform(0.5, 2.0),
                        boundary_values=boundary, step_gaps=gaps)
    monkeypatch.setattr("schrostab.cli.simulate", lambda *args: trace)
    out = tmp_path / "sim.csv"
    result = runner.invoke(main, ["simulate", "--n", "7", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert read_lines(out)[1:] == [
        f"{trace.times[i + 1]:.17g},{trace.energies[i + 1]:.17g},"
        f"{abs(trace.boundary_values[i]):.17g},{trace.step_gaps[i]:.6g}"
        for i in range(boundary.size)]


def test_resolvent_certifies_each_spectrum_once(runner, tmp_path, monkeypatch):
    # the classical peak probe and the sweep grid share one certified spectrum
    from collections import Counter

    from schrostab import spectral

    calls = Counter()
    solve = spectral.spectrum

    def counted(mesh, k, scheme):
        calls[scheme, mesh.n] += 1
        return solve(mesh, k, scheme)

    monkeypatch.setattr("schrostab.spectral.spectrum", counted)
    result = runner.invoke(main, ["resolvent", "--scheme", "both", "--n-list", "15,63",
                                  "--out", str(tmp_path / "res.csv")])
    assert result.exit_code == 0, result.output
    assert calls == {(scheme, n): 1 for scheme in ("order_reduction", "classical")
                     for n in (15, 63)}


def test_resolvent_rows_match_f_strings(runner, tmp_path, monkeypatch):
    # the rows as they were formatted one f-string at a time, over numpy scalars
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308]
    sweeps = []

    def sweep(spectrum, *args):
        beta = np.concatenate([rng.standard_normal(500) * 10.0 ** rng.integers(-20, 20, 500),
                               special])
        norms = np.concatenate([rng.uniform(0.0, 2.0, 500) * 10.0 ** rng.integers(-5, 9, 500),
                                special[::-1]])
        sweeps.append(ResolventSweepReport(spectrum.system, beta, norms,
                                           float(norms.max()), float(beta[norms.argmax()])))
        return sweeps[-1]

    monkeypatch.setattr("schrostab.cli.sweep_with_spectrum", sweep)
    out = tmp_path / "res.csv"
    result = runner.invoke(main, ["resolvent", "--scheme", "both", "--n-list", "3,7",
                                  "--k", "0.1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(sweeps) == 4
    lines = read_lines(out)
    assert lines[1:lines.index("sup_norm,argmax_beta")] == [
        f"{sw.system.scheme},{sw.system.n},{sw.system.k:.17g},{beta:.17g},{norm:.17g}"
        for sw in sweeps for beta, norm in zip(sw.beta_grid, sw.norms)]


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the allocator policy applies to glibc only")
def test_second_run_reuses_the_heap(tmp_path):
    # a fresh interpreter: the second classical spectrum at the cap recycles the first's
    # freed blocks instead of faulting them back in (the default thresholds: 82% as many)
    code = (
        "import resource, sys; from schrostab.cli import main\n"
        "for _ in range(2):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    main(sys.argv[1:], standalone_mode=False)\n"
        "    print('faults', resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    argv = ["spectrum", "--scheme", "classical", "--n-list", str(MAX_N_LIST),
            "--format", "json", "--out", str(tmp_path / "s.json")]
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    first, second = (int(line.split()[1]) for line in result.stdout.splitlines()
                     if line.startswith("faults"))
    assert second < 0.1 * first, (first, second)


class _Libc:
    """Stands in for `ctypes.CDLL(None)`, recording each mallopt call."""

    def __init__(self, returns=1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return returns

        self.mallopt = mallopt

    def __call__(self, name):
        assert name is None
        return self


def _raise(exc):
    def confstr(name):
        raise exc

    return confstr


@pytest.mark.parametrize("confstr", [_raise(ValueError("unrecognized configuration name")),
                                     _raise(OSError(22, "Invalid argument")),
                                     _raise(AttributeError("no os.confstr")),
                                     lambda name: None, lambda name: "musl 1.2.4"])
def test_allocator_is_left_alone_without_glibc(runner, tmp_path, monkeypatch, confstr):
    libc = _Libc()
    monkeypatch.setattr("schrostab.cli.ctypes.CDLL", libc)
    monkeypatch.setattr("schrostab.cli.os.confstr", confstr)
    result = runner.invoke(main, ["spectrum", "--n-list", "3", "--out", str(tmp_path / "s.csv")])
    assert result.exit_code == 0, result.output
    assert libc.calls == []


@pytest.mark.parametrize("returns, calls", [
    (1, [(-3, 32 << 20), (-1, 128 << 20)]),
    (0, [(-3, 32 << 20)]),  # a refused mmap threshold keeps the trim default too
])
def test_allocator_thresholds_pinned_on_glibc(runner, tmp_path, monkeypatch, returns, calls):
    libc = _Libc(returns)
    monkeypatch.setattr("schrostab.cli.ctypes.CDLL", libc)
    monkeypatch.setattr("schrostab.cli.os.confstr", lambda name: "glibc 2.36")
    result = runner.invoke(main, ["spectrum", "--n-list", "3", "--out", str(tmp_path / "s.csv")])
    assert result.exit_code == 0, result.output
    assert libc.calls == calls


def test_import_leaves_the_allocator_alone():
    # a fresh interpreter: importing every module opens no libc handle; only a CLI run does
    code = (
        "import ctypes\n"
        "real, opened = ctypes.CDLL, []\n"
        "ctypes.CDLL = lambda name, *args: opened.append(name) or real(name, *args)\n"
        "import importlib, pkgutil, schrostab\n"
        "for info in pkgutil.iter_modules(schrostab.__path__):\n"
        "    importlib.import_module('schrostab.' + info.name)\n"
        "print(None in opened)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


class TestVerify:
    def test_pass_exit_zero(self, runner):
        result = runner.invoke(main, ["verify", "--samples", "5"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert "pass" in result.output

    def test_single_sample_exit_zero(self, runner):
        # one sample is one block one column wide, summed pairwise by numpy
        result = runner.invoke(main, ["verify", "--samples", "1"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output

    def test_perturb_exit_one(self, runner):
        result = runner.invoke(main, ["verify", "--samples", "5", "--perturb", "1e-6"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_is_usage_error(self, runner, samples):
        result = runner.invoke(main, ["verify", "--samples", samples])
        assert result.exit_code == 2
        assert "samples must be positive" in result.output

    @pytest.mark.parametrize("beta, message", [
        ("1e200", "beta must be nonzero, with a finite square, got beta=1e+200"),
        ("1e-150", "beta=1e-150 puts the claim-2 or claim-3 terms out of range"),
    ])
    def test_beta_out_of_range_is_usage_error(self, runner, beta, message):
        # beta^2 overflows at 1e200; at 1e-150, ||Delta z||^2 / beta^2 does at N = 64 and 255
        result = runner.invoke(main, ["verify", "--samples", "5", "--beta", beta])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '--beta': {message}" in result.output

    def test_json_report(self, runner):
        result = runner.invoke(main, ["verify", "--samples", "5", "--json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert all(r["passed"] for r in payload["reports"])
        identities = {r["identity"] for r in payload["reports"]}
        assert "triple_sum" in identities
        assert "dissipation" in identities


@pytest.mark.parametrize(
    "argv",
    [
        ["resolvent", "--n-list", "7", "--beta-min", "5", "--beta-max", "-5"],
        ["resolvent", "--n-list", "7", "--k", "-1"],
        ["simulate", "--n", "7", "--dt", "-1"],
        ["simulate", "--n", "7", "--t-final", "0.5", "--dt", "1"],
        ["resolvent", "--n-list", "4095"],
    ],
    ids=["beta-range", "negative-gain", "negative-dt", "t-final-below-dt", "resolvent-cap"],
)
def test_precondition_violation_is_usage_error(runner, tmp_path, argv):
    result = runner.invoke(main, argv + ["--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize(
    "argv, option, cap",
    [
        (["simulate", "--n", "3000000000", "--out", "x.csv"], "--n", MAX_N),
        (["resolvent", "--n-list", "3", "--linear-steps", str(10**12), "--out", "x.csv"],
         "--linear-steps", MAX_LINEAR_STEPS),
        (["verify", "--samples", str(10**12)], "--samples", MAX_SAMPLES),
    ],
    ids=["simulate-n", "resolvent-linear-steps", "verify-samples"],
)
def test_size_cap_is_usage_error(runner, tmp_path, monkeypatch, argv, option, cap):
    def refuse(*args, **kwargs):
        raise AssertionError("built something before the size cap")

    for name in ("Mesh", "run_identity_suite"):
        monkeypatch.setattr(f"schrostab.cli.{name}", refuse)
    monkeypatch.setenv("SCHROSTAB_OUTDIR", str(tmp_path))
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert f"x<={cap}" in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["spectrum", "--n-list", "5"], "--k"),
        (["resolvent", "--n-list", "5"], "--k"),
        (["resolvent", "--n-list", "5"], "--beta-min"),
        (["resolvent", "--n-list", "5"], "--beta-max"),
        (["resolvent", "--n-list", "5"], "--log-decades"),
        (["simulate", "--n", "7"], "--k"),
        (["simulate", "--n", "7"], "--dt"),
        (["simulate", "--n", "7"], "--t-final"),
        (["verify"], "--beta"),
        (["verify"], "--perturb"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v.lstrip("-"),
)
def test_non_finite_float_is_usage_error(runner, tmp_path, argv, option, value):
    out = [] if argv[0] == "verify" else ["--out", str(tmp_path / "x.csv")]
    result = runner.invoke(main, argv + out + [f"{option}={value}"])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}': {value} is not a finite number" in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("scheme", ["classical", "both"])
@pytest.mark.parametrize("n, k", [(1023, 0.01), (2047, 0.1), (2047, 0.15), (4095, 1.0),
                                  (8191, 1.0)])
def test_classical_peak_rule_names_its_options(runner, tmp_path, monkeypatch, scheme, n, k):
    # the top root's |Re lam| / |Im lam| is below the solver's spectrum tolerance
    def refuse(*args, **kwargs):
        raise AssertionError("swept before the classical peak check")

    monkeypatch.setattr("schrostab.cli.sweep_with_spectrum", refuse)
    result = runner.invoke(main, ["resolvent", "--scheme", scheme, "--n-list", f"5,{n}",
                                  "--k", str(k), "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2, result.output
    assert (f"--n-list grid size {n} at --k {k:g}: the classical resolvent peak is narrower "
            "than the solver's spectrum tolerance") in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("n, k", [(3214, 1.0), (1807, 0.1)])
def test_classical_peak_refusal_is_the_solvers(runner, tmp_path, n, k):
    # one grid size past the largest whose top peak the solver samples
    result = runner.invoke(main, ["resolvent", "--scheme", "classical", "--n-list", str(n),
                                  "--k", str(k), "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2, result.output
    assert f"--n-list grid size {n} at --k {k:g}: the classical resolvent peak" in result.output
    assert not any(tmp_path.iterdir())


def test_classical_sweep_certifies_up_to_the_solvers_limit(runner, tmp_path):
    # N = 1806 at k = 0.1, refused by the earlier closed-form peak rule (N <= 1744)
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["resolvent", "--scheme", "classical", "--n-list", "1806",
                                  "--k", "0.1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    sup = float(read_lines(out)[-1].split(",")[0])
    lam = spectral_abscissa(SemiDiscreteSystem(CLASSICAL, Mesh(1806), 0.1)).abscissa
    assert 1.70 <= sup * abs(lam) <= 1.76


def test_non_finite_linear_grid_is_usage_error(runner, tmp_path):
    # the step of np.linspace overflows
    result = runner.invoke(main, ["resolvent", "--n-list", "3", "--beta-min", "-1.7e308",
                                  "--beta-max", "1.7e308", "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2, result.output
    assert "the linear grid from -1.7e+308 to 1.7e+308 is not finite" in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("n, k", [(15, 1.0), (2047, 1.0), (2047, 0.2), (1023, 0.02),
                                  (4095, 10.0)])
def test_classical_peak_rule_reaches_the_solver(runner, tmp_path, monkeypatch, n, k):
    def reached(*args, **kwargs):
        raise NumericalError("reached the sweep")

    monkeypatch.setattr("schrostab.cli.sweep_with_spectrum", reached)
    result = runner.invoke(main, ["resolvent", "--scheme", "classical", "--n-list", str(n),
                                  "--k", str(k), "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 3, result.output
    assert "numerical failure: reached the sweep" in result.output


@pytest.mark.parametrize("command", ["spectrum", "resolvent"])
@pytest.mark.parametrize("scheme", ["both", "classical", "order-reduction"])
def test_n_list_cap_names_its_option(runner, tmp_path, monkeypatch, command, scheme):
    # the order-reduction spectrum runs to the simulate cap; the classical spectrum and
    # every resolvent stop at MAX_N_LIST
    def refuse(*args, **kwargs):
        raise AssertionError("built a mesh before the --n-list cap check")

    for name in ("Mesh", "spectral_abscissa", "sweep_with_spectrum"):
        monkeypatch.setattr(f"schrostab.cli.{name}", refuse)
    if command == "resolvent":
        cap, what = MAX_N_LIST, "resolvent"
    elif scheme == "order-reduction":
        cap, what = MAX_N, "the order-reduction spectrum"
    else:
        cap, what = MAX_N_LIST, "the classical spectrum"
    result = runner.invoke(main, [command, "--scheme", scheme, "--n-list",
                                  f"5,{cap + 1}", "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2, result.output
    assert (f"Invalid value for '--n-list': grid size {cap + 1} "
            f"exceeds the cap of {cap} of {what}") in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["spectrum", "--n-list", "5", "--out", "{bad}"], "x.csv"),
        (["resolvent", "--n-list", "3", "--out", "{bad}"], "x.csv"),
        (["simulate", "--n", "7", "--t-final", "0.01", "--out", "{bad}"], "x.csv"),
        (["spectrum", "--n-list", "5", "--out", "ok.csv", "--svg", "{bad}"], "x.svg"),
        (["spectrum", "--n-list", "2047", "--out", "{bad}"], "x.csv"),
    ],
    ids=["spectrum-out", "resolvent-out", "simulate-out", "spectrum-svg", "spectrum-out-large"],
)
def test_unwritable_output_is_usage_error(runner, tmp_path, monkeypatch, argv, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("computed before checking the output paths")

    for solver in ("spectral_abscissa", "sweep_with_spectrum", "simulate"):
        monkeypatch.setattr(f"schrostab.cli.{solver}", refuse)
    monkeypatch.setenv("SCHROSTAB_OUTDIR", str(tmp_path))
    path = str(tmp_path / "missing" / bad)
    result = runner.invoke(main, [arg.format(bad=path) for arg in argv])
    assert result.exit_code == 2, result.output
    assert path in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, solver",
    [("spectrum", "spectral_abscissa"), ("resolvent", "sweep_with_spectrum")],
    ids=["spectrum", "resolvent"],
)
def test_numerical_failure_exits_3(runner, tmp_path, monkeypatch, command, solver):
    def fail(*args, **kwargs):
        raise NumericalError("injected")

    monkeypatch.setattr(f"schrostab.cli.{solver}", fail)
    result = runner.invoke(main, [command, "--n-list", "5", "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 3, result.output
    assert "numerical failure:" in result.output


def test_missing_required_option_is_usage_error(runner):
    result = runner.invoke(main, ["spectrum"])
    assert result.exit_code == 2


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0


def test_no_command_loads_scipy(tmp_path):
    # one fresh interpreter runs every command, both schemes where there are two
    code = (
        "import sys; from schrostab.cli import main\n"
        "def scipy_modules():\n"
        "    print('loaded', *(m for m in sys.modules if m.startswith('scipy')))\n"
        "scipy_modules()\n"
        "for argv in sys.argv[1:]:\n"
        "    try: main(argv.split(), standalone_mode=False)\n"
        "    except SystemExit as exc: assert not exc.code, exc.code\n"
        "    scipy_modules()\n"
    )
    out = str(tmp_path / "x.csv")
    commands = [f"spectrum --scheme both --n-list 3,63 --out {out}",
                f"resolvent --scheme both --n-list 3,15 --out {out}",
                f"simulate --n 63 --t-final 0.01 --out {out}",
                f"simulate --scheme classical --n 63 --t-final 0.01 --out {out}",
                "verify --samples 2"]
    result = subprocess.run([sys.executable, "-c", code, *commands],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = [line.split()[1:] for line in result.stdout.splitlines() if line.startswith("loaded")]
    assert loaded == [[]] * (1 + len(commands))  # after the import and after each command


def test_every_module_and_command_runs_without_scipy(tmp_path):
    # a fresh interpreter in which scipy cannot be imported (as `_block_scipy` leaves a test
    # process) imports every submodule, runs the dense eigensolver and runs each command
    code = (
        "import importlib, pkgutil, sys; sys.modules['scipy'] = None\n"
        "import numpy as np, schrostab\n"
        "names = [info.name for info in pkgutil.iter_modules(schrostab.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('schrostab.' + name)\n"
        "from schrostab.cli import main; from schrostab.spectral import eigenpairs\n"
        "assert np.allclose(np.sort(eigenpairs(np.diag([3.0, 1.0]))[0]), [1.0, 3.0])\n"
        "for argv in sys.argv[1:]:\n"
        "    try: main(argv.split(), standalone_mode=False)\n"
        "    except SystemExit as exc: assert not exc.code, exc.code\n"
        "print('modules', *names)\n"
    )
    out = str(tmp_path / "x.csv")
    commands = [f"spectrum --scheme both --n-list 3 --out {out}",
                f"resolvent --scheme both --n-list 3 --out {out}",
                f"simulate --n 7 --t-final 0.01 --out {out}",
                "verify --samples 2"]
    result = subprocess.run([sys.executable, "-c", code, *commands],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    modules = result.stdout.splitlines()[-1].split()
    package = Path(schrostab.__file__).parent
    assert modules[1:] == sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")


def test_import_loads_submodules_but_not_scipy_integrate():
    # a fresh interpreter sees exactly what the entry point imports
    code = "import sys, schrostab.cli; print(*sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "scipy.integrate" not in loaded
    for name in ("continuous", "dynamics", "grid", "identities", "spectral", "systems"):
        assert f"schrostab.{name}" in loaded
