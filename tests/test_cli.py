import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from schrostab.cli import main


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
        meta = json.load(open(str(out) + ".meta.json"))
        assert meta["config"]["n_list"] == [5, 9]

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "spectrum.json"
        result = runner.invoke(
            main,
            ["spectrum", "--scheme", "order-reduction", "--n-list", "7",
             "--out", str(out), "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        payload = json.load(open(out))
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

    def test_dimension_cap_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["spectrum", "--n-list", "4000", "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2


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
        payload = json.load(open(out))
        assert len(payload["sweeps"]) == 2  # both schemes
        for sw in payload["sweeps"]:
            assert sw["sup_norm"] >= max(sw["norm"]) - 1e-12
            assert len(sw["beta"]) == len(sw["norm"])


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
        summary = json.load(open(str(out) + ".summary.json"))
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

    def test_rejects_both_scheme(self, runner, tmp_path):
        result = runner.invoke(
            main, ["simulate", "--scheme", "both", "--n", "7",
                   "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2


class TestVerify:
    def test_pass_exit_zero(self, runner):
        result = runner.invoke(main, ["verify", "--samples", "5"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert "pass" in result.output

    def test_perturb_exit_one(self, runner):
        result = runner.invoke(main, ["verify", "--samples", "5", "--perturb", "1e-6"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_is_usage_error(self, runner, samples):
        result = runner.invoke(main, ["verify", "--samples", samples])
        assert result.exit_code == 2
        assert "samples must be positive" in result.output

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
        ["resolvent", "--n-list", "2048"],
    ],
    ids=["beta-range", "negative-gain", "negative-dt", "t-final-below-dt", "resolvent-cap"],
)
def test_precondition_violation_is_usage_error(runner, tmp_path, argv):
    result = runner.invoke(main, argv + ["--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2, result.output


def test_missing_required_option_is_usage_error(runner):
    result = runner.invoke(main, ["spectrum"])
    assert result.exit_code == 2


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0


def test_import_loads_submodules_but_not_scipy_integrate():
    # a fresh interpreter sees exactly what the entry point imports
    code = "import sys, schrostab.cli; print(*sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "scipy.integrate" not in loaded
    for name in ("continuous", "dynamics", "grid", "identities", "spectral", "systems"):
        assert f"schrostab.{name}" in loaded
