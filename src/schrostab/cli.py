"""Command-line front end: experiments, CSV/JSON reports and SVG charts.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure.  Outputs are deterministic for identical configurations and seeds;
every report carries the full run configuration and the tool version.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click
import numpy as np

from . import __version__
from .dynamics import fit_decay_rate, initial_state, simulate
from .errors import NumericalError
from .grid import Mesh
from .identities import run_identity_suite
from .spectral import MAX_EIG_DIM, resolvent_sweep, spectral_abscissa
from .svgplot import line_chart
from .systems import CLASSICAL, ORDER_REDUCTION, SemiDiscreteSystem

SCHEME_CHOICES = {
    "order-reduction": [ORDER_REDUCTION],
    "order_reduction": [ORDER_REDUCTION],
    "classical": [CLASSICAL],
    "both": [ORDER_REDUCTION, CLASSICAL],
}


def _out_path(out: str) -> str:
    if os.path.isabs(out):
        return out
    return os.path.join(os.environ.get("SCHROSTAB_OUTDIR", "."), out)


def _parse_n_list(text: str) -> list[int]:
    """Grid sizes for the dense commands, refused before anything is assembled
    if a generator would exceed the dense eigensolver cap."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad N list {text!r}: {exc}")
    if not values or any(v < 1 for v in values):
        raise click.UsageError(f"N list must contain positive integers, got {text!r}")
    if max(values) + 1 > MAX_EIG_DIM:
        raise click.UsageError(
            f"grid sizes above {MAX_EIG_DIM - 1} exceed the dense eigensolver cap"
        )
    return values


def _write_meta(out: str, config: dict):
    with open(out + ".meta.json", "w") as fh:
        json.dump({"version": __version__, "config": config}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _exit_code_guard(func):
    """Precondition errors (ValueError) exit 2 as usage errors; NumericalError exits 3."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)

    return wrapper


@click.group()
@click.version_option(__version__)
def main():
    """Stability certification toolkit for boundary-damped semi-discrete schemes."""


@main.command()
@click.option("--scheme", type=click.Choice(sorted(SCHEME_CHOICES)), default="both")
@click.option("--n-list", required=True, help="comma-separated grid sizes, e.g. 9,99,999")
@click.option("--k", type=float, default=1.0, show_default=True)
@click.option("--out", required=True, help="output file path")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--svg", default=None, help="also write an abscissa-vs-N chart here")
@_exit_code_guard
def spectrum(scheme, n_list, k, out, fmt, svg):
    """Spectral abscissae of the generators over a list of grid sizes."""
    ns = _parse_n_list(n_list)
    config = {"command": "spectrum", "scheme": scheme, "n_list": ns, "k": k,
              "out": out, "format": fmt, "svg": svg}
    rows = []
    for sch in SCHEME_CHOICES[scheme]:
        for n in ns:
            rep = spectral_abscissa(SemiDiscreteSystem(sch, Mesh(n), k))
            rows.append({
                "scheme": sch, "n": n, "h": Mesh(n).h, "k": k,
                "abscissa": rep.abscissa, "max_eigen_residual": rep.max_eigen_residual,
            })
    out = _out_path(out)
    if fmt == "csv":
        with open(out, "w") as fh:
            fh.write("scheme,N,h,k,abscissa,max_eigen_residual\n")
            for r in rows:
                fh.write(
                    f"{r['scheme']},{r['n']},{r['h']:.17g},{r['k']:.17g},"
                    f"{r['abscissa']:.17g},{r['max_eigen_residual']:.6g}\n"
                )
        _write_meta(out, config)
    else:
        with open(out, "w") as fh:
            json.dump({"version": __version__, "config": config, "rows": rows},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    if svg:
        series = []
        for sch in SCHEME_CHOICES[scheme]:
            pts = [(r["n"], r["abscissa"]) for r in rows if r["scheme"] == sch]
            series.append((sch, [p[0] for p in pts], [p[1] for p in pts]))
        line_chart(
            _out_path(svg), series,
            title=f"Maximal eigenvalue real parts (k={k:g})",
            xlabel="N", ylabel="spectral abscissa",
            banner=f"schrostab {__version__}",
        )
    click.echo(f"wrote {len(rows)} rows to {out}")


@main.command()
@click.option("--scheme", type=click.Choice(sorted(SCHEME_CHOICES)), default="both")
@click.option("--n-list", required=True)
@click.option("--k", type=float, default=1.0, show_default=True)
@click.option("--beta-min", type=float, default=-20.0, show_default=True)
@click.option("--beta-max", type=float, default=20.0, show_default=True)
@click.option("--linear-steps", type=int, default=81, show_default=True)
@click.option("--log-decades", type=float, default=None,
              help="log tail reach; default covers the discrete spectrum")
@click.option("--out", required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@_exit_code_guard
def resolvent(scheme, n_list, k, beta_min, beta_max, linear_steps, log_decades, out, fmt):
    """Weighted resolvent-norm sweeps along the imaginary axis."""
    ns = _parse_n_list(n_list)
    config = {"command": "resolvent", "scheme": scheme, "n_list": ns, "k": k,
              "beta_min": beta_min, "beta_max": beta_max,
              "linear_steps": linear_steps, "log_decades": log_decades,
              "out": out, "format": fmt}
    sweeps = []
    for sch in SCHEME_CHOICES[scheme]:
        for n in ns:
            system = SemiDiscreteSystem(sch, Mesh(n), k)
            sweeps.append(resolvent_sweep(system, beta_min, beta_max, linear_steps, log_decades))
    out = _out_path(out)
    if fmt == "csv":
        with open(out, "w") as fh:
            fh.write("scheme,N,k,beta,norm\n")
            for sw in sweeps:
                for beta, norm in zip(sw.beta_grid, sw.norms):
                    fh.write(f"{sw.scheme},{sw.n},{sw.k:.17g},{beta:.17g},{norm:.17g}\n")
            fh.write("sup_norm,argmax_beta\n")
            for sw in sweeps:
                fh.write(f"{sw.sup_norm:.17g},{sw.argmax_beta:.17g}\n")
        _write_meta(out, config)
    else:
        payload = [{
            "scheme": sw.scheme, "n": sw.n, "k": sw.k,
            "beta": list(sw.beta_grid), "norm": list(sw.norms),
            "sup_norm": sw.sup_norm, "argmax_beta": sw.argmax_beta,
        } for sw in sweeps]
        with open(out, "w") as fh:
            json.dump({"version": __version__, "config": config, "sweeps": payload},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    click.echo(f"wrote {len(sweeps)} sweeps to {out}")


@main.command("simulate")
@click.option("--scheme",
              type=click.Choice([c for c in sorted(SCHEME_CHOICES) if c != "both"]),
              default="order-reduction")
@click.option("--n", type=int, required=True)
@click.option("--k", type=float, default=1.0, show_default=True)
@click.option("--dt", type=float, default=1e-3, show_default=True)
@click.option("--t-final", type=float, default=3.0, show_default=True)
@click.option("--preset", type=click.Choice(["random", "smooth", "sine"]), default="smooth")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True)
@_exit_code_guard
def simulate_cmd(scheme, n, k, dt, t_final, preset, seed, out):
    """Energy-decay simulation with per-step dissipation accounting."""
    config = {"command": "simulate", "scheme": scheme, "n": n, "k": k, "dt": dt,
              "t_final": t_final, "preset": preset, "seed": seed, "out": out}
    system = SemiDiscreteSystem(SCHEME_CHOICES[scheme][0], Mesh(n), k)
    W0 = initial_state(preset, system, seed=seed)
    trace = simulate(system, W0, dt, t_final)
    out = _out_path(out)
    with open(out, "w") as fh:
        fh.write("t,energy,boundary_abs,step_gap\n")
        for i in range(trace.step_gaps.size):
            fh.write(
                f"{trace.times[i + 1]:.17g},{trace.energies[i + 1]:.17g},"
                f"{abs(trace.boundary_values[i]):.17g},{trace.step_gaps[i]:.6g}\n"
            )
    _write_meta(out, config)
    summary = {
        "version": __version__, "config": config,
        "scheme": system.scheme, "n": n, "h": system.mesh.h, "k": k,
        "initial_energy": float(trace.energies[0]),
        "final_energy": float(trace.energies[-1]),
        "max_step_gap": float(np.max(np.abs(trace.step_gaps))) if trace.step_gaps.size else 0.0,
    }
    try:
        summary["omega_fit"] = fit_decay_rate(trace, t_final / 2, t_final)
    except ValueError:
        # short runs or runs that hit exact zero energy have no usable fit
        summary["omega_fit"] = None
    with open(out + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"wrote {trace.step_gaps.size} steps to {out}")


@main.command()
@click.option("--samples", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--beta", type=float, default=3.7, show_default=True)
@click.option("--perturb", type=float, default=0.0,
              help="inject a fault of this size into one matrix entry")
@click.option("--json", "as_json", is_flag=True, default=False)
@_exit_code_guard
def verify(samples, seed, beta, perturb, as_json):
    """Run the exact-identity suite; exit 0 iff every gap passes."""
    reports = run_identity_suite(samples=samples, seed=seed, beta=beta, perturb=perturb)
    if as_json:
        payload = [{
            "identity": r.identity, "n": r.n, "k": r.k, "seed": r.seed,
            "gap": r.gap, "scale": r.scale, "relative_gap": r.relative_gap,
            "tolerance": r.tolerance, "passed": r.passed,
        } for r in reports]
        click.echo(json.dumps({"version": __version__,
                               "config": {"command": "verify", "samples": samples,
                                          "seed": seed, "beta": beta, "perturb": perturb},
                               "reports": payload}, indent=2, sort_keys=True))
    else:
        click.echo(f"{'identity':<24}{'N':>6}{'k':>8}{'rel gap':>12}{'tol':>10}  status")
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            click.echo(
                f"{r.identity:<24}{r.n:>6}{r.k:>8g}{r.relative_gap:>12.3e}"
                f"{r.tolerance:>10g}  {status}"
            )
    sys.exit(0 if all(r.passed for r in reports) else 1)


if __name__ == "__main__":
    main()
