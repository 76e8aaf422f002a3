"""Command-line front end: experiments, CSV/JSON reports and SVG charts.

Exit codes: 0 success, 1 verification failure, 2 usage error (also for an
output path that cannot be written), 3 numerical failure.  Outputs are
deterministic for identical configurations and seeds.  Every JSON report, CSV
`.meta.json` sidecar and `simulate` summary carries the tool version and the
run configuration: the command name plus its parsed options.

On glibc, every run first pins two of the allocator's thresholds
(`_pin_malloc_thresholds`): numpy's recurring temporaries below 32 MiB are then
recycled from the heap instead of being mapped, faulted in and zeroed again on
each call.  Outputs do not change, and importing this module pins nothing.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .dynamics import MAX_N, MAX_STEPS, fit_decay_rate, initial_state, simulate
from .errors import NumericalError
from .grid import Mesh
from .identities import MAX_SAMPLES, run_identity_suite
from .secular import in_spectrum
from .spectral import MAX_LINEAR_STEPS, MAX_LOG_DECADES, spectral_abscissa, sweep_with_spectrum
from .svgplot import line_chart
from .systems import CLASSICAL, ORDER_REDUCTION, SemiDiscreteSystem

SCHEME_CHOICES = {
    "order-reduction": [ORDER_REDUCTION],
    "order_reduction": [ORDER_REDUCTION],
    "classical": [CLASSICAL],
    "both": [ORDER_REDUCTION, CLASSICAL],
}


class _FiniteFloat(click.types.FloatParamType):
    """A float option that refuses nan, +-inf and values above `cap` at parse time."""

    def __init__(self, cap: float = math.inf):
        self.cap = cap

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        if value > self.cap:
            self.fail(f"{value!r} exceeds the cap of {self.cap:g}", param, ctx)
        return value


FINITE_FLOAT = _FiniteFloat()
# Largest grid size of `resolvent`, whose sweeps cost O(N^2) (the order-reduction one 6.7 s at
# this cap, k = 1, one BLAS thread, 2-vCPU Intel Xeon VM), and of the classical `spectrum`.
# Both spectra are O(N): order reduction runs to `dynamics.MAX_N` (0.023 s at N = 8191, 0.20 s
# at 65535, 3.9 s at 2^20 - 1, each a repeated call in one run); the classical one takes 0.011,
# 0.045 and 0.078 s at N = 1023, 4095 and 8191 but keeps this cap, as its 72 cross-check
# eigenvectors are inverse FFTs of odd length 2N+3: 24 ms each at N = 65535 (1.7 of its
# 2.0 s), the FFT alone 0.47 s at 2^20 - 1.
MAX_N_LIST = 8191


def _out_path(out: str) -> str:
    if os.path.isabs(out):
        return out
    return os.path.join(os.environ.get("SCHROSTAB_OUTDIR", "."), out)


def _parse_n_list(ctx, param, text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad N list {text!r}: {exc}")
    if not values or any(v < 1 for v in values):
        raise click.UsageError(f"N list must contain positive integers, got {text!r}")
    return values


def _check_n_cap(n_list: list[int], cap: int, what: str):
    """Refuse, as a usage error on --n-list, a grid size above the cap of `what`."""
    if max(n_list) > cap:
        raise click.BadParameter(
            f"grid size {max(n_list)} exceeds the cap of {cap} of {what}",
            param_hint="'--n-list'")


def _check_output_dir(path: str):
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise click.UsageError(f"cannot write {path}: {directory} is not a writable directory")


def _envelope(config: dict, **fields) -> str:
    """A JSON artifact as text: the tool version, the run configuration, the fields."""
    return json.dumps({"version": __version__, "config": config, **fields},
                      indent=2, sort_keys=True) + "\n"


def _write_json(path: str, config: dict, **fields):
    with open(path, "w") as fh:
        fh.write(_envelope(config, **fields))


def _write_csv(path: str, config: dict, *sections):
    """Stream each (header, lines) section, then write the `.meta.json` sidecar."""
    with open(path, "w") as fh:
        for header, lines in sections:
            fh.write(header + "\n")
            for line in lines:
                fh.write(line + "\n")
    _write_json(path + ".meta.json", config)


def _exit_code_guard(func):
    """Call the command with its run configuration first; map failures to exit codes.

    The configuration is the command name plus the parsed options, except
    `verify --json`, which only chooses how the report is printed.
    The directory of every output path must exist and be writable before
    the command starts.  Precondition errors (ValueError) and unwritable
    output paths (OSError) exit 2 as usage errors; NumericalError exits 3.
    """

    @functools.wraps(func)
    def wrapper(**params):
        config = {"command": click.get_current_context().command.name, **params}
        config.pop("as_json", None)
        for name in ("out", "svg"):
            if params.get(name):
                _check_output_dir(_out_path(params[name]))
        try:
            return func(config, **params)
        except (ValueError, OSError) as exc:
            raise click.UsageError(str(exc)) from exc
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)

    return wrapper


# glibc's mallopt parameter numbers (malloc.h) and the values a CLI run pins.  32 MiB is
# glibc's own 64-bit ceiling for its dynamic mmap threshold; up to 128 MiB freed at the top
# of the heap stays there for reuse instead of going back to the system.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 128 << 20


def _pin_malloc_thresholds():
    """Serve numpy's recurring temporaries from glibc's heap instead of fresh mmaps.

    Below 32 MiB a freed block (sigma_min and cross-check blocks, stepper
    arrays at the --n cap) stays in the heap for the next call rather than
    being unmapped and faulted back in, zeroed, page by page.  Pinning either
    value also turns off glibc's threshold rule that depends on what the
    process freed before.  Only on glibc; where it refuses the mmap threshold,
    both thresholds keep glibc's defaults.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr (Windows), or no such name
        return
    if not (libc or "").startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@click.group()
@click.version_option(__version__)
def main():
    """Stability certification toolkit for boundary-damped semi-discrete schemes."""
    _pin_malloc_thresholds()


@main.command()
@click.option("--scheme", type=click.Choice(sorted(SCHEME_CHOICES)), default="both")
@click.option("--n-list", required=True, callback=_parse_n_list,
              help="comma-separated grid sizes, e.g. 9,99,999")
@click.option("--k", type=FINITE_FLOAT, default=1.0, show_default=True)
@click.option("--out", required=True, help="output file path")
@click.option("--format", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--svg", default=None, help="also write an abscissa-vs-N chart here")
@_exit_code_guard
def spectrum(config, scheme, n_list, k, out, format, svg):
    """Spectral abscissae of the generators over a list of grid sizes."""
    if CLASSICAL in SCHEME_CHOICES[scheme]:
        _check_n_cap(n_list, MAX_N_LIST, "the classical spectrum")
    else:
        _check_n_cap(n_list, MAX_N, "the order-reduction spectrum")
    meshes = [Mesh(n) for n in n_list]
    rows = []
    for sch in SCHEME_CHOICES[scheme]:
        for mesh in meshes:
            rep = spectral_abscissa(SemiDiscreteSystem(sch, mesh, k))
            rows.append({
                "scheme": sch, "n": mesh.n, "h": mesh.h, "k": k,
                "abscissa": rep.abscissa, "max_eigen_residual": rep.max_eigen_residual,
            })
    out = _out_path(out)
    if format == "csv":
        _write_csv(out, config, ("scheme,N,h,k,abscissa,max_eigen_residual", (
            f"{r['scheme']},{r['n']},{r['h']:.17g},{r['k']:.17g},"
            f"{r['abscissa']:.17g},{r['max_eigen_residual']:.6g}" for r in rows)))
    else:
        _write_json(out, config, rows=rows)
    if svg:
        line_chart(
            _out_path(svg),
            [(sch, n_list, [r["abscissa"] for r in rows if r["scheme"] == sch])
             for sch in SCHEME_CHOICES[scheme]],
            title=f"Maximal eigenvalue real parts (k={k:g})",
            xlabel="N", ylabel="spectral abscissa",
            banner=f"schrostab {__version__}",
        )
    click.echo(f"wrote {len(rows)} rows to {out}")


@main.command()
@click.option("--scheme", type=click.Choice(sorted(SCHEME_CHOICES)), default="both")
@click.option("--n-list", required=True, callback=_parse_n_list)
@click.option("--k", type=FINITE_FLOAT, default=1.0, show_default=True)
@click.option("--beta-min", type=FINITE_FLOAT, default=-20.0, show_default=True)
@click.option("--beta-max", type=FINITE_FLOAT, default=20.0, show_default=True)
@click.option("--linear-steps", type=click.IntRange(max=MAX_LINEAR_STEPS), default=81,
              show_default=True)
@click.option("--log-decades", type=_FiniteFloat(MAX_LOG_DECADES), default=None,
              help=f"log tail reach, at most {MAX_LOG_DECADES:g}; "
                   "default covers the discrete spectrum")
@click.option("--out", required=True)
@click.option("--format", type=click.Choice(["csv", "json"]), default="csv")
@_exit_code_guard
def resolvent(config, scheme, n_list, k, beta_min, beta_max, linear_steps, log_decades,
              out, format):
    """Weighted resolvent-norm sweeps along the imaginary axis."""
    _check_n_cap(n_list, MAX_N_LIST, "resolvent")
    meshes = [Mesh(n) for n in n_list]
    spectra = [spectral_abscissa(SemiDiscreteSystem(sch, mesh, k))  # one per system
               for sch in SCHEME_CHOICES[scheme] for mesh in meshes]
    for spec in spectra:
        system = spec.system
        if system.scheme == CLASSICAL:  # the classical sup sits at the top root's peak
            lam = spec.eigenvalues
            if in_spectrum(system.mesh, k, lam[np.argmax(lam.real)].imag, CLASSICAL):
                raise click.UsageError(
                    f"--n-list grid size {system.n} at --k {k:g}: the classical resolvent peak "
                    "is narrower than the solver's spectrum tolerance")
    sweeps = [sweep_with_spectrum(spec, beta_min, beta_max, linear_steps, log_decades)
              for spec in spectra]
    out = _out_path(out)
    if format == "csv":
        _write_csv(
            out, config,
            ("scheme,N,k,beta,norm", itertools.chain.from_iterable(
                # the prefix holds no "%": a scheme name, an int and a formatted float
                map(f"{sw.system.scheme},{sw.system.n},{sw.system.k:.17g},%.17g,%.17g".__mod__,
                    zip(sw.beta_grid.tolist(), sw.norms.tolist()))
                for sw in sweeps)),
            ("sup_norm,argmax_beta", (
                f"{sw.sup_norm:.17g},{sw.argmax_beta:.17g}" for sw in sweeps)),
        )
    else:
        _write_json(out, config, sweeps=[{
            "scheme": sw.system.scheme, "n": sw.system.n, "k": sw.system.k,
            "beta": list(sw.beta_grid), "norm": list(sw.norms),
            "sup_norm": sw.sup_norm, "argmax_beta": sw.argmax_beta,
        } for sw in sweeps])
    click.echo(f"wrote {len(sweeps)} sweeps to {out}")


@main.command("simulate")
@click.option("--scheme",
              type=click.Choice([c for c in sorted(SCHEME_CHOICES) if c != "both"]),
              default="order-reduction")
@click.option("--n", type=click.IntRange(max=MAX_N), required=True)
@click.option("--k", type=FINITE_FLOAT, default=1.0, show_default=True)
@click.option("--dt", type=FINITE_FLOAT, default=1e-3, show_default=True)
@click.option("--t-final", type=FINITE_FLOAT, default=3.0, show_default=True)
@click.option("--preset", type=click.Choice(["random", "smooth", "sine"]), default="smooth")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True)
@_exit_code_guard
def simulate_cmd(config, scheme, n, k, dt, t_final, preset, seed, out):
    """Energy-decay simulation with per-step dissipation accounting.

    The step gap is the defect of the order-reduction dissipation identity,
    which the classical scheme does not satisfy: its gap is not at roundoff.
    """
    if dt > 0 and not t_final / dt < MAX_STEPS + 0.5:
        raise click.UsageError(
            f"--t-final/--dt ask for {t_final / dt:.3g} steps, above the cap of {MAX_STEPS}"
        )
    system = SemiDiscreteSystem(SCHEME_CHOICES[scheme][0], Mesh(n), k)
    W0 = initial_state(preset, system, seed=seed)
    trace = simulate(system, W0, dt, t_final)  # refuses t_final < dt: at least one step
    steps = trace.step_gaps.size
    out = _out_path(out)
    rows = zip(trace.times[1:].tolist(), trace.energies[1:].tolist(),
               map(abs, trace.boundary_values.tolist()),  # np.abs rounds some differently
               trace.step_gaps.tolist())
    _write_csv(out, config, ("t,energy,boundary_abs,step_gap",
                             map("%.17g,%.17g,%.17g,%.6g".__mod__, rows)))
    try:
        omega_fit = fit_decay_rate(trace, t_final / 2, trace.times[-1])  # may exceed t_final
    except ValueError:
        # short runs or runs that hit exact zero energy have no usable fit
        omega_fit = None
    _write_json(
        out + ".summary.json", config,
        scheme=system.scheme, n=n, h=system.mesh.h, k=k,
        initial_energy=float(trace.energies[0]),
        final_energy=float(trace.energies[-1]),
        max_step_gap=float(np.max(np.abs(trace.step_gaps))),
        omega_fit=omega_fit,
    )
    click.echo(f"wrote {steps} steps to {out}")


@main.command()
@click.option("--samples", type=click.IntRange(max=MAX_SAMPLES), default=100,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--beta", type=FINITE_FLOAT, default=3.7, show_default=True)
@click.option("--perturb", type=FINITE_FLOAT, default=0.0,
              help="inject a fault of this size into one matrix entry")
@click.option("--json", "as_json", is_flag=True, default=False)
@_exit_code_guard
def verify(config, samples, seed, beta, perturb, as_json):
    """Run the exact-identity suite; exit 0 iff every gap passes."""
    try:
        reports = run_identity_suite(samples=samples, seed=seed, beta=beta, perturb=perturb)
    except ValueError as exc:
        if not str(exc).startswith("beta"):  # the suite's refusals of beta name the option
            raise
        raise click.BadParameter(str(exc), param_hint="'--beta'") from exc
    if as_json:
        click.echo(_envelope(config, reports=[{
            "identity": r.identity, "n": r.n, "k": r.k, "seed": r.seed,
            "gap": r.gap, "scale": r.scale, "relative_gap": r.relative_gap,
            "tolerance": r.tolerance, "passed": r.passed,
        } for r in reports]), nl=False)
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
