"""The four workloads: the CLI arguments of each operation and the checks on its outputs.

Every operation is one ``schrostab`` command.  Its outputs are written under
``$SCHROSTAB_OUTDIR``, which the runner points at a fresh directory per
operation.  A check returns a list of failure messages; an empty list means
the operation's outputs are correct.

Reference values were captured from the seed commit with one OpenBLAS thread
(Python 3.11, numpy 2.4, scipy 1.17).  Tolerances are stated next to them.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# spectrum --scheme both: spectral abscissa per (scheme, N).
SPECTRUM_REFERENCE = {
    ("order_reduction", 63): -1.9416267715206759,
    ("order_reduction", 255): -1.9413309960929632,
    ("order_reduction", 1023): -1.941313426399868,
    ("classical", 63): -0.003528028433720465,
    ("classical", 255): -0.00022456698239527688,
    ("classical", 1023): -1.4097384748334996e-05,
}
# Relative tolerance per scheme.  Between one and two OpenBLAS threads the
# N=1023 abscissa moved by 7.2e-7 (order reduction) and 3.6e-5 (classical,
# whose abscissa is near 0); both tolerances leave a margin of about 14-28x.
ABSCISSA_RTOL = {"order_reduction": 1e-5, "classical": 1e-3}
# Order-reduction abscissa against the continuous decay rate (criterion 5).
CONTINUOUS_RTOL = 0.05

# resolvent --scheme both: sup of the weighted resolvent norm per (scheme, N).
RESOLVENT_REFERENCE = {
    ("order_reduction", 15): 0.5258667768522194,
    ("order_reduction", 63): 0.5273026891040297,
    ("order_reduction", 127): 0.5273745962693134,
    ("classical", 15): 32.235799885104534,
    ("classical", 63): 487.12017999287184,
    ("classical", 127): 1932.2510780299212,
}
# Largest change seen between thread counts was 1e-9 relative.
SUP_RTOL = 1e-6
# Criterion 6: the order-reduction sups stay within a factor 2 of each other.
OR_SUP_RATIO_MAX = 2.0

# simulate: order-reduction decay at the continuous rate.
DECAY_RATE = 1.9413  # minus the continuous abscissa
DECAY_RATE_RTOL = 0.15  # seeds 0, 1, 2, 7 gave 1.933, 1.938, 1.949, 1.915
STEP_GAP_MAX = 1e-8  # worst |step gap| / E0; seeds gave 9.0e-10 to 2.0e-9
MONOTONE_SLACK = 1e-14  # energies may rise by at most this times E0 per step

# verify: 5 grid sizes x (triple sum + 3 gains x 6 identities).
VERIFY_REPORTS = 95
PERTURB = "1e-6"

SCHEMES = ("order_reduction", "classical")


@dataclass(frozen=True)
class Op:
    """What one CLI invocation left behind."""

    code: int
    stdout: str
    outdir: str
    stderr: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]
    check: Callable[[Op], list[str]]
    warmup: list[str]  # smallest invocation of the same command, timed only as set-up
    # Operations run once per run after the timed loop, each with its own check.
    extra: tuple[tuple[list[str], Callable[[Op], list[str]]], ...] = ()


def _exit_code(op: Op, expected: int) -> list[str]:
    if op.code != expected:
        return [f"exit code {op.code}, expected {expected}: {op.stderr.strip()[-300:]}"]
    return []


def _close(got: float, ref: float, rtol: float) -> bool:
    return abs(got - ref) <= rtol * abs(ref)


def _shuffled(values, seed: int) -> list[int]:
    """These commands take no seed; the workload seed orders the N list."""
    values = list(values)
    random.Random(seed).shuffle(values)
    return values


def _read(op: Op, name: str) -> str:
    with open(os.path.join(op.outdir, name)) as fh:
        return fh.read()


def spectrum_ladder(seed: int, n_list=(63, 255, 1023), reference=SPECTRUM_REFERENCE) -> Workload:
    ns = _shuffled(n_list, seed)

    def check(op: Op) -> list[str]:
        errors = _exit_code(op, 0)
        if errors:
            return errors
        rows = json.loads(_read(op, "spectrum.json"))["rows"]
        got = {(r["scheme"], r["n"]): r["abscissa"] for r in rows}
        if set(got) != set(reference):
            return [f"rows {sorted(got)} do not match {sorted(reference)}"]
        for key, ref in reference.items():
            if not _close(got[key], ref, ABSCISSA_RTOL[key[0]]):
                errors.append(f"{key} abscissa {got[key]!r}, reference {ref!r}")
        from schrostab import continuous

        rate = max(r.real for r in continuous.characteristic_roots(1.0, 50))
        for n in n_list:
            if not _close(got["order_reduction", n], rate, CONTINUOUS_RTOL):
                errors.append(f"N={n} order-reduction abscissa far from continuous {rate:.6f}")
        cl = [abs(got["classical", n]) for n in sorted(n_list)]
        if any(b >= a for a, b in zip(cl, cl[1:])):
            errors.append(f"classical abscissae do not shrink with N: {cl}")
        return errors

    return Workload(
        name="spectrum-ladder",
        argv=["spectrum", "--scheme", "both", "--n-list", ",".join(map(str, ns)),
              "--format", "json", "--out", "spectrum.json"],
        check=check,
        warmup=["spectrum", "--scheme", "both", "--n-list", "3",
                "--format", "json", "--out", "spectrum.json"],
    )


def resolvent_sweep(seed: int, n_list=(15, 63, 127), reference=RESOLVENT_REFERENCE) -> Workload:
    ns = _shuffled(n_list, seed)

    def check(op: Op) -> list[str]:
        errors = _exit_code(op, 0)
        if errors:
            return errors
        lines = _read(op, "resolvent.csv").splitlines()
        sups = [float(line.split(",")[0])
                for line in lines[lines.index("sup_norm,argmax_beta") + 1:]]
        # The CLI writes one sup line per sweep, schemes outer, N inner.
        keys = [(s, n) for s in SCHEMES for n in ns]
        if len(sups) != len(keys):
            return [f"{len(sups)} sup lines, expected {len(keys)}"]
        got = dict(zip(keys, sups))
        for key, ref in reference.items():
            if not _close(got[key], ref, SUP_RTOL):
                errors.append(f"{key} sup_norm {got[key]!r}, reference {ref!r}")
        or_sups = [got["order_reduction", n] for n in n_list]
        if max(or_sups) > OR_SUP_RATIO_MAX * min(or_sups):
            errors.append(f"order-reduction sups not uniform: {or_sups}")
        cl = [got["classical", n] for n in sorted(n_list)]
        if any(b <= a for a, b in zip(cl, cl[1:])):
            errors.append(f"classical sups not increasing with N: {cl}")
        return errors

    return Workload(
        name="resolvent-sweep",
        argv=["resolvent", "--scheme", "both", "--n-list", ",".join(map(str, ns)),
              "--out", "resolvent.csv"],
        check=check,
        warmup=["resolvent", "--scheme", "both", "--n-list", "3", "--out", "resolvent.csv"],
    )


def decay_sim(seed: int, n: int = 1023) -> Workload:
    steps = 3000  # --t-final 3 at --dt 1e-3

    def check(op: Op) -> list[str]:
        errors = _exit_code(op, 0)
        if errors:
            return errors
        summary = json.loads(_read(op, "decay.csv.summary.json"))
        e0 = summary["initial_energy"]
        rows = _read(op, "decay.csv").splitlines()[1:]
        if len(rows) != steps:
            errors.append(f"{len(rows)} rows, expected {steps}")
        ratio = summary["max_step_gap"] / e0
        if not ratio <= STEP_GAP_MAX:
            errors.append(f"max step gap / E0 = {ratio:.3e} exceeds {STEP_GAP_MAX:g}")
        prev = e0
        for row in rows:
            energy = float(row.split(",")[1])
            if energy > prev + MONOTONE_SLACK * e0:
                errors.append(f"energy rises at t={row.split(',')[0]}")
                break
            prev = energy
        omega = summary["omega_fit"]
        if omega is None or not _close(omega, DECAY_RATE, DECAY_RATE_RTOL):
            errors.append(f"omega_fit {omega} not within {DECAY_RATE_RTOL:.0%} of {DECAY_RATE}")
        return errors

    common = ["simulate", "--scheme", "order-reduction", "--dt", "1e-3", "--preset", "smooth",
              "--seed", str(seed), "--out", "decay.csv"]
    return Workload(
        name="decay-sim",
        argv=common + ["--n", str(n), "--t-final", "3"],
        check=check,
        warmup=common + ["--n", "3", "--t-final", "0.02"],
    )


def identity_verify(seed: int, samples: int = 2000) -> Workload:
    def reports(op: Op) -> list[dict]:
        return json.loads(op.stdout)["reports"]

    def check(op: Op) -> list[str]:
        errors = _exit_code(op, 0)
        if errors:
            return errors
        reps = reports(op)
        if len(reps) != VERIFY_REPORTS:
            errors.append(f"{len(reps)} reports, expected {VERIFY_REPORTS}")
        failed = [(r["identity"], r["n"], r["k"]) for r in reps if not r["passed"]]
        if failed:
            errors.append(f"identities failed: {failed}")
        return errors

    def check_perturbed(op: Op) -> list[str]:
        errors = _exit_code(op, 1)
        if not errors and all(r["passed"] for r in reports(op)):
            errors.append("perturbed run reports every identity passed")
        return errors

    argv = ["verify", "--samples", str(samples), "--seed", str(seed), "--json"]
    return Workload(
        name="identity-verify",
        argv=argv,
        check=check,
        warmup=["verify", "--samples", "2", "--seed", str(seed), "--json"],
        extra=((argv + ["--perturb", PERTURB], check_perturbed),),
    )


WORKLOADS = {
    "spectrum-ladder": spectrum_ladder,
    "resolvent-sweep": resolvent_sweep,
    "decay-sim": decay_sim,
    "identity-verify": identity_verify,
}
