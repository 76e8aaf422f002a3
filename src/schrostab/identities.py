"""Executable forms of the exact multiplier identities.

Each operation returns the defect ("gap") of an algebraic identity that
holds exactly in exact arithmetic for arbitrary inputs satisfying the
stated padding conventions (y_0 = 0 on state vectors, z_{N+1} = -i k
y_{N+1} on shadow vectors).  The gaps are the property-test backbone: they
must vanish to roundoff relative to the largest term entering the identity.

All operations accept a single vector (shape (N+1,)) or a batch (shape
(N+1, m)); gaps are then scalars or length-m arrays.  Each gap comes with
the scale of the largest term entering its identity, the denominator of
the relative defect the suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    Mesh,
    average,
    difference,
    extend_shadow,
    extend_state,
    shadow_element,
    triple_sum_identity_gap,
    yh_inner,
)
from .systems import dissipation_gap

__all__ = [
    "MultiplierReport",
    "boundary_multiplier_gap_y",
    "boundary_multiplier_gap_z",
    "cross_term_gap",
    "claim_functionals_gap",
    "run_identity_suite",
    "SUITE_TOLERANCES",
]


def _boundary_gap(ext: np.ndarray, mesh: Mesh):
    mids = average(ext)
    difs = difference(ext, mesh.h)
    x_mid = mesh.midpoints()
    if ext.ndim > 1:
        x_mid = x_mid[:, None]
    h = mesh.h
    lhs = 2.0 * np.real(h * np.sum(x_mid * mids * np.conj(difs), axis=0))
    t_boundary = np.abs(ext[-1]) ** 2
    t_mid = h * np.sum(np.abs(mids) ** 2, axis=0)
    t_dif = (h**3 / 4.0) * np.sum(np.abs(difs) ** 2, axis=0)
    gap = np.abs(lhs - (t_boundary - t_mid - t_dif))
    scale = np.max(np.stack([np.abs(lhs), t_boundary, t_mid, t_dif]), axis=0)
    return gap, scale


def boundary_multiplier_gap_y(Y, mesh: Mesh):
    """Defect of the x-weighted boundary multiplier identity for a state.

    With the leading zero padded on, twice the real part of the weighted
    cross sum equals the boundary magnitude minus the midpoint and scaled
    difference energies.  Returns (gap, scale).
    """
    ext = extend_state(np.asarray(Y, dtype=complex), mesh)
    return _boundary_gap(ext, mesh)


def boundary_multiplier_gap_z(Zext, mesh: Mesh):
    """Same identity for an extended vector, boundary role at the far end.

    No padding convention is needed: the x_0 = 0 factor removes the first
    node from the telescoped boundary term.  Returns (gap, scale).
    """
    Zext = np.asarray(Zext, dtype=complex)
    if Zext.shape[0] != mesh.n + 2:
        raise ValueError(
            f"extended vector on mesh n={mesh.n} needs length {mesh.n + 2}, "
            f"got {Zext.shape[0]}"
        )
    return _boundary_gap(Zext, mesh)


def cross_term_gap(Y, k: float, mesh: Mesh):
    """Defect of the state/derivative cross-term cancellation.

    With Z the shadow element of Y and both vectors extended by their
    conventions, the paired midpoint-difference cross sum equals minus
    twice the midpoint energy of z; the boundary pairing drops out because
    y conj(z) at the damped end is purely imaginary.  Returns (gap, scale).
    """
    Y = np.asarray(Y, dtype=complex)
    Z = shadow_element(Y, k, mesh)
    yext = extend_state(Y, mesh)
    zext = extend_shadow(Z, Y, k, mesh)
    h = mesh.h
    y_mid = average(yext)
    z_mid = average(zext)
    dz = difference(zext, h)
    cross = h * np.sum(np.conj(y_mid) * dz + y_mid * np.conj(dz), axis=0)
    t_z = 2.0 * h * np.sum(np.abs(z_mid) ** 2, axis=0)
    gap = np.abs(cross + t_z)
    scale = np.maximum(np.abs(cross), t_z)
    return gap, scale


def claim_functionals_gap(Y, k: float, beta: float, mesh: Mesh, matrices=None):
    """Defects of the matrix-norm versus midpoint-sum functional equalities.

    Both functionals mix the weighted state norm with Sigma/Delta norms of
    the extended vectors; with the (N+1)x(N+2) operator orientation the
    matrix and sum forms agree exactly for any beta != 0.
    Returns {"gap_claim2", "gap_claim3", "scale_claim2", "scale_claim3"}.
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    Y = np.asarray(Y, dtype=complex)
    Z = shadow_element(Y, k, mesh)
    yext = extend_state(Y, mesh)
    zext = extend_shadow(Z, Y, k, mesh)
    sm = matrices if matrices is not None else mesh.matrices
    h = mesh.h

    y_norm2 = np.real(yh_inner(Y, Y, mesh))
    sig_z = h * np.sum(np.abs(sm.Sigma @ zext) ** 2, axis=0)
    del_z = h * np.sum(np.abs(sm.Delta @ zext) ** 2, axis=0)
    del_y = h * np.sum(np.abs(sm.Delta @ yext) ** 2, axis=0)

    s_y = h * np.sum(np.abs(average(yext)) ** 2, axis=0)
    s_z = h * np.sum(np.abs(average(zext)) ** 2, axis=0)
    s_dz = h * np.sum(np.abs(difference(zext, h)) ** 2, axis=0)
    s_dy = h * np.sum(np.abs(difference(yext, h)) ** 2, axis=0)

    m2 = [y_norm2, sig_z / beta, (h**2 / (4 * beta)) * del_z, (h**2 / 4) * del_y]
    s2 = [s_y, s_z / beta, (h**2 / (4 * beta)) * s_dz, (h**2 / 4) * s_dy]
    gap2 = np.abs(sum(m2) - sum(s2))

    m3 = [y_norm2, del_z / beta**2, -2.0 * sig_z / beta]
    s3 = [s_y, s_dz / beta**2, -2.0 * s_z / beta]
    gap3 = np.abs(sum(m3) - sum(s3))

    return {
        "gap_claim2": gap2,
        "gap_claim3": gap3,
        "scale_claim2": np.max(np.abs(np.stack(m2 + s2)), axis=0),
        "scale_claim3": np.max(np.abs(np.stack(m3 + s3)), axis=0),
    }


@dataclass(frozen=True)
class MultiplierReport:
    """Worst relative defect of one identity over a seeded batch."""

    identity: str
    n: int
    k: float
    seed: int
    gap: float
    scale: float
    tolerance: float

    @property
    def relative_gap(self) -> float:
        return self.gap / self.scale if self.scale > 0 else self.gap

    @property
    def passed(self) -> bool:
        return self.relative_gap <= self.tolerance


SUITE_TOLERANCES = {
    "triple_sum": 1e-12,
    "dissipation": 1e-10,
    "boundary_multiplier_y": 1e-12,
    "boundary_multiplier_z": 1e-12,
    "cross_term": 1e-12,
    "claim2": 1e-12,
    "claim3": 1e-12,
}

DEFAULT_SUITE_N = (1, 2, 7, 64, 255)
DEFAULT_SUITE_K = (0.1, 1.0, 10.0)


def _random_states(rng, size: int, batch: int) -> np.ndarray:
    return rng.standard_normal((size, batch)) + 1j * rng.standard_normal((size, batch))


def run_identity_suite(
    n_values=DEFAULT_SUITE_N,
    samples: int = 100,
    seed: int = 0,
    beta: float = 3.7,
    perturb: float = 0.0,
) -> list[MultiplierReport]:
    """Evaluate every identity on seeded random batches; one report each.

    `perturb` injects a fault into one entry of the Sigma matrix used by the
    functional equalities, as a sensitivity check that the suite actually
    detects broken algebra.
    """
    if samples <= 0:
        raise ValueError(f"samples must be positive, got samples={samples}")
    rng = np.random.default_rng(seed)
    reports = []
    for n in n_values:
        mesh = Mesh(n)
        sm = mesh.matrices
        if perturb != 0.0:
            Sigma = sm.Sigma.copy()
            Sigma[0, 0] += perturb
            sm = replace(sm, Sigma=Sigma)

        u, v, w = (_random_states(rng, n + 2, samples) for _ in range(3))
        gap = np.abs(triple_sum_identity_gap(u, v, w))
        scale = (
            np.max(np.abs(u), axis=0) * np.max(np.abs(v), axis=0) * np.max(np.abs(w), axis=0)
        ) * (n + 2)
        # triple_sum is gain-independent; report it under k = 0
        _append_worst(reports, "triple_sum", n, 0.0, seed, gap, scale)

        for k in DEFAULT_SUITE_K:
            Y = _random_states(rng, n + 1, samples)
            g, s = dissipation_gap(Y, k, mesh)
            _append_worst(reports, "dissipation", n, k, seed, g, s)

            g, s = boundary_multiplier_gap_y(Y, mesh)
            _append_worst(reports, "boundary_multiplier_y", n, k, seed, g, s)

            Zext = _random_states(rng, n + 2, samples)
            g, s = boundary_multiplier_gap_z(Zext, mesh)
            _append_worst(reports, "boundary_multiplier_z", n, k, seed, g, s)

            g, s = cross_term_gap(Y, k, mesh)
            _append_worst(reports, "cross_term", n, k, seed, g, s)

            cf = claim_functionals_gap(Y, k, beta, mesh, matrices=sm)
            _append_worst(reports, "claim2", n, k, seed, cf["gap_claim2"], cf["scale_claim2"])
            _append_worst(reports, "claim3", n, k, seed, cf["gap_claim3"], cf["scale_claim3"])
    return reports


def _append_worst(reports, name, n, k, seed, gaps, scales):
    rel = np.where(np.asarray(scales) > 0, np.asarray(gaps) / np.asarray(scales), gaps)
    worst = int(np.argmax(rel))
    reports.append(
        MultiplierReport(
            name, n, float(k), seed,
            float(np.atleast_1d(gaps)[worst]), float(np.atleast_1d(scales)[worst]),
            SUITE_TOLERANCES[name],
        )
    )
