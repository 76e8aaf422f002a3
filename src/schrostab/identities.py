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

Each identity has one private kernel.  A public gap function builds the
pieces of its batch and calls the kernel; `run_identity_suite` calls the
kernels themselves, so of the public gap functions only
`boundary_multiplier_gap_z` runs in a command, and the other three stay
because the benchmark binds them.  The suite takes the kernels on column
blocks of about 2^14 entries, which stay in cache.  It builds the shadow
element, the extended vectors, their cell values and the energy sums two
identities share once per block.  The main thread and one worker, once it
has drawn the next seeded batch, take each block once from one list.  A
column's defect depends neither on its block's width nor on the thread.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .grid import (
    Mesh,
    _d_inner,
    _row_blocks,
    _sized,
    average,
    difference,
    extend_shadow,
    extend_state,
    shadow_element,
    triple_sum_identity_gap,
)
from .systems import _dissipation_gap

__all__ = [
    "MultiplierReport",
    "boundary_multiplier_gap_y",
    "boundary_multiplier_gap_z",
    "cross_term_gap",
    "claim_functionals_gap",
    "run_identity_suite",
    "SUITE_TOLERANCES",
    "MAX_SAMPLES",
]


class _Block(NamedTuple):
    """Y, its shadow element Z, D Y, both extended, their cell values and three energy sums."""

    Y: np.ndarray
    Z: np.ndarray
    DY: np.ndarray
    yext: np.ndarray
    zext: np.ndarray
    y_mid: np.ndarray
    y_dif: np.ndarray
    z_mid: np.ndarray
    z_dif: np.ndarray
    e_ymid: np.ndarray
    e_ydif: np.ndarray
    e_zmid: np.ndarray


def _energy(a):
    return np.sum(np.abs(a) ** 2, axis=0)


def _block(Y, k: float, mesh: Mesh) -> _Block:
    Y = np.asarray(Y, dtype=complex)
    Z = shadow_element(Y, k, mesh)
    yext = extend_state(Y, mesh)
    zext = extend_shadow(Z, Y, k, mesh)
    y_mid, y_dif, z_mid = average(yext), difference(yext, mesh.h), average(zext)
    return _Block(Y, Z, mesh.matrices.D @ Y, yext, zext, y_mid, y_dif, z_mid,
                  difference(zext, mesh.h), _energy(y_mid), _energy(y_dif), _energy(z_mid))


def _boundary_gap(last, mids, difs, mesh: Mesh, e_mid=None, e_dif=None):
    """The boundary multiplier defect of an extended vector from its last entry, its
    cell averages, its scaled differences and the column sums of their |.|^2, if known."""
    x_mid = mesh.midpoints()
    if mids.ndim > 1:
        x_mid = x_mid[:, None]
    h = mesh.h
    lhs = 2.0 * np.real(h * np.sum(x_mid * mids * np.conj(difs), axis=0))
    t_boundary = np.abs(last) ** 2
    t_mid = h * (_energy(mids) if e_mid is None else e_mid)
    t_dif = (h**3 / 4.0) * (_energy(difs) if e_dif is None else e_dif)
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
    return _boundary_gap(ext[-1], average(ext), difference(ext, mesh.h), mesh)


def boundary_multiplier_gap_z(Zext, mesh: Mesh):
    """Same identity for an extended vector, boundary role at the far end.

    No padding convention is needed: the x_0 = 0 factor removes the first
    node from the telescoped boundary term.  Returns (gap, scale).
    """
    Zext = _sized(Zext, mesh.n + 2, "extended", mesh)
    return _boundary_gap(Zext[-1], average(Zext), difference(Zext, mesh.h), mesh)


def cross_term_gap(Y, k: float, mesh: Mesh):
    """Defect of the state/derivative cross-term cancellation.

    With Z the shadow element of Y and both vectors extended by their
    conventions, the paired midpoint-difference cross sum equals minus
    twice the midpoint energy of z; the boundary pairing drops out because
    y conj(z) at the damped end is purely imaginary.  Returns (gap, scale).
    """
    return _cross_term_gap(_block(Y, k, mesh), mesh)


def _cross_term_gap(b: _Block, mesh: Mesh):
    h = mesh.h
    # Both conjugates are named so that numpy cannot multiply in place in a
    # temporary.  It does so for large temporaries, with the factors swapped,
    # and complex products round differently in the two orders: the gap
    # would depend on the width of the block.
    cy, cz = np.conj(b.y_mid), np.conj(b.z_dif)
    cross = h * np.sum(cy * b.z_dif + b.y_mid * cz, axis=0)
    t_z = 2.0 * h * b.e_zmid
    gap = np.abs(cross + t_z)
    scale = np.maximum(np.abs(cross), t_z)
    return gap, scale


def claim_functionals_gap(Y, k: float, beta: float, mesh: Mesh):
    """Defects of the matrix-norm versus midpoint-sum functional equalities.

    Both functionals mix the weighted state norm with Sigma/Delta norms of
    the extended vectors; with the (N+1)x(N+2) operator orientation the
    matrix and sum forms agree exactly for any beta != 0.  ValueError where beta = 0, or
    where beta^2 or a term of either functional is not finite.
    Returns {"gap_claim2", "gap_claim3", "scale_claim2", "scale_claim3"}.
    """
    return _claim_functionals_gap(_block(Y, k, mesh), beta, mesh)


def _claim_functionals_gap(b: _Block, beta: float, mesh: Mesh, perturb: float = 0.0):
    if beta == 0 or not np.isfinite(beta * beta):
        raise ValueError(f"beta must be nonzero, with a finite square, got beta={beta!r}")
    h = mesh.h
    sm = mesh.matrices
    y_norm2 = np.real(_d_inner(b.DY, b.DY, h))
    sz = sm.Sigma @ b.zext
    # row 0 again, rounded as the product rounds it, with perturb added to Sigma[0, 0]
    sz[0] = (sm.Sigma.main + perturb) * b.zext[0] + sm.Sigma.off * b.zext[1]
    sig_z = h * _energy(sz)
    del_z = h * _energy(sm.Delta @ b.zext)
    del_y = h * _energy(sm.Delta @ b.yext)

    s_y, s_z, s_dy = h * b.e_ymid, h * b.e_zmid, h * b.e_ydif
    s_dz = h * _energy(b.z_dif)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused below
        m2 = [y_norm2, sig_z / beta, (h**2 / (4 * beta)) * del_z, (h**2 / 4) * del_y]
        s2 = [s_y, s_z / beta, (h**2 / (4 * beta)) * s_dz, (h**2 / 4) * s_dy]
        gap2 = np.abs(sum(m2) - sum(s2))

        m3 = [y_norm2, del_z / beta**2, -2.0 * sig_z / beta]
        s3 = [s_y, s_dz / beta**2, -2.0 * s_z / beta]
        gap3 = np.abs(sum(m3) - sum(s3))
    scale2, scale3 = (np.max(np.abs(np.stack(terms)), axis=0) for terms in (m2 + s2, m3 + s3))
    if not (np.all(np.isfinite(scale2)) and np.all(np.isfinite(scale3))):
        raise ValueError(f"beta={beta!r} puts the claim-2 or claim-3 terms out of range")
    return {"gap_claim2": gap2, "gap_claim3": gap3, "scale_claim2": scale2, "scale_claim3": scale3}


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
# The default suite peaks at about 26 KiB per sample above the imports (255 MiB
# at the cap, 1.6-1.8 s on a 2-core machine with one BLAS thread).
MAX_SAMPLES = 10**4
# Entries per column block of a batch: 256 KiB of complex128.  2^15 ran as fast with up to
# 8% more peak RSS; from 2^13 down, two threads hand the GIL over more than a core gains.
_BLOCK_ELEMENTS = 1 << 14
# in report order
_GAIN_IDENTITIES = (
    "dissipation", "boundary_multiplier_y", "boundary_multiplier_z", "cross_term", "claim2", "claim3"
)


def _random_states(rng, size: int, batch: int) -> np.ndarray:
    """standard_normal + 1j * standard_normal, bit for bit, with one real temporary."""
    states, draw = np.empty((size, batch), dtype=complex), np.empty((size, batch))
    states.real = rng.standard_normal(out=draw)
    states.imag = rng.standard_normal(out=draw)
    return states


def _shared(pool, task, evaluate, blocks):
    """evaluate(cols) for each of blocks, once each, on this thread and on pool's one
    worker, which runs task() first; task()'s result (or error) once both are done.
    """
    todo = deque([*blocks, None, None])  # one stop for each thread

    def take(task=lambda: None):
        result = task()
        for cols in iter(todo.popleft, None):  # popleft is atomic
            evaluate(cols)
        return result

    ahead = pool.submit(take, task)
    try:
        take()
    finally:
        result = ahead.result()  # after an error here too, so that no error goes unread
    return result


def _triple_block(defects, n, u, v, w, cols):
    ub, vb, wb = (np.ascontiguousarray(a[:, cols]) for a in (u, v, w))
    defects[0, cols] = np.abs(triple_sum_identity_gap(ub, vb, wb))
    defects[1, cols] = np.prod([np.max(np.abs(a), axis=0) for a in (ub, vb, wb)], axis=0) * (n + 2)


def _gain_block(defects, k, beta, perturb, mesh, Y, Zext, cols):
    Yb, Zb = (np.ascontiguousarray(a[:, cols]) for a in (Y, Zext))
    b = _block(Yb, k, mesh)
    defects["dissipation"][:, cols] = _dissipation_gap(b.Y, b.Z, b.DY, k, mesh)
    defects["boundary_multiplier_y"][:, cols] = _boundary_gap(
        b.Y[-1], b.y_mid, b.y_dif, mesh, b.e_ymid, b.e_ydif)
    defects["boundary_multiplier_z"][:, cols] = boundary_multiplier_gap_z(Zb, mesh)
    defects["cross_term"][:, cols] = _cross_term_gap(b, mesh)
    cf = _claim_functionals_gap(b, beta, mesh, perturb)
    for claim in ("claim2", "claim3"):
        defects[claim][:, cols] = cf["gap_" + claim], cf["scale_" + claim]


def _column_blocks(samples: int, rows: int) -> list[slice]:
    """Column slices of a batch with `rows` rows, about _BLOCK_ELEMENTS entries each.

    No block is one column wide unless the batch is: numpy sums a lone
    column pairwise but a wider block row by row, so a lone column would
    round differently from the same column in a wider block.
    """
    blocks = list(_row_blocks(np.arange(samples), rows, max(_BLOCK_ELEMENTS, 2 * rows)))
    if len(blocks) > 1 and blocks[-1].size == 1:
        blocks[-2:] = [np.concatenate(blocks[-2:])]
    return [slice(c[0], c[-1] + 1) for c in blocks]


def run_identity_suite(
    n_values=DEFAULT_SUITE_N,
    samples: int = 100,
    seed: int = 0,
    beta: float = 3.7,
    perturb: float = 0.0,
) -> list[MultiplierReport]:
    """Evaluate every identity on seeded random batches; one report each.

    Each batch is evaluated in column blocks that stay in cache, with the
    shadow element, the extended vectors and the shared energy sums formed
    once per block.  One worker thread draws each batch in the seeded order
    while the main thread evaluates the one before, then joins it in that.

    `perturb` injects a fault into one entry of the Sigma matrix used by the
    functional equalities, as a sensitivity check that the suite actually detects
    broken algebra.  A beta that `claim_functionals_gap` refuses raises ValueError.
    """
    if samples <= 0:
        raise ValueError(f"samples must be positive, got samples={samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples {samples} exceeds the cap of {MAX_SAMPLES}")
    rng = np.random.default_rng(seed)
    # per grid size: u, v, w for the triple sum, then Y and Zext per gain
    plan = iter([
        sizes
        for n in n_values
        for sizes in [(n + 2,) * 3] + [(n + 1, n + 2)] * len(DEFAULT_SUITE_K)
    ])

    def draw():
        return [_random_states(rng, size, samples) for size in next(plan, ())]

    reports = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        batch = pool.submit(draw).result()
        for n in n_values:
            mesh = Mesh(n)
            blocks = _column_blocks(samples, n + 2)
            defects = np.empty((2, samples))
            batch = _shared(pool, draw, partial(_triple_block, defects, n, *batch), blocks)
            # triple_sum is gain-independent; report it under k = 0
            _append_worst(reports, "triple_sum", n, 0.0, seed, *defects)
            for k in DEFAULT_SUITE_K:
                defects = {name: np.empty((2, samples)) for name in _GAIN_IDENTITIES}
                evaluate = partial(_gain_block, defects, k, beta, perturb, mesh, *batch)
                batch = _shared(pool, draw, evaluate, blocks)
                for name, (gaps, scales) in defects.items():
                    _append_worst(reports, name, n, k, seed, gaps, scales)
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
