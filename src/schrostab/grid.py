"""Uniform meshes on [0, 1] and the discrete calculus built on them.

Everything downstream (generators, multiplier identities, energy norms) is
expressed through four objects defined here: the midpoint average, the scaled
first difference, the bidiagonal scheme matrices, and the weighted inner
product induced by the lower-bidiagonal averaging matrix.  The scheme
matrices have one banded form, `Bidiagonal`, which each mesh builds once
(`Mesh.matrices`); products are `D @`, `M @` and `M.T @`, the transpose
built once per matrix, and solve_d and solve_dt apply the closed-form
inverses of D and D.T, an alternating cumulative sum in O(N).  Nothing here
forms a dense operator or imports SciPy.

Index conventions: a *state* vector holds nodes 1..N+1, a *shadow* vector
holds nodes 0..N, and an *extended* vector holds nodes 0..N+1.  Mixing them
up is the classic off-by-one trap of this scheme, so functions that take a
mesh check the lengths of the vectors they are given against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Mesh",
    "Bidiagonal",
    "SchemeMatrices",
    "average",
    "difference",
    "build_scheme_matrices",
    "shadow_element",
    "extend_state",
    "extend_shadow",
    "triple_sum_identity_gap",
]

@dataclass(frozen=True)
class Mesh:
    """Equidistant partition of [0, 1] with N interior steps parameter.

    h = 1/(N+1); nodes are x_j = j*h for j = 0..N+1.  Both are derived from
    N, so meshes compare and hash by N alone.
    """

    n: int
    h: float = field(init=False, compare=False)
    nodes: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"mesh needs n >= 1, got n={self.n}")
        h = 1.0 / (self.n + 1)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", np.arange(self.n + 2) * h)

    @property
    def state_size(self) -> int:
        return self.n + 1

    def midpoints(self) -> np.ndarray:
        """The N+1 cell midpoints x_{j+1/2} = (j + 1/2) h, j = 0..N."""
        return (np.arange(self.n + 1) + 0.5) * self.h

    @cached_property
    def matrices(self) -> SchemeMatrices:
        """The scheme matrices of this mesh, built on first use."""
        return build_scheme_matrices(self)


def average(u: np.ndarray) -> np.ndarray:
    """Midpoint averages (u_j + u_{j+1}) / 2 along the first axis."""
    u = np.asarray(u)
    if u.shape[0] < 2:
        raise ValueError("average needs at least two entries")
    return 0.5 * (u[:-1] + u[1:])


def difference(u: np.ndarray, h: float) -> np.ndarray:
    """Scaled first differences (u_{j+1} - u_j) / h along the first axis."""
    u = np.asarray(u)
    if u.shape[0] < 2:
        raise ValueError("difference needs at least two entries")
    if h <= 0:
        raise ValueError(f"step size must be positive, got h={h}")
    # numpy divides a complex array by a real scalar as this product, bit for bit
    return (u[1:] - u[:-1]) * (1.0 / h)


@dataclass(frozen=True, eq=False)
class Bidiagonal:
    """A rows x cols matrix, rows <= cols, with scalars main at (i, i) and off at (i, i + step).

    step = -1 (lower) or +1 (upper), and only a square one has a transpose `T`.
    `A @ x` acts along x's first axis and sums the two rounded products, as a
    CSR product does, bit for bit and independently of x's other columns.
    """

    main: float
    off: float
    step: int
    rows: int
    cols: int

    def __matmul__(self, x):
        x = np.asarray(x)
        if x.shape[0] != self.cols:
            raise ValueError(f"matrix with {self.cols} columns applied to {x.shape[0]} rows")
        out = self.main * x[:self.rows]
        lo, hi = max(0, -self.step), min(self.rows, self.cols - self.step)
        out[lo:hi] += self.off * x[lo + self.step:hi + self.step]
        return out

    @cached_property
    def T(self) -> Bidiagonal:
        return Bidiagonal(self.main, self.off, -self.step, self.cols, self.rows)


@dataclass(frozen=True)
class SchemeMatrices:
    """The four scheme matrices of a mesh and the stencils they come from.

    D is (N+1)x(N+1) lower bidiagonal (midpoint averaging of a state vector
    with an implicit leading zero), M is (N+1)x(N+1) upper bidiagonal
    (scaled differencing with an implicit trailing zero).  Sigma and Delta
    act on extended vectors, so they are (N+1)x(N+2): Sigma gives the N+1
    midpoint averages, Delta the N+1 scaled differences.
    """

    D: Bidiagonal
    M: Bidiagonal
    Sigma: Bidiagonal
    Delta: Bidiagonal


def build_scheme_matrices(mesh: Mesh) -> SchemeMatrices:
    """All four from two scalars each, O(1); D = Sigma[:, 1:], M = Delta[:, :-1]."""
    n1, up = mesh.state_size, 1.0 / mesh.h
    return SchemeMatrices(
        D=Bidiagonal(0.5, 0.5, -1, n1, n1), M=Bidiagonal(-up, up, 1, n1, n1),
        Sigma=Bidiagonal(0.5, 0.5, 1, n1, n1 + 1), Delta=Bidiagonal(-up, up, 1, n1, n1 + 1),
    )


def _sized(v, size: int, kind: str, mesh: Mesh) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape[0] != size:
        raise ValueError(f"{kind} vector on mesh n={mesh.n} needs length {size}, got {v.shape[0]}")
    return v


def _as_state(Y, mesh: Mesh) -> np.ndarray:
    return _sized(Y, mesh.state_size, "state", mesh)


def _signs(b: np.ndarray) -> np.ndarray:
    """The column (+1, -1, +1, ...) down b's first axis, shaped to broadcast against b."""
    s = np.ones(b.shape[0])
    s[1::2] = -1.0
    return s.reshape((-1,) + (1,) * (b.ndim - 1))


def _row_blocks(rows: np.ndarray, width: int, elements: int):
    """Consecutive runs of `rows` of max(1, elements // width) entries each.

    A block of such rows, each `width` entries wide, then holds about
    `elements` entries.
    """
    step = max(1, elements // width)
    for start in range(0, rows.size, step):
        yield rows[start:start + step]


def solve_d(b: np.ndarray) -> np.ndarray:
    """Solve D x = b along the first axis by D's closed-form inverse, O(N).

    D = (I + S)/2 with S the down-shift, so x_j = 2 s_j sum_{i<=j} s_i b_i
    with s = (+1, -1, +1, ...): forward substitution, exactly.
    """
    s = _signs(b)
    return 2 * s * np.cumsum(s * b, axis=0)


def solve_dt(b: np.ndarray) -> np.ndarray:
    """Solve D.T x = b along the first axis: the same sum taken from the end, O(N)."""
    s = _signs(b)
    return 2 * s * np.cumsum((s * b)[::-1], axis=0)[::-1]


def _d_inner(a: np.ndarray, b: np.ndarray, h: float):
    """The weighted inner product h <D Y, D Ytilde> from the products a = D Y and b = D Ytilde.

    Hermitian and positive definite since D is invertible.
    """
    # named: in a temporary of 256 KiB or more numpy swaps the factors, so rounding tracks width
    cb = np.conj(b)
    return h * np.sum(a * cb, axis=0)


def _d_norm(a: np.ndarray, h: float):
    """The weighted norm sqrt(h) ||D Y|| from the product a = D Y."""
    return np.sqrt(h * np.sum(np.abs(a) ** 2, axis=0))


def _shadow_rhs(Y, k: float, mesh: Mesh) -> np.ndarray:
    """D.T Z for the shadow element Z of Y: -M.T Y + (0, ..., 0, i k y_{N+1} / 2)."""
    if not 0 < k < np.inf:
        raise ValueError(f"feedback gain must be positive and finite, got k={k}")
    Y = _as_state(Y, mesh)
    rhs = -(mesh.matrices.M.T @ Y)
    rhs[-1] += 0.5j * k * Y[-1]
    return rhs


def shadow_element(Y, k: float, mesh: Mesh) -> np.ndarray:
    """The auxiliary derivative vector Z (nodes 0..N) attached to a state Y.

    Z solves D.T Z = -M.T Y + (0, ..., 0, i k y_{N+1} / 2), computed by
    back substitution in O(N).  Equivalently, after padding y_0 = 0 and
    z_{N+1} = -i k y_{N+1}, the midpoint averages of z equal the scaled
    differences of y on every cell.
    """
    return solve_dt(_shadow_rhs(Y, k, mesh))


def extend_state(Y, mesh: Mesh) -> np.ndarray:
    """Pad a state vector with its Dirichlet value: (0, y_1, ..., y_{N+1})."""
    Y = _as_state(Y, mesh)
    zeros = np.zeros((1,) + Y.shape[1:], dtype=complex)
    return np.concatenate([zeros, Y])


def extend_shadow(Z, Y, k: float, mesh: Mesh) -> np.ndarray:
    """Pad a shadow vector with its feedback value z_{N+1} = -i k y_{N+1}."""
    Z = _sized(Z, mesh.state_size, "shadow", mesh)
    Y = _as_state(Y, mesh)
    tail = (-1j * k * Y[-1])[None, ...]
    return np.concatenate([Z, tail])


def triple_sum_identity_gap(u, v, w) -> complex:
    """Defect of the telescoping triple-product summation identity.

    For sequences u, v, w of equal length m, the four quarter-sums over
    difference/average combinations telescope to u v w evaluated at the
    endpoints.  Returns (left side) - (u_{m-1} v_{m-1} w_{m-1} -
    u_0 v_0 w_0); zero in exact arithmetic.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if not (u.shape == v.shape == w.shape):
        raise ValueError("sequences must share a common shape")
    if u.shape[0] < 2:
        raise ValueError("sequences must have length >= 2")
    du, su = u[1:] - u[:-1], u[1:] + u[:-1]
    dv, sv = v[1:] - v[:-1], v[1:] + v[:-1]
    dw, sw = w[1:] - w[:-1], w[1:] + w[:-1]
    left = 0.25 * np.sum(du * sv * sw + du * dv * dw + su * dv * sw + su * sv * dw, axis=0)
    return left - (u[-1] * v[-1] * w[-1] - u[0] * v[0] * w[0])
