"""Spectra of both schemes from closed-form secular equations.

The weighted order-reduction generator B = D A D^{-1} is diagonal plus rank
one in closed form, B = Q (i Theta - (k/h) c c^T) Q^T with Q orthogonal,

    theta_m = (2/h)^2 tan^2 phi_m,  c_m = (-1)^m sqrt(2h) / cos phi_m,
    phi_m = (m + 1/2) pi h / 2,  m = 0..N,

and q_m = D s_m / ||D s_m|| for s_m = sin((m + 1/2) pi x_j).  Its eigenvalues
(those of A) are therefore the N+1 roots of the secular equation

    f(lam) = 1 + (k/h) sum_m c_m^2 / (lam - i theta_m) = 0

(Golub, SIAM Rev. 15, 1973).  The classical generator is tridiagonal,
A = i M M^T + (k/h) u e_N^T with u = e_{N-1}/2 - 3 e_N/2 (0-indexed), and
M M^T has closed-form eigenpairs, so its eigenvalues are the roots of the
same kind of equation, with the poles and weights of `classical_poles_weights`.
Both spectra, like the continuous one, are the roots lam = -i nu(mu)^2 of a
relation a(mu) cosh mu + b(mu) sinh mu = 0, one per branch of
`continuous._branch_roots` in O(N), and are certified by `or_spectrum` and
`classical_spectrum` (or NumericalError).  The order-reduction sum has the closed form

    f(lam) = 1 + (i k h/2) tan(2(N+1) psi) / tan psi,  tan^2 psi = -i lam h^2 / 4,

so its roots are refined (`_or_refine`) and their backward residuals bounded
(`_or_residual`) relative to their poles in O(1) each, O(N) in all (Gu &
Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995; Li, LAPACK Working Note 89,
1994), with the poles' rounding taken from np.longdouble; the classical roots
are refined on the direct sum by `_polish`, O(N^2).

The same factorisation gives the resolvent: i beta - B is orthogonally
similar to X = i diag(d) + (k/h) c c^T with d_m = beta - theta_m, so
sigma_min(i beta - B) = sigma_min(X), and `or_resolvent_smin` brackets it
for every beta by an exact O(N) eigenvalue count of X^H X (Bunch, Nielsen &
Sorensen, Numer. Math. 31, 1978), again with no matrix.  The weighted
classical generator has no orthogonal diagonal-plus-rank-one form, so
`classical_resolvent_norm` finds ||D (i beta - A)^{-1} D^{-1}|| by inverse
Lanczos instead: D as a bidiagonal, D^{-1} in closed form and one pivoted LU
of the tridiagonal i beta - A per beta, O(N) per step and no matrix either.
That LU and its solves, `_shifted_factors` and `_solve`, also certify the
classical roots; only they import SciPy (LAPACK zgttrf, zgttrs), when called.
`classical_peak_resolvable` decides in O(N), from the top root's closed form,
whether the peak where the classical sup sits is wide enough to sample.

The coordinates a = Q^T sqrt(h) D W of a state W are its modal
coordinates: the weighted energy (h/2) ||D W||^2 is (1/2) ||a||^2, and the
last state component is c^T a / sqrt(h).  `or_modal_coordinates` computes
them, and `classical_modal_coordinates` the coordinates sqrt(h) V^T W in the
sine eigenbasis V of M M^T, each by one odd-frequency sine sum in
O(N log N), so `schrostab.dynamics` steps both schemes in these bases.
"""

from __future__ import annotations

import numpy as np

from .continuous import _branch_roots
from .errors import NumericalError
from .grid import Mesh, _as_state, _row_blocks, solve_d, solve_dt
from .systems import CLASSICAL, apply_generator

__all__ = [
    "or_poles_weights",
    "classical_poles_weights",
    "classical_peak_resolvable",
    "or_modal_coordinates",
    "classical_modal_coordinates",
    "or_spectrum",
    "classical_spectrum",
    "or_resolvent_smin",
    "classical_resolvent_norm",
]

_EPS = np.finfo(float).eps
# Entries per (rows x N+1) block of root-to-pole terms: 4 MiB of complex128.
_BLOCK_ELEMENTS = 1 << 18
# Entries per block of classical inverse-iteration vectors, 512 KiB of complex128 (blocks
# of 2^18 were slower at N = 1023 and 4095, and took 24 MiB more peak RSS).
_CERTIFY_ELEMENTS = _BLOCK_ELEMENTS // 8
_RESIDUAL_TOL = 1e-14
_TRACE_RTOL = 1e-12
# Neighbours in imaginary-part order differ in imaginary part by >= 5.5e-3 (order
# reduction) and 7.05e-6 (classical) of the larger modulus at N = 1023, kh in [1e-3, 50],
# falling like 6/(N+1) and 7.4/(N+1)^2; two approximations of one root fall below this.
_DISTINCT_RTOL = 1e-10
# Order-reduction roots whose residual is also summed directly over all poles: the
# rightmost ones, and seeded draws (with repeats) from all of them.
_CROSS_CHECK_RIGHTMOST = 8
_CROSS_CHECK_SEEDED = 64
_CROSS_CHECK_SEED = 20232
# The fixed start of every classical inverse iteration.
_INVERSE_ITERATION_SEED = 20231
# sigma_min brackets: relative width on return, step budget, and the relative
# Newton step below which the far side of the root is probed.
_SMIN_RTOL = 1e-14
_SMIN_MAX_STEPS = 200
_SMIN_PROBE = 1e-7
# Entries per block of the sigma_min solver: 128 KiB of float64 per temporary.
# Blocks of 1 << 18 were slower (1.11 s against 0.93 s for 4147 betas at
# N=4095) and raised the peak RSS of repeated resolvent sweeps by 1.3 MiB.
_SMIN_BLOCK_ELEMENTS = 1 << 14
# A bracket top at or below this times |beta| + (k/h) ||c||^2 puts i beta in the spectrum.
_SPECTRUM_RTOL = 1e-14
# Smallest |Re lam| / |Im lam| of the top classical root whose peak, where the
# classical sup sits, `classical_resolvent_norm` can sample.  It refuses once
# 1/||R|| <= _SPECTRUM_RTOL (|beta| + max mu + sqrt(5/2) k/h).  At the peak
# |beta| = max mu, 1/||R|| = |Re lam| / 1.732 (the measured peak height), and
# k/h < 1.2e-3 max mu near this bound for N <= 8191, so the check fires below
# 2 (1.732) _SPECTRUM_RTOL = 3.46e-14.  The bound keeps a margin of 1.15.
_PEAK_RTOL = 1.15 * 2 * 1.732 * _SPECTRUM_RTOL
# Inverse Lanczos for the classical resolvent: the fixed start, the relative
# residual at which a beta is frozen, and the step budget.  At most 21 steps
# were needed for N <= 255, k in [0.01, 100] and |beta| up to 1e30; on the
# default sweep grids at most 16 for k <= 10 (11 at N = 1023 and 2047).
_LANCZOS_SEED = 20230
_LANCZOS_RTOL = 1e-14
_LANCZOS_MAX_STEPS = 48
# Entries of the Krylov basis per block of betas: 2 MiB of complex128.
_KRYLOV_ELEMENTS = 1 << 17


def or_poles_weights(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The poles theta_m and weights c_m of the order-reduction secular equation, O(N)."""
    m = np.arange(mesh.state_size) + 0.5
    sin = np.sin(m * np.pi * mesh.h / 2)
    cos = np.sin((mesh.n + 1 - m) * np.pi * mesh.h / 2)  # cos phi_m, accurate at the top
    theta = (2.0 / mesh.h * sin / cos) ** 2
    c = (-1.0) ** np.arange(mesh.state_size) * np.sqrt(2.0 * mesh.h) / cos
    return theta, c


def classical_poles_weights(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The poles mu_m and weights c_m of the classical secular equation, O(N).

    M M^T = h^{-2} tridiag(-1, 2, -1) with last diagonal entry h^{-2}, and
    its eigenvectors are v_m(j) = sin(2 (j+1) a_m), j = 0..N, with
    a_m = (2m+1) pi / (2(2N+3)), eigenvalues mu_m = (2 sin a_m / h)^2 and
    ||v_m||^2 = (2N+3)/4.  In that basis A = i diag(mu) + (k/h) p r^T with
    p_m = v_m^T u / ||v_m|| and r_m = v_m(N) / ||v_m||, so the eigenvalues
    of A are the roots of 1 - (k/h) sum_m p_m r_m / (lam - i mu_m).

    Every weight p_m r_m is negative.  Since (2N+3) a_m = (2m+1) pi/2,
    v_m(N) = (-1)^m cos a_m and v_m(N-1) = (-1)^m cos 3a_m, so

        ||v_m||^2 p_m r_m = cos a_m (cos 3a_m / 2 - 3 cos a_m / 2)
                          = cos^2 a_m (2 cos^2 a_m - 3)

    by cos 3a = 4 cos^3 a - 3 cos a, and 0 < a_m < pi/2 makes it negative.
    Hence p_m r_m = -c_m^2 with c_m = 2 cos a_m sqrt((1 + 2 sin^2 a_m) / (2N+3)),
    and the equation is 1 + (k/h) sum_m c_m^2 / (lam - i mu_m) = 0, the
    order-reduction form.  cos a_m is evaluated as
    sin((N+1-m) pi / (2N+3)), which keeps its relative accuracy at the top
    pole, where cos a_m is about pi / (2N+3).
    """
    n = mesh.n
    m = np.arange(mesh.state_size)
    sin_a = np.sin((2 * m + 1) * np.pi / (2 * (2 * n + 3)))
    cos_a = np.sin((n + 1 - m) * np.pi / (2 * n + 3))
    mu = (2.0 * sin_a / mesh.h) ** 2
    c = 2.0 * cos_a * np.sqrt((1.0 + 2.0 * sin_a**2) / (2 * n + 3))
    return mu, c


def classical_peak_resolvable(mesh: Mesh, k: float) -> bool:
    """Whether the top classical root's |Re lam| / |Im lam| exceeds _PEAK_RTOL, O(N).

    To first order that root is i mu_N - (k/h) c_N^2, so the ratio is
    (k/h) c_N^2 / mu_N (within 2.4e-3 of the certified roots at N = 1023 to
    4095, k = 0.01 to 100): proportional to k, falling like (N+1)^-4.  At
    k = 1 the largest N accepted is 3103.
    """
    mu, c = classical_poles_weights(mesh)
    return bool(k / mesh.h * c[-1] ** 2 / mu[-1] > _PEAK_RTOL)


def _sine_sums(x: np.ndarray, period: int) -> np.ndarray:
    """S_m = sum_j x_j sin((2m+1) pi j / period), j = 1..size, m < size, by two numpy FFTs.

    With y = (0, x) and t_j = exp(i pi j / period), S_m = (F+_m - F-_m) / 2i for F+ and F-
    the length-`period` Fourier sums of y t and y conj(t), one inverse and one forward
    FFT (scipy.fft would be one more package to import).
    """
    y, twist = np.pad(x, (1, 0)), np.exp(1j * np.pi * np.arange(x.size + 1) / period)
    up = np.fft.ifft(y * twist, period)[:x.size] * period
    down = np.fft.fft(y * twist.conj(), period)[:x.size]
    return (up - down) / 2j


def or_modal_coordinates(mesh: Mesh, W) -> np.ndarray:
    """The modal coordinates a = Q^T sqrt(h) D W of a state W, O(N log N).

    a_m = s_m^T (sqrt(h) D^T D W) / ||D s_m||, with ||D s_m|| = cos phi_m
    sqrt((N+1)/2) = 1/|c_m|; the sums s_m^T y are a DST-III, `_sine_sums` of period 2(N+1).
    """
    D = mesh.matrices.D
    y = np.sqrt(mesh.h) * (D.T @ (D @ np.asarray(W, dtype=complex)))
    return np.abs(or_poles_weights(mesh)[1]) * _sine_sums(y, 2 * mesh.state_size)


def classical_modal_coordinates(mesh: Mesh, W) -> np.ndarray:
    """The coordinates u = sqrt(h) V^T W of a state W, V_jm = v_m(j) / ||v_m||, O(N log N).

    V is the orthonormal eigenbasis of M M^T (`classical_poles_weights`), so u is
    2 sqrt(h / (2N+3)) times `_sine_sums` of period 2N+3.  The last state component
    is r^T u / sqrt(h), r_m = v_m(N) / ||v_m|| = (-1)^m c_m / sqrt(1 + mu_m h^2 / 2).
    """
    period = 2 * mesh.n + 3
    return 2 * np.sqrt(mesh.h / period) * _sine_sums(_as_state(W, mesh), period)


def _coincident(lam) -> np.ndarray:
    """Marks each root within 1e-10 relative of the next root down in imaginary part, O(N log N).

    Root i+1 in imaginary-part order is marked if Im lam_{i+1} - Im lam_i <= 1e-10
    max(|lam_i|, |lam_{i+1}|); a nan never is.  With none marked, any lam_i below lam_j are
    over 1e-10 max(|lam_i|, |lam_j|) apart: |lam_j - lam_i| >= the sum of the sorted gaps
    between them, whose first and last alone exceed 1e-10 |lam_i| and 1e-10 |lam_j|.
    That distinct roots lie this far apart in imaginary part is a hypothesis `_certify` checks.
    """
    order = np.argsort(lam.imag)
    tol = _DISTINCT_RTOL * np.abs(lam[order])
    marked = np.zeros(lam.size, dtype=bool)
    marked[order[1:]] = np.diff(lam.imag[order]) <= np.maximum(tol[1:], tol[:-1])
    return marked


def _polish(lam, poles, weights, trace: complex) -> np.ndarray:
    """Classical branch roots made whole, then refined by Newton on the secular sum, O(N^2).

    A nan, or a root `_coincident` marks, is missing; one missing root is the trace less
    the others.  Newton on f = 1 + sum weights / (lam - i poles) runs on
    eps_j = lam_j - i poles_j (Gu & Eisenstat, 1995), so that small real parts (the
    classical abscissa) keep their digits, for up to 8 steps, until the error left is at
    most 4 eps |eps_j|.  It steps on eps_j f, which removes pole j: from a branch root
    more than |eps_j| off (the top roots at weak damping), Newton on f runs off along it.
    Each step sums over all poles; the order-reduction roots are refined in O(N) by
    `_or_refine` instead.
    """
    lam[_coincident(lam)] = np.nan
    if np.count_nonzero(np.isnan(lam)) == 1:
        lam[np.isnan(lam)] = trace - np.nansum(lam)
    eps = lam - 1j * poles
    active = np.ones(lam.size, dtype=bool)
    for _ in range(8):
        for rows in _row_blocks(np.flatnonzero(active), lam.size, _BLOCK_ELEMENTS):
            with np.errstate(divide="ignore", invalid="ignore"):
                to_poles = 1.0 / (eps[rows, None] + 1j * (poles[rows, None] - poles))
                f = 1.0 + to_poles @ weights
                step = eps[rows] * f / (eps[rows] * ((to_poles * to_poles) @ weights) - f)
            eps[rows] += step
            left = np.abs(step) ** 2 * np.abs(to_poles).max(axis=1)  # error after this step
            active[rows] = left > 4 * _EPS * np.abs(eps[rows])
    return 1j * poles + eps


def _certify(lam, residuals, scale, traces, where: str) -> float:
    """Check all roots of one secular equation; returns their worst residual.

    Raises NumericalError unless every root is finite, `_coincident` marks none, every
    entry of every array of root residuals that the iterable `residuals` yields (drawn
    only after those two checks, so that a generator can evaluate them block by block)
    lies in [0, 1e-14 scale], which a nan or a negative value does not, and the sums of
    the real and imaginary parts of the roots match traces, each to 1e-12 relative.
    """
    n1 = lam.size
    finite = np.count_nonzero(np.isfinite(lam))
    if finite != n1:
        raise NumericalError(f"secular solver found {finite} finite roots of {n1} {where}")
    if np.any(_coincident(lam)):
        raise NumericalError(f"two secular roots coincide in imaginary part {where}")
    bound = _RESIDUAL_TOL * scale
    extremes = np.array([(np.min(block), np.max(block)) for block in residuals])
    outside = extremes[~((extremes >= 0) & (extremes <= bound))]  # nan is outside
    if outside.size:
        raise NumericalError(
            f"secular residual {outside[0]:.3e} is outside [0, {bound:.3e}] {where}")
    for part, got, expect in zip(("real", "imaginary"),
                                 (np.sum(lam.real), np.sum(lam.imag)), traces):
        if not abs(got - expect) <= _TRACE_RTOL * abs(expect):
            raise NumericalError(
                f"secular roots miss the {part}-part trace: {got!r} against {expect!r} {where}"
            )
    return float(np.max(extremes))


def _or_tangents(mesh: Mesh, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tan phi_m, and the offset theta_m^exact - theta_m of each rounded pole, O(N).

    Both come from np.longdouble, extended precision on x86-64 Linux: tan phi_m as
    sin phi_m over the sine of the complementary angle, which keeps its relative accuracy
    at the top pole, and theta_m^exact = (2 (N+1) tan phi_m)^2.  An offset eps_j from the
    rounded theta_j alone would carry its rounding, up to eps theta_j, which is most of
    eps_j at weak damping and at the top poles; np.longdouble leaves about 6e-19 theta_j.
    Where np.longdouble is plain double, the offsets carry no extra digits, and the
    same 1e-14 bound of `_certify` refuses any spectrum that this leaves short.
    """
    m = np.arange(mesh.state_size, dtype=np.longdouble)
    quarter = np.arctan(np.longdouble(1)) / mesh.state_size  # pi / (4 (N+1))
    tan = np.sin((2 * m + 1) * quarter) / np.sin((2 * (mesh.n - m) + 1) * quarter)
    return tan.astype(float), ((2 * mesh.state_size * tan) ** 2 - theta).astype(float)


def _or_pole_relative(lam, theta, tan, offset, mesh: Mesh):
    """tan delta_j, tan psi_j and eps_j = lam_j - i theta_j^exact of each lam_j, O(1) each.

    Row j is taken relative to pole j: psi_j = phi_j + delta_j with tan^2 psi = -i lam h^2/4.
    eps_j is (lam_j - i theta_j) - i (theta_j^exact - theta_j), so that with
    q = -i eps_j h^2 / 4 = tan^2 psi_j - tan^2 phi_j both tan psi_j - tan phi_j =
    q / (tan phi_j + sqrt(tan^2 phi_j + q)) and tan delta_j keep their relative accuracy.
    """
    eps = (lam - 1j * theta) - 1j * offset
    q = -1j * eps / (2 * mesh.state_size) ** 2  # -i eps h^2 / 4
    shift = q / (tan + np.sqrt(tan * tan + q))
    tan_psi = tan + shift
    return shift / (1 + tan * tan_psi), tan_psi, eps


def _or_characteristic(lam, theta, tan, offset, mesh: Mesh, k: float):
    """f(lam_j) of the order-reduction secular equation in closed form, and eps_j, O(1) each.

    f(lam) = 1 + (i k h/2) tan(2(N+1) psi) / tan psi with tan^2 psi = -i lam h^2/4.  On
    pole j, 2(N+1) psi = (j + 1/2) pi + 2(N+1) delta_j, so tan(2(N+1) psi) is
    -1 / tan(2(N+1) delta_j), evaluated from tan delta_j of `_or_pole_relative`.
    """
    tan_delta, tan_psi, eps = _or_pole_relative(lam, theta, tan, offset, mesh)
    big = np.tan(2 * mesh.state_size * np.arctan(tan_delta))
    return 1 - 0.5j * k * mesh.h / (big * tan_psi), eps


def _or_refine(mu, theta, tan, offset, mesh: Mesh, k: float, trace: complex) -> np.ndarray:
    """Order-reduction roots from branch roots mu_j = i (j + 1/2) pi + zeta_j, O(N).

    A nan, or a root whose lam(mu) `_coincident` marks, is missing; one missing root is
    the trace less the others, taken relative to its pole by `_or_pole_relative`.  With
    L = 2(N+1), each root is delta_j = -i zeta_j / L, refined by Newton on

        g(delta) = tan(L delta) tan(phi_j + delta) - i k h/2,

    whose root is f's, since f = g / (tan(L delta) tan psi), and which has no pole at
    delta = 0: the Gu & Eisenstat (1995) idea in closed form, so small real parts keep
    their digits and a far start at weak damping still converges.  tan(phi_j + delta) is
    (t + tan delta) / (1 - t tan delta) with t = tan phi_j, so delta stays relative to
    the exact pole.  Newton takes up to 8 steps, until a step is at most 4 eps |delta_j|.
    lam_j = i theta_j + (eps_j + i (theta_j^exact - theta_j)) is formed only at the end,
    with eps_j = i L^2 s (2 t + s) and s = tan psi_j - t.
    """
    n1 = mesh.state_size
    length = 2 * n1
    lam = -1j * (2 / mesh.h * np.tanh(mu * mesh.h / 2)) ** 2
    missing = np.isnan(lam) | _coincident(lam)
    zeta = mu - 1j * (np.arange(n1) + 0.5) * np.pi
    delta = np.where(missing, np.nan, -1j * zeta / length)
    if np.count_nonzero(missing) == 1:
        lam[missing] = np.nan
        fill = np.array([trace - np.nansum(lam)])
        tan_delta = _or_pole_relative(fill, theta[missing], tan[missing], offset[missing], mesh)[0]
        delta[missing] = np.arctan(tan_delta)
    active = np.flatnonzero(np.isfinite(delta))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(8):
            d, t = delta[active], tan[active]
            big, small = np.tan(length * d), np.tan(d)
            near = (t + small) / (1 - t * small)  # tan(phi_j + delta)
            step = (big * near - 0.5j * k * mesh.h) / (
                length * (1 + big * big) * near + big * (1 + near * near))
            delta[active] = d - step
            active = active[np.abs(step) > 4 * _EPS * np.abs(d - step)]
            if active.size == 0:
                break
        small = np.tan(delta)
        s = small * (1 + tan * tan) / (1 - tan * small)
        return 1j * theta + (1j * length**2 * s * (2 * tan + s) + 1j * offset)


def _or_residual(lam, theta, c, tan, offset, mesh: Mesh, k: float) -> np.ndarray:
    """An upper bound on the backward residual ||c|| |f(lam_j)| / ||v_j|| of each root, O(1) each.

    f comes from `_or_characteristic`.  ||v_j||^2 = sum_m c_m^2 / |lam_j - i theta_m|^2
    is bounded below by its 9 terms |m - j| <= 4 (at least 0.858 of the sum, measured for
    N <= 4095 and k = 1e-12 to 1e3), so the residual only grows; each term is taken as
    c_m^2 |eps_j / (lam_j - i theta_m)|^2 and the residual as ||c|| |f| |eps_j| / sqrt(sum),
    which neither overflows nor underflows at weak damping.
    """
    c2 = c * c
    n1 = lam.size
    near = c2.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f, eps = _or_characteristic(lam, theta, tan, offset, mesh, k)
        for o in (-4, -3, -2, -1, 1, 2, 3, 4):
            if abs(o) >= n1:
                continue
            rows, poles = slice(max(0, -o), n1 - max(0, o)), slice(max(0, o), n1 - max(0, -o))
            gap = (theta[rows] - theta[poles]) + (offset[rows] - offset[poles])
            near[rows] += c2[poles] * np.abs(eps[rows] / (eps[rows] + 1j * gap)) ** 2
        return np.sqrt(np.sum(c2)) * np.abs(f) * np.abs(eps) / np.sqrt(near)


def or_spectrum(mesh: Mesh, k: float) -> tuple[np.ndarray, float]:
    """Certified eigenvalues of the order-reduction generator, and their worst residual, O(N).

    The roots are the branch roots of `continuous._branch_roots` refined by `_or_refine`.
    The residual of a root lam is the backward error of the eigenpair
    (lam, v) of i Theta - (k/h) c c^T with v = (lam - i Theta)^{-1} c,
    namely ||c|| |f(lam)| / ||v||, bounded above for every root in closed form by
    `_or_residual` and, as a cross-check, summed directly over all N+1 poles at the 8
    rightmost roots and at 64 seeded ones, O(N) each, in blocks of 2^18 / (N+1).  Raises
    NumericalError unless there are N+1 finite roots, none coinciding, each residual is at
    most 1e-14 (max theta + (k/h) ||c||^2), and the roots keep the trace:
    sum Re lam = -(k/h) ||c||^2 = -2k sum sec^2 phi_m and
    sum Im lam = sum theta_m, each to 1e-12 relative (`_certify`).
    """
    theta, c = or_poles_weights(mesh)
    n1, h, rho = mesh.state_size, mesh.h, k / mesh.h
    c2 = c * c
    c2_sum = np.sum(c2)
    tan, offset = _or_tangents(mesh, theta)

    def coefficients(mu):
        t = np.tanh(mu * h / 2)
        return 2 / h * t, 1j * k, 1 - t * t, 0.0

    mu = _branch_roots(coefficients, np.zeros(n1))
    lam = _or_refine(mu, theta, tan, offset, mesh, k, -rho * c2_sum + 1j * np.sum(theta))

    def residuals():
        yield _or_residual(lam, theta, c, tan, offset, mesh, k)
        seeded = np.random.default_rng(_CROSS_CHECK_SEED).integers(0, n1, _CROSS_CHECK_SEEDED)
        rightmost = np.argsort(lam.real)[-_CROSS_CHECK_RIGHTMOST:]
        for rows in _row_blocks(np.union1d(seeded, rightmost), n1, _BLOCK_ELEMENTS):
            with np.errstate(divide="ignore", invalid="ignore"):
                to_poles = lam[rows, None] - 1j * theta
                near = np.min(np.abs(to_poles), axis=1)
                np.divide(near[:, None], to_poles, out=to_poles)  # at most 1 in modulus
                f = 1.0 + rho * (to_poles @ c2) / near
                yield np.sqrt(c2_sum) * np.abs(f) * near / np.sqrt(np.abs(to_poles) ** 2 @ c2)

    worst = _certify(lam, residuals(), np.max(theta) + rho * c2_sum,
                     (-rho * c2_sum, np.sum(theta)),
                     f"(scheme=order_reduction, n={mesh.n}, k={k})")
    return lam, worst


def _classical_tridiagonal(mesh: Mesh, k: float):
    """Sub-, main and super-diagonal of A = i M M^T + (k/h) u e_N^T, from the closed form."""
    n1 = mesh.state_size
    off = -1j / mesh.h**2
    d = np.full(n1, -2.0 * off)
    d[-1] = -off - 1.5 * k / mesh.h
    du = np.full(n1 - 1, off)
    du[-1] += 0.5 * k / mesh.h
    return np.full(n1 - 1, off), d, du


def _shifted_factors(mesh: Mesh, k: float, shifts: np.ndarray):
    """The zgttrs arguments (dl, d, du, du2, ipiv) for z - A of the classical scheme, per shift z.

    The tridiagonals of all shifts form one block-diagonal tridiagonal with
    zero couplings, so one zgttrf factors them all and no pivot crosses from
    one shift to the next: a shift's factors do not depend on the shifts beside
    it.  One more decoupled unknown, a 1 on the diagonal, follows the last
    block: scipy's ?gttrf and ?gttrs wrappers refuse systems of fewer than
    three unknowns, as one shift at N = 1 would be.
    """
    from scipy.linalg.lapack import zgttrf
    dl, d, du = _classical_tridiagonal(mesh, k)
    bands = np.zeros((2, shifts.size, mesh.state_size), dtype=complex)
    bands[:, :, :-1] = -np.stack((dl, du))[:, None]
    sub, sup = bands.reshape(2, -1)
    return zgttrf(sub, np.append((shifts[:, None] - d).ravel(), 1.0), sup)[:5]


def _zero_pivots(factors, n1: int) -> np.ndarray:
    """Whether the U factor of each shift of `_shifted_factors` has an exactly zero pivot."""
    return np.any(factors[1][:-1].reshape(-1, n1) == 0, axis=1)


def _solve(factors, rows: np.ndarray, trans: str) -> np.ndarray:
    """(z - A)^{-1} (trans "N") or (z - A)^{-H} (trans "C") applied to each row, one per shift."""
    from scipy.linalg.lapack import zgttrs
    return zgttrs(*factors, np.append(rows, 0.0)[:, None], trans=trans)[0][:-1].reshape(rows.shape)


def classical_spectrum(mesh: Mesh, k: float) -> tuple[np.ndarray, float]:
    """Certified eigenvalues of the classical generator, and their worst residual.

    The roots solve the last two rows of A with y_j = sinh(mu x_j) and
    y_{N+1} = sinh(mu) / (1 + i k h/2), less the fold mu h = i pi, where y = 0.
    The residual of a root lam is ||A x - lam x|| / ||x||, with A applied
    by `systems.apply_generator` and x from two steps of inverse iteration
    on the tridiagonal lam - A from one fixed seeded unit vector, O(N) per
    root: each block of 2^15 / (N+1) roots is factored once by
    `_shifted_factors` (LAPACK zgttrf, partial pivoting) and solved twice by
    `_solve`.  A tridiagonal that is not the generator's therefore fails the
    check.  A root whose factors have an exactly zero pivot, which puts lam
    on an eigenvalue of the rounded factors, is moved off by eps times the
    scale below and its block refactored.  (The secular-formula eigenvector
    (lam - i M M^T)^{-1} u is not used: summed in the sine basis, it left
    residuals of 4.1e-13 of the scale at N=1023, against at most 6.7e-16 here.)

    Raises NumericalError unless there are N+1 finite roots, none coinciding,
    each residual is at most 1e-14 (max mu + sqrt(5/2) k/h), a bound
    on ||A||_2, and the roots keep the trace: sum Re lam = -(3/2) k/h and
    sum Im lam = trace(M M^T) = (2N+1)/h^2, each to 1e-12 relative
    (`_certify`).
    """
    mu, c = classical_poles_weights(mesh)
    n, n1, h, rho = mesh.n, mesh.state_size, mesh.h, k / mesh.h
    s, t = 1 + 0.5j * k * h, 1 - 0.5j * k * h

    def coefficients(z):
        sinh, cosh = np.sinh(z * h), np.cosh(z * h)
        return s * sinh / h, (t * cosh - 1 + 1.5j * k * h) / h, s * cosh, t * sinh

    z = _branch_roots(coefficients, -1j * (np.arange(n + 1) + 0.5) * np.pi / (2 * n + 3))
    lam = -1j * (2 / h * np.sinh(z * h / 2)) ** 2
    lam[np.abs(lam - 4j / h**2) <= _DISTINCT_RTOL * 4 / h**2] = np.nan
    lam = _polish(lam, mu, rho * c * c, -1.5 * rho + 1j * (2 * n + 1) / h**2)
    scale = np.max(mu) + np.sqrt(2.5) * rho
    rng = np.random.default_rng(_INVERSE_ITERATION_SEED)
    start = rng.standard_normal(n1) + 1j * rng.standard_normal(n1)
    start /= np.linalg.norm(start)

    def residual(rows):
        factors = _shifted_factors(mesh, k, lam[rows])
        zero = _zero_pivots(factors, n1)
        if np.any(zero):
            factors = _shifted_factors(mesh, k, lam[rows] + zero * (_EPS * scale))
        X = np.broadcast_to(start, (rows.size, n1))
        for _ in range(2):
            Y = _solve(factors, X, "N")
            X = Y / np.linalg.norm(Y, axis=1, keepdims=True)
        R = apply_generator(CLASSICAL, X.T, k, mesh) - X.T * lam[rows]
        return np.linalg.norm(R, axis=0) / np.linalg.norm(X, axis=1)

    blocks = _row_blocks(np.arange(n1), n1, _CERTIFY_ELEMENTS)
    worst = _certify(lam, (residual(rows) for rows in blocks), scale,
                     (-1.5 * rho, (2 * mesh.n + 1) / mesh.h**2),
                     f"(scheme=classical, n={mesh.n}, k={k})")
    return lam, worst


def _smin_start(d: np.ndarray, c2: np.ndarray, rho: float) -> np.ndarray:
    """min_m 1 / ||X^{-1} e_m||, an upper bound on sigma_min(X), per row of d.

    By Sherman-Morrison X^{-1} = -i D^{-1} + alpha D^{-1} c c^T D^{-1} with
    alpha = rho / (1 - i rho S) and S = sum c^2/d, so each column norm
    needs only S and T = sum c^2/d^2.  A row with a zero d gets no
    finite positive bound.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = 1.0 / d
        S = (c2 * r).sum(axis=1, keepdims=True)
        w = r * r
        w *= c2
        T = w.sum(axis=1, keepdims=True)
        re = rho / (1.0 + (rho * S) ** 2)
        im = rho * S * re
        col2 = im * c2 - d
        np.square(col2, out=col2)
        col2 += np.square(re * c2)
        col2 *= r
        col2 *= r
        np.subtract(T, w, out=w)
        w *= rho * re * c2
        col2 += w
        col2 *= r
        col2 *= r
        return 1.0 / np.sqrt(np.max(col2, axis=1))


def _smin_count(d, ad, c2, rho2, x, newton=False):
    """Eigenvalues of X^H X below x^2 per row, and optionally a Newton step toward sigma_min.

    X^H X - x^2 = (D^2 - x^2) + W C W^H with W = [c, Dc] and
    C = [[rho^2 ||c||^2, i rho], [-i rho, 0]], which has one negative
    eigenvalue.  Haynsworth inertia additivity on [[D^2 - x^2, W], [W^H, -C^{-1}]]
    gives the count as #{|d_m| < x} + neg(-C^{-1} - W^H (D^2 - x^2)^{-1} W) - 1.
    With P = sum c^2/(d - x) and Q = sum c^2/(d + x), that 2x2 matrix has
    determinant -g/rho^2 for g = 1 + rho^2 P Q, and its diagonal has the
    sign of Q - P; so it has one negative eigenvalue if g > 0, else two or
    none as P > Q or not.  Each row's sums depend on that row alone, so a
    count does not change with the rows evaluated beside it.

    The Newton step is taken on (p - x) g with p the pole |d_m| nearest x,
    which removes the pole that would otherwise stall Newton's method.
    """
    xs = x[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        minus = d - xs
        np.reciprocal(minus, out=minus)
        plus = d + xs
        np.reciprocal(plus, out=plus)
        terms = c2 * minus
        P = terms.sum(axis=1)
        if newton:
            terms *= minus
            dP = terms.sum(axis=1)
        np.multiply(c2, plus, out=terms)
        Q = terms.sum(axis=1)
        g = 1.0 + rho2 * P * Q
        negative = np.where(g > 0, 1, np.where(P > Q, 2, 0))
        count = np.count_nonzero(ad < xs, axis=1) + negative - 1
        if not newton:
            return count
        terms *= plus
        dg = rho2 * (dP * Q - P * terms.sum(axis=1))
        gap = np.subtract(ad, xs, out=minus)
        nearest = np.argmin(np.abs(gap, out=plus), axis=1)
        gap = gap[np.arange(x.size), nearest]
        return count, gap * g / (gap * dg - g)


def _smin_brackets(theta, c, rho, betas):
    """Brackets [lo, hi] with count(lo) = 0 and count(hi) >= 1, for all betas at once.

    Starts at `_smin_start` inside [0, second-smallest |d_m|], which holds
    sigma_min by Thompson interlacing (X is a rank-one change of i diag(d)).
    Each step evaluates the count at one point per beta and keeps the
    bracket.  The next point is the Newton point; once two points fall on
    one side and the Newton step is below _SMIN_PROBE relative, it is the
    Newton point moved on by one more such step, which lands past the root
    and closes the far side.  A Newton point
    outside the bracket, or a bracket that has not halved in three steps,
    gives a bisection step instead: geometric while hi > 4 lo, else
    arithmetic.  Rows stop at a relative width of _SMIN_RTOL.
    """
    n1 = theta.size
    c2 = c * c
    rho2 = rho * rho
    lo = np.zeros(betas.size)
    hi = np.empty(betas.size)
    for rows in _row_blocks(np.arange(betas.size), n1, _SMIN_BLOCK_ELEMENTS):
        d = betas[rows, None] - theta
        ad = np.abs(d)
        m = rows.size
        low = np.zeros(m)
        high = np.partition(ad, 1, axis=1)[:, 1] * (1 + 4 * _EPS) + np.finfo(float).tiny
        x = _smin_start(d, c2, rho)
        outside = ~((x > 0) & (x < high))
        x[outside] = 0.5 * high[outside]
        widths = np.full((3, m), np.inf)
        last_side = np.zeros(m)
        todo = np.arange(m)
        for step_no in range(_SMIN_MAX_STEPS):
            if todo.size == 0:
                break
            here = x[todo]
            every = todo.size == m  # skip the row copies while no row has stopped
            count, step = _smin_count(d if every else d[todo], ad if every else ad[todo],
                                      c2, rho2, here, newton=True)
            above = count >= 1
            high[todo[above]] = here[above]
            low[todo[~above]] = here[~above]
            lo_t, hi_t = low[todo], high[todo]
            width = hi_t - lo_t
            side = np.where(above, 1.0, -1.0)
            probe = (side == last_side[todo]) & (np.abs(step) <= _SMIN_PROBE * here)
            last_side[todo] = side
            target = here - step - np.where(probe, side * np.abs(step), 0.0)
            slack = _SMIN_RTOL * hi_t
            with np.errstate(invalid="ignore"):
                take = ((target > lo_t - slack) & (target < hi_t + slack)
                        & (probe | (width <= 0.5 * widths[step_no % 3, todo])))
            widths[step_no % 3, todo] = width
            target = np.clip(target, lo_t + 4 * _EPS * hi_t, hi_t - 4 * _EPS * hi_t)
            floor = np.maximum(lo_t, _EPS * hi_t)
            bisect = np.where(hi_t > 4 * floor, np.sqrt(floor * hi_t), 0.5 * (lo_t + hi_t))
            x[todo] = np.where(take, target, bisect)
            todo = todo[width > _SMIN_RTOL * hi_t]
        lo[rows] = low
        hi[rows] = high
    return lo, hi


def or_resolvent_smin(mesh: Mesh, k: float, betas) -> np.ndarray:
    """Certified sigma_min(i beta - B) of the order-reduction scheme for each beta, O(N) each.

    The value is the midpoint of a bracket [lo, hi] of relative width at
    most 1e-14 whose ends the exact inertia count puts on either side of
    sigma_min^2: no eigenvalue of X^H X below lo^2, at least one below
    hi^2.  Rows of betas are processed in blocks, so memory stays O(N) and
    no matrix is formed.  Raises NumericalError if hi is at most 1e-14
    (|beta| + (k/h) ||c||^2), that is, when i beta is numerically in the
    spectrum, if a bracket is wider than 1e-14 relative, or if it fails the
    count.  The spectrum scale leaves out max_m |beta - theta_m|, the rest
    of the bound on ||i beta - B||_2, which grows like (N+1)^4: the count
    works on the differences d_m, each rounded relative to itself, so a far
    pole theta_m moves sigma_min by a relative eps of its small term
    c_m^2/(d_m -+ x), not by eps theta_m.
    """
    theta, c = or_poles_weights(mesh)
    rho = k / mesh.h
    c2 = c * c
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    lo, hi = _smin_brackets(theta, c, rho, betas)
    where = f"(scheme=order_reduction, n={mesh.n}, k={k})"
    for failed, what in (
        (hi <= _SPECTRUM_RTOL * (np.abs(betas) + rho * np.sum(c2)),
         "i*beta is numerically in the spectrum"),
        (~(hi - lo <= _SMIN_RTOL * hi), "sigma_min bracket did not converge"),
    ):
        if np.any(failed):
            raise NumericalError(f"{what} at beta={betas[np.argmax(failed)]} {where}")
    for rows in _row_blocks(np.arange(betas.size), theta.size, _SMIN_BLOCK_ELEMENTS):
        d = betas[rows, None] - theta
        ad = np.abs(d)
        failed = ((_smin_count(d, ad, c2, rho * rho, lo[rows]) != 0)
                  | (_smin_count(d, ad, c2, rho * rho, hi[rows]) < 1))
        if np.any(failed):
            raise NumericalError(
                f"sigma_min bracket fails its eigenvalue count at "
                f"beta={betas[rows][np.argmax(failed)]} {where}"
            )
    return 0.5 * (lo + hi)


def _top_ritz(alpha: np.ndarray, beta: np.ndarray):
    """Largest eigenvalue of each Lanczos tridiagonal, and the last entry of its eigenvector."""
    m, j = alpha.shape
    T = np.zeros((m, j, j))
    diag = np.arange(j)
    T[:, diag, diag] = alpha
    T[:, diag[1:], diag[:-1]] = beta
    ev, vec = np.linalg.eigh(T, UPLO="L")
    return ev[:, -1], vec[:, -1, -1]


def _lanczos_top(mesh: Mesh, k: float, shifts: np.ndarray, factors, start: np.ndarray,
                 steps: int) -> np.ndarray:
    """Largest eigenvalue of X^{-1} X^{-H} per shift z = i beta; nan if `steps` did not suffice.

    `factors` are the `_shifted_factors` of the shifts.  Lanczos from `start`
    with full reorthogonalisation (classical Gram-Schmidt against the whole
    basis, twice, by einsum, which forms no temporary of the basis's size).
    A row is frozen once its residual |b_j s_j| is at most 1e-14 of its top
    Ritz value theta; the rows left are compacted and their shifts refactored.
    Every reduction runs along one row, D and D^T act elementwise, and a
    shift's factors do not depend on the shifts beside it, so a row's value
    does not depend on the rows beside it.
    """
    D = mesh.matrices.D
    m, n1 = shifts.size, mesh.state_size
    V = np.empty((m, steps + 1, n1), dtype=complex)
    V[:, 0] = start
    alpha = np.zeros((m, steps))
    beta = np.zeros((m, steps))
    top = np.full(m, np.nan)
    live = np.arange(m)
    for j in range(steps):
        # X^{-1} X^{-H} q = D Z^{-1} D^{-1} D^{-T} Z^{-H} D^T q, Z = i beta - A, O(N) per row q
        x = solve_d(solve_dt(_solve(factors, (D.T @ V[:, j].T).T, "C").T)).T
        w = (D @ _solve(factors, x, "N").T).T
        basis = V[:, :j + 1]
        for sweep in range(2):
            coef = np.einsum("mjn,mn->mj", basis, w.conj()).conj()
            if sweep == 0:
                alpha[:, j] = coef[:, j].real
            w -= np.einsum("mj,mjn->mn", coef, basis)
        beta[:, j] = np.linalg.norm(w, axis=1)
        theta, last = _top_ritz(alpha[:, :j + 1], beta[:, :j])
        done = beta[:, j] * np.abs(last) <= _LANCZOS_RTOL * theta
        top[live[done]] = theta[done]
        keep = ~done
        if not np.any(keep):
            break
        V[keep, j + 1] = w[keep] / beta[keep, j, None]
        if np.any(done):
            live, alpha, beta = live[keep], alpha[keep], beta[keep]
            V, used = np.empty((live.size, steps + 1, n1), dtype=complex), V
            V[:, :j + 2] = used[keep, :j + 2]  # the unused slots stay untouched
            factors = _shifted_factors(mesh, k, shifts[live])
    return top


def classical_resolvent_norm(mesh: Mesh, k: float, betas) -> np.ndarray:
    """Weighted norm of (i beta - A)^{-1} of the classical scheme per beta, O(N) per Lanczos step.

    With X = D (i beta - A) D^{-1}, the norm is ||X^{-1}||_2, the square
    root of the largest eigenvalue of X^{-1} X^{-H}, which `_lanczos_top`
    finds by inverse Lanczos (Wright & Trefethen, SIAM J. Sci. Comput. 23,
    2001) from one fixed seeded start.  It applies X^{-1} X^{-H} from O(N)
    pieces only: D and D^T as bidiagonals, D^{-1} and D^{-T} as the
    closed-form sums `grid.solve_d` and `grid.solve_dt`, and Z^{-1} and
    Z^{-H}, Z = i beta - A, by `_solve` on the `_shifted_factors` of Z, the
    factor-and-solve pair of the classical spectrum certificate: one
    factorisation per beta, and one more per block each time Lanczos freezes
    some of its betas.  Partial pivoting is needed: without it the first
    pivot is exactly zero at beta = 2/h^2, far from the spectrum.  No matrix
    is formed.  Betas are processed in blocks whose Krylov basis fits in
    2 MiB.

    Raises NumericalError when i beta is numerically in the spectrum: a
    factor has an exactly zero pivot, or 1/norm is at most
    1e-14 (|beta| + max mu + sqrt(5/2) k/h), with the last two terms a bound
    on ||A||_2; and when Lanczos does not converge within its step budget.
    """
    n1 = mesh.state_size
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    where = f"(scheme=classical, n={mesh.n}, k={k})"
    steps = min(n1, _LANCZOS_MAX_STEPS)
    rng = np.random.default_rng(_LANCZOS_SEED)
    start = rng.standard_normal(n1) + 1j * rng.standard_normal(n1)
    start /= np.linalg.norm(start)
    top = np.empty(betas.size)
    for rows in _row_blocks(np.arange(betas.size), n1 * (steps + 1), _KRYLOV_ELEMENTS):
        shifts = 1j * betas[rows]
        factors = _shifted_factors(mesh, k, shifts)
        singular = _zero_pivots(factors, n1)
        if np.any(singular):
            raise NumericalError(f"i*beta is numerically in the spectrum (zero pivot) at "
                                 f"beta={betas[rows][np.argmax(singular)]} {where}")
        top[rows] = _lanczos_top(mesh, k, shifts, factors, start, steps)
    norms = np.sqrt(top)
    scale = np.max(classical_poles_weights(mesh)[0]) + np.sqrt(2.5) * k / mesh.h
    for failed, what in (
        (np.isnan(norms), f"Lanczos did not converge in {steps} steps"),
        (1.0 / norms <= _SPECTRUM_RTOL * (np.abs(betas) + scale),
         "i*beta is numerically in the spectrum"),
    ):
        if np.any(failed):
            raise NumericalError(f"{what} at beta={betas[np.argmax(failed)]} {where}")
    return norms
