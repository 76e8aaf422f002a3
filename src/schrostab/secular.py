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
In the basis of its poles each generator is i diag(poles) - (k/h) p r^T with
p r = c^2: p = r = c (order reduction), or r_m = v_m(N) / ||v_m||, the last row
of the sine eigenbasis of M M^T, and p = c^2 / r (classical).
The two sums have the closed forms (`_tan2_terms`, `_sin2_terms`)

    f = 1 + (i k h/2) tan(L psi) / tan psi,  tan^2 psi = -i lam h^2 / 4,  L = 2(N+1),
    f = 1 - i k h s + (i k h/2)(1 + 2 s) tan(L psi) / tan psi,  s = sin^2 psi,  L = 2N+3,

with s = -i lam h^2 / 4, the second as c_m^2 = 4 (1 - s_m)(1 + 2 s_m) / L,
sum_m 1 / (s - s_m) = (tan psi - L tan L psi) / sin 2 psi and sum_m (2 s_m - 1) = -1/2
for the pole angles a_m = (2m+1) pi / (2L), s_m = sin^2 a_m.  Both spectra, like the
continuous one, are the roots lam = -i nu(mu)^2 of a(mu) cosh mu + b(mu) sinh mu = 0, one
per branch of `continuous._branch_roots`, refined by one Newton (`_refine`) and with
backward residuals bounded (`_residual`) relative to their poles in O(1) each, O(N) in
all (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995; Li, LAPACK Working Note 89,
1994), at the pole offsets Newton carries, the poles' rounding taken from np.longdouble
(`_Scheme.exact`), and certified by `spectrum` (or NumericalError), one driver for both
schemes.

The same factorisation gives the resolvent: i beta - B is orthogonally
similar to X = i diag(d) + (k/h) c c^T with d_m = beta - theta_m, so
sigma_min(i beta - B) = sigma_min(X), bracketed for every beta by an exact O(N)
eigenvalue count of X^H X (Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978),
again with no matrix.  The weighted classical generator has no orthogonal
diagonal-plus-rank-one form, but in the sine basis of M M^T, scaled, it is
X = L (i diag(d) + b s^T) L^{-1} with L^2 = I - kappa s s^T, and its count takes
a 3x3 Hermitian matrix in place of the 2x2 (Haynsworth inertia additivity, Linear
Algebra Appl. 1, 1968).  One entry, `resolvent_smin`, and one bracket loop,
`_smin_brackets`, serve both counts; `in_spectrum` takes its refusal from one count.

The coordinates a = Q^T sqrt(h) D W of a state W are its modal
coordinates: the weighted energy (h/2) ||D W||^2 is (1/2) ||a||^2, and the
last state component is c^T a / sqrt(h).  `_OrderReduction.coordinates` computes
them, and `_Classical.coordinates` the coordinates sqrt(h) V^T W in the sine
eigenbasis V of M M^T, each by one odd-frequency sine sum in O(N log N), so
`schrostab.dynamics` steps both schemes in these bases.

`_scheme` is the one place that tells the schemes apart: its record, an `_OrderReduction`
or a `_Classical`, holds the modal form and writes once per scheme each closed form in
which they differ, and `spectrum`, `resolvent_smin`, `in_spectrum` and the stepper read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .continuous import _branch_roots
from .errors import NumericalError
from .grid import Mesh, _as_state, _row_blocks
from .systems import CLASSICAL, SCHEMES, apply_generator

__all__ = [
    "or_poles_weights",
    "classical_poles_weights",
    "spectrum",
    "resolvent_smin",
    "in_spectrum",
]

_EPS = np.finfo(float).eps
# Entries per block of cross-checked roots, rows x the period L (2(N+1) or 2N+3), which
# bounds their root-to-pole terms or eigenvector spectra: 4 MiB of complex128.
_BLOCK_ELEMENTS = 1 << 18
_RESIDUAL_TOL = 1e-14
_TRACE_RTOL = 1e-12
_SUBNORMAL, _TINY = np.finfo(float).smallest_subnormal, np.finfo(float).tiny
# Neighbours in imaginary-part order differ in imaginary part by >= 5.5e-3 (order
# reduction) and 7.05e-6 (classical) of the larger modulus at N = 1023, kh in [1e-3, 50],
# falling like 6/(N+1) and 7.4/(N+1)^2; two approximations of one root fall below this.
_DISTINCT_RTOL = 1e-10
# Roots whose residual is also taken directly, over all poles (order reduction) or through
# the generator applier (classical): the rightmost ones, and seeded draws (with repeats).
_CROSS_CHECK_RIGHTMOST = 8
_CROSS_CHECK_SEEDED = 64
_CROSS_CHECK_SEED = 20232
# sigma_min brackets: relative width on return, step budget, and the relative
# Newton step below which the far side of the root is probed.
_SMIN_RTOL = 1e-14
_SMIN_MAX_STEPS = 200
_SMIN_PROBE = 1e-7
# Entries per block of the sigma_min solver: 128 KiB of float64 per temporary.
# Blocks of 1 << 18 were slower (1.11 s against 0.93 s for 4147 betas at
# N=4095) and raised the peak RSS of repeated resolvent sweeps by 1.3 MiB.
_SMIN_BLOCK_ELEMENTS = 1 << 14
# A bracket top at or below this times a bound on ||i beta - A|| puts i beta in the spectrum.
_SPECTRUM_RTOL = 1e-14


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
    ||v_m||^2 = (2N+3)/4.  In that basis A = i diag(mu) - (k/h) p r^T with
    p_m = -v_m^T u / ||v_m|| and r_m = v_m(N) / ||v_m||, so the eigenvalues
    of A are the roots of 1 + (k/h) sum_m p_m r_m / (lam - i mu_m).

    Every weight p_m r_m is positive.  Since (2N+3) a_m = (2m+1) pi/2,
    v_m(N) = (-1)^m cos a_m and v_m(N-1) = (-1)^m cos 3a_m, so

        ||v_m||^2 p_m r_m = cos a_m (3 cos a_m / 2 - cos 3a_m / 2)
                          = cos^2 a_m (3 - 2 cos^2 a_m)

    by cos 3a = 4 cos^3 a - 3 cos a, and 0 < a_m < pi/2 makes it positive.
    Hence p_m r_m = c_m^2 with c_m = 2 cos a_m sqrt((1 + 2 sin^2 a_m) / (2N+3)),
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


def _certify(lam, residuals, scale, traces, where: str) -> float:
    """Check all roots of one secular equation; returns their worst residual.

    Raises NumericalError unless every root is finite, `_coincident` marks none, every
    entry of every array of root residuals that the iterable `residuals` yields (drawn
    only after those two checks, so that a generator can evaluate them block by block)
    lies in [0, 1e-14 scale], which a nan or a negative value does not, and the sums of
    the real and imaginary parts of the roots match traces, each to 1e-12 relative (plus
    one unit per root below 2^-1022, where doubles are spaced 2^-1074 apart).
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
        if not abs(got - expect) <= _TRACE_RTOL * abs(expect) + n1 * _SUBNORMAL:
            raise NumericalError(
                f"secular roots miss the {part}-part trace: {got!r} against {expect!r} {where}"
            )
    return float(np.max(extremes))


def _tan_ratio(z):
    """tan(z) / z, as 1 + z^2/3 below |z| = 1e-5, where a subnormal z has lost its digits."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        return np.where(np.abs(z) < 1e-5, 1 + z * z / 3, np.tan(z) / z)


def _tan2_terms(v, tan, length: int, kh: float):
    """tan(L delta) / (k h), tan psi, W, V / (k h) and d(V / (k h W))/dv at psi = a_j + k h v.

    L psi = (j + 1/2) pi + L delta, so the order-reduction closed form of the module docstring
    reads f = W - V / (tan(L delta) tan psi), W = 1 and V = i k h/2.
    tan(L delta) / (k h) is L v `_tan_ratio`(L k h v), so a subnormal delta costs no digits,
    and tan psi is (t + tan delta) / (1 - t tan delta), t = tan a_j; O(1) each.
    """
    big = length * v * _tan_ratio(length * kh * v)
    small = kh * v * _tan_ratio(kh * v)  # tan delta
    near = (tan + small) / (1 - tan * small)  # tan(a_j + delta)
    return big, near, 1, 0.5j, 0


def _sin2_terms(v, tan, length: int, kh: float):
    """`_tan2_terms` of the classical closed form: W = 1 - i k h sigma and
    V = (i k h/2)(1 + 2 sigma), sigma = sin^2 psi = tan^2 psi / (1 + tan^2 psi)."""
    big, near = _tan2_terms(v, tan, length, kh)[:2]
    sec2 = 1 + near * near
    w = 1 - 1j * kh * near * near / sec2  # 1 - i k h sin^2 psi
    return big, near, w, 0.5j + 1j * near * near / sec2, kh * near * (2j - kh) / (sec2 * w * w)


def _refine(v, scheme: _Scheme):
    """Roots lam_j, offsets eps_j = lam_j - i poles_j^exact and v_j = delta_j / (k h), O(N).

    Newton from v_j (a nan stays one) on tan(L delta) tan psi / (k h) - V / (k h W)
    (`scheme.terms`), whose root is f's and which has no pole at delta = 0 (Gu & Eisenstat,
    1995), up to 8 times until a step is at most 4 eps |v_j|; then eps_j =
    i (2 (N+1))^2 (chi(psi_j) - chi(a_j)), with s = tan psi - t formed as s / (k h):
    s (2 t + s) over `scheme.chi_ratio`.
    k h is taken as (2^600 k) h / 2^600 where it is subnormal, short of digits, and
    Re lam_j as Re eps_j, whose sign survives where it underflows.
    """
    mesh, k, length, poles, (tan, offset) = (scheme.mesh, scheme.k, scheme.length,
                                             scheme.poles, scheme.exact)
    n1, kh = mesh.state_size, k * mesh.h
    scale = 2.0**600 if kh < _TINY else 1.0
    active = np.flatnonzero(np.isfinite(v))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        for _ in range(8):
            u, t = v[active], tan[active]
            big, near, w, vk, slope = scheme.terms(u, t, length, kh)
            step = (big * near - vk / w) / (
                length * (1 + (big * kh) ** 2) * near + big * (1 + near * near) * kh - slope)
            v[active] = u - step
            active = active[np.abs(step) > 4 * _EPS * np.abs(u - step)]
            if active.size == 0:
                break
        ratio = _tan_ratio(kh * v)
        s = v * ratio * (1 + tan * tan) / (1 - tan * (kh * v * ratio))  # s / (k h)
        eps = 1j * (2 * n1) ** 2 * s * ((k * scale) * mesh.h) * (2 * tan + s * kh)
        eps /= scale * scheme.chi_ratio(s, tan, kh)
    lam = eps.copy()
    lam.imag = poles + (eps.imag + offset)
    return lam, eps, v


def _residual(eps, f, scheme: _Scheme) -> np.ndarray:
    """An upper bound on the backward residual ||p|| |f| / ||y|| at each (j, eps_j), O(1) each.

    y = (lam_j - i poles)^{-1} p is the eigenvector of i diag(poles) + (k/h) p r^T of `scheme`;
    ||y||^2 |eps_j|^2 = sum_m p_m^2 |eps_j / (eps_j + i gap_m)|^2 is bounded below by
    its 9 terms |m - j| <= 4 (0.858 of it or more for order reduction, N <= 4095).
    """
    n1, poles, offset, weights = eps.size, scheme.poles, scheme.exact[1], scheme.p * scheme.p
    near = weights.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for o in (-4, -3, -2, -1, 1, 2, 3, 4):
            if abs(o) >= n1:
                continue
            rows, cols = slice(max(0, -o), n1 - max(0, o)), slice(max(0, o), n1 - max(0, -o))
            gap = (poles[rows] - poles[cols]) + (offset[rows] - offset[cols])
            near[rows] += weights[cols] * np.abs(eps[rows] / (eps[rows] + 1j * gap)) ** 2
        return np.sqrt(np.sum(weights)) * np.abs(f) * np.abs(eps) / np.sqrt(near)


def _lost_root(j, lam, eps, scheme: _Scheme, trace) -> float:
    """Root j, which no branch resolves, from the trace less the others, in place, O(N) a step.

    Newton on eps_j f on the direct sum over exact poles (Gu & Eisenstat, 1995), up to 8 times
    until a step is at most 4 eps |eps_j|; returns `_residual` over all poles.  At strong
    damping the classical root that leaves the poles' range, where W and V cancel, is lost.
    """
    poles, offset, p2 = scheme.poles, scheme.exact[1], scheme.p * scheme.p
    weights = scheme.k / scheme.mesh.h * scheme.c * scheme.c
    lam[j] = np.nan
    e = (trace - np.nansum(lam) - 1j * poles[j]) - 1j * offset[j]
    gaps = (poles[j] - poles) + (offset[j] - offset)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(8):
            to_poles = 1.0 / (e + 1j * gaps)
            f = 1.0 + to_poles @ weights
            step = e * f / (((e * to_poles) * to_poles) @ weights - f)
            e += step
            if not abs(step) > 4 * _EPS * abs(e):
                break
        to_poles = e / (e + 1j * gaps)
        f = 1.0 + (to_poles @ weights) / e
    eps[j], lam[j] = e, 1j * poles[j] + (e + 1j * offset[j])
    return np.sqrt(np.sum(p2)) * abs(f) * abs(e) / np.sqrt(np.abs(to_poles) ** 2 @ p2)


def _cross_checked(lam) -> np.ndarray:
    """The roots whose residual is also taken directly: the rightmost and the seeded ones."""
    seeded = np.random.default_rng(_CROSS_CHECK_SEED).integers(0, lam.size, _CROSS_CHECK_SEEDED)
    return np.union1d(seeded, np.argsort(lam.real)[-_CROSS_CHECK_RIGHTMOST:])


def spectrum(mesh: Mesh, k: float, scheme: str) -> tuple[np.ndarray, float]:
    """Certified eigenvalues of the generator of `scheme`, and their worst residual, O(N).

    In the basis of its poles the generator is i diag(poles) - (k/h) p r^T (`_scheme`), and a
    root's eigenvector is y = (lam - i poles)^{-1} p (Golub, 1973).  One root per branch of the
    scheme's dispersion relation (`_Scheme.branch_roots`) is refined by `_refine` from
    delta_j = -i zeta_j / (2(N+1)), or from delta_j = 0 where k h is below the scheme's
    `floor`, under the branch roots' rounding; one root no branch resolves (a nan, or marked
    by `_coincident`) is found by `_lost_root`.
    The residual ||p|| |f| / ||y|| is bounded by `_residual` at the carried (j, eps_j), plus the
    distance of the returned lam_j from i poles_j^exact + eps_j (np.longdouble: at the returned
    lam the rounding of Im lam, amplified by ||p|| / |p_j|, leaves 1.6e-12 of the classical
    scale at N=4095, and the order-reduction closed form overflows where k h is subnormal), and
    taken directly at the 8 rightmost and 64 seeded roots (`_Scheme.cross_check`).
    NumericalError unless `_certify` passes with the scheme's traces and scale (`bounds`).
    """
    record = _scheme(mesh, k, scheme)
    n1, kh = mesh.state_size, k * mesh.h
    poles, (tan, offset) = record.poles, record.exact
    traces, scale, _ = record.bounds()
    lost, v = np.zeros(n1, dtype=bool), np.zeros(n1, dtype=complex)
    if kh >= record.floor:
        z, zeta0, lam = record.branch_roots()
        lost = np.isnan(lam) | _coincident(lam)
        branch = np.arange(n1) + 0.5
        v = np.where(lost, np.nan, -1j * ((z - 1j * branch * np.pi) - zeta0) / (2 * n1 * kh))
    lam, eps, v = _refine(v, record)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        big, near, w, vk = record.terms(v, tan, record.length, kh)[:4]
        residual = _residual(eps, w - vk / (big * near), record)
    if np.count_nonzero(lost) == 1:
        j = np.flatnonzero(lost)[0]
        residual[j] = _lost_root(j, lam, eps, record, complex(*traces))

    def residuals():
        exact = 1j * (poles.astype(np.longdouble) + offset) + eps
        yield residual + np.abs(lam - exact).astype(float)
        for rows in _row_blocks(_cross_checked(lam), record.length, _BLOCK_ELEMENTS):
            yield record.cross_check(rows, lam, eps)

    worst = _certify(lam, residuals(), scale, traces, f"(scheme={scheme}, n={mesh.n}, k={k})")
    return lam, worst


def _smin_start(d: np.ndarray, ad: np.ndarray, c2: np.ndarray, rho: float) -> np.ndarray:
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


def _or_count(d, ad, c2, rho, x, newton=False):
    """Eigenvalues of X^H X below x^2 per row, and optionally a Newton step toward sigma_min.

    X^H X - x^2 = (D^2 - x^2) + W C W^H with W = [c, Dc] and
    C = [[rho^2 ||c||^2, i rho], [-i rho, 0]], which has one negative
    eigenvalue.  Haynsworth inertia additivity on [[D^2 - x^2, W], [W^H, -C^{-1}]]
    gives the count as #{|d_m| < x} + neg(-C^{-1} - W^H (D^2 - x^2)^{-1} W) - 1.
    With P = sum c^2/(d - x) and Q = sum c^2/(d + x), that 2x2 matrix has
    determinant -g/rho^2 for g = 1 + rho^2 P Q, and its diagonal has the
    sign of Q - P; so it has one negative eigenvalue if g > 0, else two or
    none as P > Q or not.  Each row's sums depend on that row alone, so a
    count does not change with the rows evaluated beside it.  At x = |d_m|,
    d_m - x or -x - d_m is +0, so P and Q take their limits from below the
    pole, where the count is left-continuous (d_m + x = +0 would count -1).

    The Newton step is taken on (p - x) g with p the pole |d_m| nearest x,
    which removes the pole that would otherwise stall Newton's method.
    """
    xs = x[:, None]
    rho2 = rho * rho
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        minus = d - xs
        np.reciprocal(minus, out=minus)
        plus = -xs - d
        np.reciprocal(plus, out=plus)  # -1 / (d + x)
        terms = c2 * minus
        P = terms.sum(axis=1)
        if newton:
            terms *= minus
            dP = terms.sum(axis=1)
        np.multiply(c2, plus, out=terms)
        Q = -terms.sum(axis=1)
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


def _classical_count(d, ad, c2, rho, x, newton=False):
    """Eigenvalues of X^H X below x^2 per row, and optionally a Newton step toward sigma_min.

    In the sine basis of M M^T, scaled by C = diag(cos a_m), the weighted
    i beta - A is X = L (i D + b s^T) L^{-1} with s_m = (-1)^m / sqrt(N+1),
    b_m = rho sqrt(N+1) (-1)^m c_m^2 and L^2 = I - kappa s s^T,
    kappa = (2N+2)/(2N+3), since the weighted norm of a state with sine
    coordinates u is ||L C u|| (`dynamics.MidpointStepper`).  By Sylvester's law the count is the
    number of negative eigenvalues of (D^2 - x^2) + W K W^T with W = [Db, Ds, s]
    and K a Hermitian 3x3 with one positive eigenvalue, and Haynsworth inertia
    additivity makes it #{|d_m| < x} + neg(S) - 1 with R_m = 1/(d_m^2 - x^2) and

        S = [[x^2 (kappa - B0), -x^2 T0,          i - T1],
             [-x^2 T0,          1/(2N+2) - x^2 S0, -S1   ],
             [-i - T1,          -S1,               -S0   ]],

    B0 = sum b^2 R, T0 = sum b s R, T1 = sum b s d R, S0 = sum s^2 R and
    S1 = sum s^2 d R.  The pole p with |d_p| nearest x is deflated: its terms
    leave the sums (S_r, with the constant parts of its terms kept) and come
    back as e = (d_p^2 - x^2) - w^T S_r^{-1} w, w = (d_p b_p, d_p s_p, s_p), so
    the count is #{m != p : |d_m| < x} + neg(S_r) - 1 + [e < 0], and e is smooth
    through the pole: the Newton step is taken on it.  neg(S_r) is the number
    of sign changes of (1, trace, sum of principal 2x2 minors, det), exact by
    Descartes' rule since S_r has real eigenvalues, and S_r^{-1} w is
    adj(S_r) w / det.  Every sum runs along one row, so a count does not
    change with the rows evaluated beside it.
    """
    m, n1 = d.shape
    rows, xs = np.arange(m), x[:, None]
    kappa = 2 * n1 / (2 * n1 + 1)
    bs = rho * c2  # b_m s_m
    bb = n1 * bs * bs
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x2 = x * x
        p = np.argmin(np.abs(ad - xs), axis=1)
        R = (d - xs) * (d + xs)
        np.reciprocal(R, out=R)
        R[rows, p] = 0.0

        def sums(R):
            dR = d * R
            return (R.sum(axis=1) / n1, dR.sum(axis=1) / n1, (bs * R).sum(axis=1),
                    (bs * dR).sum(axis=1), (bb * R).sum(axis=1))

        S0, S1, T0, T1, B0 = sums(R)
        sp = np.where(p % 2, -1.0, 1.0) / np.sqrt(n1)
        bp, dp = n1 * bs[p] * sp, d[rows, p]
        # the entries of S_r = [[a, f, u + i], [f, b, g], [u - i, g, c]], with s_p^2 = 1/(N+1)
        a, f, u = x2 * (kappa - B0) + bp * bp, bp * sp - x2 * T0, -T1
        b, g, c = 1.5 / n1 - x2 * S0, -S1, -S0
        minors = (b * c - g * g, a * c - u * u - 1, a * b - f * f)
        det = a * minors[0] - f * f * c + 2 * f * g * u - b * (u * u + 1)
        changes, last = np.zeros(m, dtype=int), np.ones(m)
        for sign in np.sign((a + b + c, sum(minors), det)):
            changes += (sign != 0) & (sign != last)
            last = np.where(sign == 0, last, sign)
        w = (dp * bp, dp * sp, sp)
        # adj(S_r) w, real and imaginary parts, over det
        y_re = np.array((minors[0] * w[0] + (u * g - f * c) * w[1] + (f * g - u * b) * w[2],
                         (u * g - f * c) * w[0] + minors[1] * w[1] + (u * f - a * g) * w[2],
                         (f * g - u * b) * w[0] + (u * f - a * g) * w[1] + minors[2] * w[2]))
        y_re /= det
        e = (dp - x) * (dp + x) - (w[0] * y_re[0] + w[1] * y_re[1] + w[2] * y_re[2])
        count = (np.count_nonzero(ad < xs, axis=1) - (np.abs(dp) < x) + changes - 1 + (e < 0))
        if not newton:
            return count
        S02, S12, T02, T12, B02 = sums(R * R)
        y_im = np.array((g * w[1] - b * w[2], f * w[2] - g * w[0], b * w[0] - f * w[1]))
        y_im /= det
        # de/dx = 2x (y^H P y - 1) with S_r' = 2x P, P real symmetric
        P = ((kappa - B0 - x2 * B02, -T0 - x2 * T02, -T12),
             (-T0 - x2 * T02, -S0 - x2 * S02, -S12),
             (-T12, -S12, -S02))
        quad = sum(P[i][j] * (y_re[i] * y_re[j] + y_im[i] * y_im[j])
                   for i in range(3) for j in range(3))
        return count, e / (2 * x * (quad - 1))


def _smin_brackets(count, start, d, c2, rho):
    """Brackets [lo, hi] with count(lo) = 0 and count(hi) >= 1 for each row of d.

    Starts at `start` inside [0, the third-smallest |d_m|] (the largest with
    fewer poles), which holds sigma_min by interlacing: X is i diag(d) plus a
    term of rank at most two, one for order reduction.  Each step evaluates the
    count at one point per row and keeps the bracket.  The next point is the
    Newton point of `count`, taken only where the count is at most 1, inside
    the bracket, and after a step at least twice its size (or a bisection);
    once two points fall on one side and the Newton step is below
    _SMIN_PROBE relative, it is the Newton point moved on by one more such
    step, which lands past the root and closes the far side.  Otherwise a
    bisection step: geometric while hi > 4 lo, else arithmetic.  Rows stop
    at a relative width of _SMIN_RTOL.
    """
    m, n1 = d.shape
    ad = np.abs(d)
    low = np.zeros(m)
    high = np.partition(ad, min(2, n1 - 1), axis=1)[:, min(2, n1 - 1)] * (1 + 4 * _EPS)
    high += np.finfo(float).tiny
    x = start(d, ad, c2, rho)
    outside = ~((x > 0) & (x < high))
    x[outside] = 0.5 * high[outside]
    last_step = np.full(m, np.inf)
    last_side = np.zeros(m)
    todo = np.arange(m)
    for _ in range(_SMIN_MAX_STEPS):
        if todo.size == 0:
            break
        here = x[todo]
        every = todo.size == m  # skip the row copies while no row has stopped
        counts, step = count(d if every else d[todo], ad if every else ad[todo],
                             c2, rho, here, newton=True)
        above = counts >= 1
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
            take = ((target > lo_t - slack) & (target < hi_t + slack) & (counts <= 1)
                    & (probe | (np.abs(step) <= 0.5 * last_step[todo])))
        last_step[todo] = np.where(take, np.abs(step), np.inf)
        target = np.clip(target, lo_t + 4 * _EPS * hi_t, hi_t - 4 * _EPS * hi_t)
        floor = np.maximum(lo_t, _EPS * hi_t)
        bisect = np.where(hi_t > 4 * floor, np.sqrt(floor * hi_t), 0.5 * (lo_t + hi_t))
        x[todo] = np.where(take, target, bisect)
        todo = todo[width > _SMIN_RTOL * hi_t]
    return low, high


@dataclass(frozen=True)
class _Scheme:
    """One scheme at gain k: its modal form i diag(poles) - (k/h) p r^T, p r = c^2, the period L
    of its pole angles a_m = (2m+1) pi / (2L), and each closed form in which the schemes differ,
    written once in `_OrderReduction` and once in `_Classical`.  `chi_ratio` is
    (tan^2 psi - tan^2 a) / (chi(psi) - chi(a)), `floor` the k h below which every branch starts
    at delta = 0, and `bounds` the traces, the scale of ||A||_2 and the sigma_min scale.  p and
    the pole offsets (`exact`) are formed where first read: the stepper never forms the offsets.
    """

    mesh: Mesh
    k: float
    length: int
    poles: np.ndarray
    c: np.ndarray

    @cached_property
    def exact(self):
        """tan a_m, and the offset poles_m^exact - poles_m of each rounded pole, O(N).

        The poles are (2 (N+1))^2 chi(a_m), a_m = (2m+1) pi / (2L), chi = tan^2 and L = 2(N+1)
        (order reduction) or chi = sin^2 and L = 2N+3 (classical; its upper half as
        4 (N+1)^2 - (2 (N+1) cos a_m)^2), from np.longdouble sin a_m and cos a_m, the sine of the
        complementary angle (`pole_offsets`): eps_j from the rounded poles would carry
        their rounding, most of it at weak damping and at the top poles.  Where np.longdouble is
        double, the offsets, and the pole-rounding term of `spectrum`'s residual, are formed in
        the precision they are meant to bound: both spectra still certify, with the same
        abscissae, but the certificate no longer covers the poles' rounding.
        """
        m = np.arange(self.poles.size, dtype=np.longdouble)
        quarter = 2 * np.arctan(np.longdouble(1)) / self.length  # pi / (2L)
        sin, cos = np.sin(np.array((2 * m + 1, self.length - 2 * m - 1)) * quarter)
        return (sin / cos).astype(float), self.pole_offsets(m, sin, cos).astype(float)


class _OrderReduction(_Scheme):
    """theta_m = (2 (N+1) tan a_m)^2, L = 2(N+1) and p = r = c.

    The branches, lam = -i (2/h tanh(mu h/2))^2, start at zeta_j = 0.  The traces are
    sum Re lam = -(k/h) ||c||^2 and sum Im lam = sum theta_m, and max theta + (k/h) ||c||^2
    bounds ||A||_2.  The sigma_min scale, (k/h) ||c||^2, leaves out max_m |beta - theta_m|,
    which grows like (N+1)^4: `_or_count` works on the differences d_m, each rounded relative
    to itself, so a far pole moves sigma_min by a relative eps of its small term
    c_m^2/(d_m -+ x), not by eps theta_m.
    """

    floor, terms = _TINY, staticmethod(_tan2_terms)
    count, start = staticmethod(_or_count), staticmethod(_smin_start)
    p = r = property(lambda self: self.c)

    def pole_offsets(self, m, sin, cos):
        return (2 * self.mesh.state_size * (sin / cos)) ** 2 - self.poles

    def chi_ratio(self, s, tan, kh):
        return 1

    def branch_roots(self):
        h, k = self.mesh.h, self.k

        def coefficients(mu):
            t = np.tanh(mu * h / 2)
            return 2 / h * t, 1j * k, 1 - t * t, 0.0

        zeta0 = np.zeros(self.mesh.state_size)
        z = _branch_roots(coefficients, zeta0)
        return z, zeta0, -1j * (2 / h * np.tanh(z * h / 2)) ** 2

    def bounds(self):
        damping = self.k / self.mesh.h * np.sum(self.c * self.c)
        return (-damping, np.sum(self.poles)), np.max(self.poles) + damping, damping

    def cross_check(self, rows, lam, eps) -> np.ndarray:
        """||p|| |f| / ||y|| at the roots `rows`, summed over all poles; each root-to-pole term is
        divided into the nearest one, so it is at most 1 in modulus, and scaled by 2^600 first
        where k h is subnormal: complex division by a subnormal overflows."""
        mesh, k, p = self.mesh, self.k, self.c
        up = 2.0**600 if k * mesh.h < _TINY else 1.0
        p2 = p * p
        with np.errstate(divide="ignore", invalid="ignore"):
            to_poles = lam[rows, None] - 1j * self.poles
            if up > 1:
                to_poles *= up
            near = np.min(np.abs(to_poles), axis=1)
            np.divide(near[:, None], to_poles, out=to_poles)
            f = 1.0 + (k * up / mesh.h) * (to_poles @ p2) / near
            return np.sqrt(np.sum(p2)) * np.abs(f) * (near / up) / np.sqrt(np.abs(to_poles)**2 @ p2)

    def coordinates(self, W):
        """The modal coordinates a = Q^T sqrt(h) D W of a state W, O(N log N).

        a_m = s_m^T (sqrt(h) D^T D W) / ||D s_m||, with ||D s_m|| = cos phi_m
        sqrt((N+1)/2) = 1/|c_m|; the sums s_m^T y are a DST-III, `_sine_sums` of period 2(N+1).
        """
        D = self.mesh.matrices.D
        y = np.sqrt(self.mesh.h) * (D.T @ (D @ np.asarray(W, dtype=complex)))
        return np.abs(self.c) * _sine_sums(y, self.length)

    def energy(self, u, ru):
        return 0.5 * float(np.vdot(u, u).real)  # u = Q^T sqrt(h) D W


class _Classical(_Scheme):
    """mu_m = (2 (N+1) sin a_m)^2, L = 2N+3, r = V^T e_N (`classical_poles_weights`) and p = c^2/r.

    The dispersion relation is that of the last two rows of A with y_j = sinh(z x_j),
    y_{N+1} = sinh(z) / (1 + i k h/2), less the fold z h = i pi, where y = 0; its branches start
    at zeta_j = -i (j + 1/2) pi / L.  The traces are sum Re lam = -(3/2) k/h and
    sum Im lam = (2N+1)/h^2, and max mu + sqrt(5/2) k/h bounds ||A||_2 and, as the sigma_min
    scale, ||i beta - A||_2 less |beta|.  `_classical_count` starts at half the nearest |d_m|.
    """

    floor, terms = _EPS, staticmethod(_sin2_terms)
    count, start = staticmethod(_classical_count), staticmethod(lambda d, ad, c2, rho:
                                                                 0.5 * np.min(ad, axis=1))

    @cached_property
    def r(self):
        n1, h = self.mesh.state_size, self.mesh.h
        return (-1.0) ** np.arange(n1) * self.c / np.sqrt(1.0 + 0.5 * self.poles * h**2)

    @cached_property
    def p(self):
        return self.c * self.c / self.r

    @cached_property
    def cos2(self):  # cos^2 a_m, as 1 - mu_m h^2 / 4 cancels at the top modes
        return 0.25 * self.length * self.r**2

    def pole_offsets(self, m, sin, cos):
        n1, poles = self.mesh.state_size, self.poles
        return np.where(m > self.mesh.n / 2, (4 * n1**2 - poles) - (2 * n1 * cos) ** 2,
                        (2 * n1 * sin) ** 2 - poles)

    def chi_ratio(self, s, tan, kh):
        near = tan + s * kh
        return (1 + tan * tan) * (1 + near * near)

    def branch_roots(self):
        h, k = self.mesh.h, self.k
        s, t = 1 + 0.5j * k * h, 1 - 0.5j * k * h

        def coefficients(z):
            sinh, cosh = np.sinh(z * h), np.cosh(z * h)
            return s * sinh / h, (t * cosh - 1 + 1.5j * k * h) / h, s * cosh, t * sinh

        zeta0 = -1j * (np.arange(self.mesh.state_size) + 0.5) * np.pi / self.length
        z = _branch_roots(coefficients, zeta0)
        lam = -1j * (2 / h * np.sinh(z * h / 2)) ** 2
        lam[np.abs(lam - 4j / h**2) <= _DISTINCT_RTOL * 4 / h**2] = np.nan  # the fold
        return z, zeta0, lam

    def bounds(self):
        h, rho = self.mesh.h, self.k / self.mesh.h
        scale = np.max(self.poles) + np.sqrt(2.5) * rho
        return (-1.5 * rho, (2 * self.mesh.n + 1) / h**2), scale, scale

    def cross_check(self, rows, lam, eps) -> np.ndarray:
        """||A x - lam x|| / ||x|| at the roots `rows` through `systems.apply_generator`.

        A = V (i diag(mu) - (k/h) p r^T) V^T, so x = V y with y = (lam - i mu)^{-1} p, taken as
        p eps_j / (eps_j + i gap) over exact pole gaps, one inverse FFT of length 2N+3 per root.
        """
        n, poles, offset, p = self.mesh.n, self.poles, self.exact[1], self.p
        # y_m in slot m + N + 2 of a period-(2N+3) inverse FFT G gives
        # x_j = (-1)^(j+1) (G_{j+1} - G_{-(j+1)}), so that x = (i / sqrt(2N+3)) V y
        spectra = np.zeros((rows.size, self.length), dtype=complex)
        y = spectra[:, n + 2:]
        gap, e = (poles[rows, None] - poles) + (offset[rows, None] - offset), eps[rows, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # over a real |eps_j + i gap|^2: complex division by a subnormal eps_j overflows
            y[:] = p * (np.abs(e) ** 2 - 1j * gap * e) / ((gap + e.imag) ** 2 + e.real**2)
        y[np.arange(rows.size), rows] = p[rows]
        G = np.fft.ifft(spectra, axis=1)
        X = G[:, 1:n + 2] - G[:, :n + 1:-1]
        X[:, ::2] *= -1
        R = apply_generator(CLASSICAL, X.T, self.k, self.mesh) - X.T * lam[rows]
        return np.linalg.norm(R, axis=0) / np.linalg.norm(X, axis=1)

    def coordinates(self, W):
        """The coordinates u = sqrt(h) V^T W of a state W, V_jm = v_m(j) / ||v_m||, O(N log N).

        V is the orthonormal eigenbasis of M M^T (`classical_poles_weights`), so u is
        2 sqrt(h / (2N+3)) times `_sine_sums` of period 2N+3.  The last state component
        is r^T u / sqrt(h).
        """
        period = self.length
        return 2 * np.sqrt(self.mesh.h / period) * _sine_sums(_as_state(W, self.mesh), period)

    def energy(self, u, ru):
        # u = sqrt(h) V^T W, r^T u = sqrt(h) W_N and 4 D^T D = 4I - h^2 M M^T - 2 e_N e_N^T
        return 0.5 * float(self.cos2 @ np.abs(u) ** 2 - 0.5 * abs(ru) ** 2)


def _scheme(mesh: Mesh, k: float, scheme: str) -> _Scheme:
    """The record of `scheme` at gain k, O(N); ValueError if it is unknown or not 0 < k < inf."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not 0 < k < np.inf:
        raise ValueError(f"feedback gain must be positive and finite, got k={k}")
    if scheme == CLASSICAL:
        return _Classical(mesh, k, 2 * mesh.n + 3, *classical_poles_weights(mesh))
    return _OrderReduction(mesh, k, 2 * mesh.state_size, *or_poles_weights(mesh))


def in_spectrum(mesh: Mesh, k: float, beta: float, scheme: str) -> bool:
    """Whether sigma_min(i beta - B) is below `resolvent_smin`'s tolerance, by one count, O(N).

    `resolvent_smin` refuses i beta where its bracket top is at most that tolerance, so the two
    differ only where the tolerance falls inside a bracket, of relative width 1e-14."""
    record = _scheme(mesh, k, scheme)
    count, scale = record.count, record.bounds()[2]
    d = (np.array([[beta]]) - record.poles) - record.exact[1]
    x = np.array([_SPECTRUM_RTOL * (abs(beta) + scale)])
    return bool(count(d, np.abs(d), record.c * record.c, k / mesh.h, x)[0])


def resolvent_smin(mesh: Mesh, k: float, betas, scheme: str) -> np.ndarray:
    """Certified sigma_min(i beta - B) of `scheme`'s weighted generator B for each beta, O(N) each.

    `_smin_brackets` on d = (beta - poles) - (poles^exact - poles) (`_Scheme.exact`: beta - poles
    alone would carry the poles' rounding, up to eps poles_m, most of sigma_min at a peak at weak
    damping), with the scheme's exact inertia count and its start.  The value is
    the midpoint of a bracket [lo, hi] of relative width at most 1e-14 whose ends the count puts
    on either side of sigma_min^2: no eigenvalue of X^H X below lo^2, at least one below hi^2,
    taken as lo/2 + hi/2, which does not overflow.  Rows of betas are processed in blocks, so
    memory stays O(N) and no matrix is formed.  Raises NumericalError if a bracket end is not
    finite, or a bracket is wider than 1e-14 relative, or fails the count, or if hi is at most
    1e-14 of |beta| plus the scheme's scale, i beta numerically in the spectrum (`in_spectrum`).
    """
    record = _scheme(mesh, k, scheme)
    count, start, scale = record.count, record.start, record.bounds()[2]
    poles, offset, c2, rho = record.poles, record.exact[1], record.c * record.c, k / mesh.h
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    scale = np.abs(betas) + scale
    where = f"(scheme={scheme}, n={mesh.n}, k={k})"
    lo, hi = np.zeros(betas.size), np.empty(betas.size)
    blocks = list(_row_blocks(np.arange(betas.size), poles.size, _SMIN_BLOCK_ELEMENTS))
    for rows in blocks:
        d = (betas[rows, None] - poles) - offset
        with np.errstate(over="ignore", invalid="ignore"):  # an end that overflows is refused
            lo[rows], hi[rows] = _smin_brackets(count, start, d, c2, rho)
    for failed, what in ((~np.isfinite(hi), "sigma_min bracket end is not finite"),
                         (hi <= _SPECTRUM_RTOL * scale, "i*beta is numerically in the spectrum"),
                         (~(hi - lo <= _SMIN_RTOL * hi), "sigma_min bracket did not converge")):
        if np.any(failed):
            raise NumericalError(f"{what} at beta={betas[np.argmax(failed)]} {where}")
    for rows in blocks:
        d = (betas[rows, None] - poles) - offset
        ad = np.abs(d)
        failed = (count(d, ad, c2, rho, lo[rows]) != 0) | (count(d, ad, c2, rho, hi[rows]) < 1)
        if np.any(failed):
            raise NumericalError(f"sigma_min bracket fails its eigenvalue count at "
                                 f"beta={betas[rows][np.argmax(failed)]} {where}")
    return 0.5 * lo + 0.5 * hi
