import os

# One OpenBLAS thread unless the caller sets another count.  OpenBLAS reads
# the variable when numpy first loads it, and nothing has imported numpy yet
# when pytest imports this file.  On a 2-core machine two threads made the
# dense-oracle tests about three times slower.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dense_generator(system):
    """The dense generator of a system, the applier evaluated on the identity."""
    from schrostab.systems import assemble_generator

    return assemble_generator(system.scheme, system.k, system.mesh)


def weighted_oracle(system):
    """Dense S A S^{-1} with S = sqrt(h) D formed from the sparse scheme matrix."""
    from schrostab.grid import build_scheme_matrices

    S = np.sqrt(system.mesh.h) * build_scheme_matrices(system.mesh).D.toarray()
    return S @ dense_generator(system) @ np.linalg.inv(S)


def modal_oracle(mesh):
    """Dense Q with columns q_m = D s_m / ||D s_m||, s_m = sin((m + 1/2) pi x_j)."""
    from schrostab.grid import build_scheme_matrices

    x = mesh.nodes[1:]
    S = np.sin(np.outer(x, np.arange(mesh.state_size) + 0.5) * np.pi)
    Q = build_scheme_matrices(mesh).D.toarray() @ S
    return Q / np.linalg.norm(Q, axis=0)


def aberth_roots(theta, c, rho, sweeps=100):
    """All roots of 1 + rho sum_m c_m^2 / (lam - i theta_m), by Aberth sweeps.

    An independent O(N^2)-per-sweep oracle for the branch-wise spectra
    (Aberth, Math. Comp. 27, 1973).  The sweeps take Aberth steps on
    p(lam) = f(lam) prod_m (lam - i theta_m), whose Newton correction is
    1 / (f'/f + sum_m 1/(lam - i theta_m)), from the seeds
    i theta_m - rho c_m^2, where the m-th term cancels the 1.  Each block of
    roots is updated in place.  A root is frozen once its step is at most
    4 eps |lam|; a non-finite step leaves its root unchanged for that sweep.
    """
    from schrostab.grid import _row_blocks

    eps = np.finfo(float).eps
    n1 = theta.size
    weights = rho * c * c
    poles = 1j * theta
    lam = poles - weights
    active = np.ones(n1, dtype=bool)
    for _ in range(sweeps):
        todo = np.flatnonzero(active)
        if todo.size == 0:
            break
        for rows in _row_blocks(todo, n1, 1 << 18):
            here = lam[rows, None]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                to_poles = 1.0 / (here - poles)
                f = 1.0 + to_poles @ weights
                df = -(to_poles * to_poles) @ weights
                newton = 1.0 / (df / f + to_poles.sum(axis=1))
                apart = here - lam
                apart[np.arange(rows.size), rows] = np.inf
                step = newton / (1.0 - newton * (1.0 / apart).sum(axis=1))
            finite = np.isfinite(step)
            moved = rows[finite]
            lam[moved] -= step[finite]
            active[moved[np.abs(step[finite]) <= 4 * eps * np.abs(lam[moved])]] = False
    return lam


def classical_resolvent_within(system, betas, norms, rtol):
    """Whether each norm is within rtol of sigma_max(M), M = D Z^{-1} D^{-1} and Z = i beta - A.

    Z comes from the dense classical generator, and Y = Z^{-1} D^{-1} from one
    banded solve (`scipy.linalg.solve_banded`) with the dense D^{-1} as
    right-hand side, refined once with the residual D^{-1} - Z Y formed in
    np.longdouble, Z's diagonal i beta - A_jj included: in double alone, that
    diagonal's rounding, up to eps max |A_jj|, and the solve's left the norm
    2.9e-12 relative off a 30-digit reference at N=127, k=0.1 (1.1e-15 refined).
    The test is an exact inertia count, cheaper than an SVD:
    sigma_max(M) < x exactly when x^2 I - M^H M has a Cholesky factor, so a
    norm g passes when there is one at x = g (1 + rtol) and none at
    x = g (1 - rtol).
    """
    import scipy.linalg as sla
    from scipy.linalg.blas import zherk
    from scipy.linalg.lapack import zpotrf

    from schrostab.grid import build_scheme_matrices

    A = dense_generator(system)
    assert not np.any(np.triu(A, 2)) and not np.any(np.tril(A, -2))
    D = build_scheme_matrices(system.mesh).D
    D_inv = np.linalg.inv(D.toarray())
    diag = np.diag_indices(A.shape[0])
    bands = np.zeros((3, A.shape[0]), dtype=complex)
    bands[0, 1:] = -np.diag(A, 1)
    bands[2, :-1] = -np.diag(A, -1)
    wide = bands.astype(np.clongdouble)[:, :, None]
    within = []
    for beta, norm in zip(np.atleast_1d(betas), np.atleast_1d(norms)):
        bands[1] = 1j * beta - np.diag(A)
        wide[1, :, 0] = 1j * np.longdouble(beta) - np.diag(A)  # not rounded to double
        Y = sla.solve_banded((1, 1), bands, D_inv)
        wide_Y = Y.astype(np.clongdouble)
        residual = D_inv - wide[1] * wide_Y
        residual[:-1] -= wide[0, 1:] * wide_Y[1:]
        residual[1:] -= wide[2, :-1] * wide_Y[:-1]
        Y += sla.solve_banded((1, 1), bands, residual.astype(complex))
        M = D @ Y
        G = zherk(-1.0, M.astype(complex), trans=2)  # upper triangle
        factors = []
        for side in (1, -1):
            H = G.copy()
            H[diag] += (norm * (1 + side * rtol)) ** 2
            factors.append(zpotrf(H)[1] == 0)
        within.append(factors == [True, False])
    return np.array(within)


def or_backward_residual(lam, theta, c, rho):
    """||c|| |f(lam)| / ||v|| per root by direct sums over all poles, O(N^2) in all.

    The backward error of the eigenpair (lam, v) of i Theta - rho c c^T with
    v = (lam - i Theta)^{-1} c and f(lam) = 1 + rho sum_m c_m^2 / (lam - i theta_m),
    in blocks of 2^18 root-to-pole terms.
    """
    from schrostab.grid import _row_blocks

    c2 = c * c
    out = []
    for rows in _row_blocks(np.arange(lam.size), theta.size, 1 << 18):
        with np.errstate(divide="ignore", invalid="ignore"):
            to_poles = 1.0 / (lam[rows, None] - 1j * theta)
            f = 1.0 + rho * (to_poles @ c2)
            out.append(np.sqrt(c2.sum()) * np.abs(f) / np.sqrt(np.abs(to_poles) ** 2 @ c2))
    return np.concatenate(out)


def _polish(lam, poles, weights, trace, offset=0.0):
    """Secular roots made whole, then refined on the direct sum; returns eps_j = lam_j - i poles_j.

    The O(N^2) reference oracle for both spectra.  A nan, or a root `secular._coincident`
    marks, is missing; one missing root is the trace less the others.  Newton on
    f = 1 + sum weights / (lam - i poles) runs on eps_j (Gu & Eisenstat, 1995), with the
    poles at poles + offset (eps_j taken from that pole too), so that small real parts keep
    their digits, for up to 8 steps, until a step is at most 4 eps |eps_j|.  It steps on
    eps_j f, which removes pole j: from a branch root more than |eps_j| off (the top roots
    at weak damping), Newton on f runs off along it.
    The derivative's terms are summed as (eps_j / (lam_j - i poles_m)) / (lam_j - i poles_m),
    so that nothing overflows or underflows down to k = 1e-300.  Each sweep runs over all
    poles in blocks of 2^18 root-to-pole terms.
    """
    from schrostab.grid import _row_blocks
    from schrostab.secular import _coincident

    eps_max = np.finfo(float).eps
    lam[_coincident(lam)] = np.nan
    if np.count_nonzero(np.isnan(lam)) == 1:
        lam[np.isnan(lam)] = trace - np.nansum(lam)
    offset = np.broadcast_to(offset, poles.shape)
    eps = (lam - 1j * poles) - 1j * offset
    active = np.ones(lam.size, dtype=bool)
    for _ in range(8):
        for rows in _row_blocks(np.flatnonzero(active), lam.size, 1 << 18):
            gaps = (poles[rows, None] - poles) + (offset[rows, None] - offset)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                to_poles = 1.0 / (eps[rows, None] + 1j * gaps)
                f = 1.0 + to_poles @ weights
                step = eps[rows] * f / (((eps[rows, None] * to_poles) * to_poles) @ weights - f)
                eps[rows] += step
                active[rows] = np.abs(step) > 4 * eps_max * np.abs(eps[rows])
    return eps


def or_polished_roots(mesh, k):
    """Order-reduction roots by Newton on the direct secular sum, O(N^2) in all.

    The branch roots of the order-reduction dispersion relation, refined by
    `_polish` on the order-reduction poles and weights, as rounded to double precision.
    """
    from schrostab.continuous import _branch_roots
    from schrostab.secular import or_poles_weights

    theta, c = or_poles_weights(mesh)
    rho, h = k / mesh.h, mesh.h

    def coefficients(mu):
        t = np.tanh(mu * h / 2)
        return 2 / h * t, 1j * k, 1 - t * t, 0.0

    nu = coefficients(_branch_roots(coefficients, np.zeros(mesh.state_size)))[0]
    eps = _polish(-1j * nu**2, theta, rho * c * c, -rho * c @ c + 1j * np.sum(theta))
    return 1j * theta + eps


def classical_polished_roots(mesh, k):
    """Classical roots by Newton on the direct secular sum, O(N^2) in all.

    The branch roots of the classical dispersion relation, less the fold lam = 4i/h^2,
    refined by `_polish` on the classical weights, as rounded to double precision, and
    the poles with their offsets from np.longdouble (`secular._exact_poles`): a root that
    wanders off its branch at k = 1e3, N = 4095 moves by 1.6e-14 relative with the
    poles' rounding.
    """
    from schrostab.continuous import _branch_roots
    from schrostab.secular import _exact_poles, classical_poles_weights

    mu, c = classical_poles_weights(mesh)
    offset = _exact_poles(mesh, mu, True)[2]
    n, h = mesh.n, mesh.h
    s, t = 1 + 0.5j * k * h, 1 - 0.5j * k * h

    def coefficients(z):
        sinh, cosh = np.sinh(z * h), np.cosh(z * h)
        return s * sinh / h, (t * cosh - 1 + 1.5j * k * h) / h, s * cosh, t * sinh

    z = _branch_roots(coefficients, -1j * (np.arange(n + 1) + 0.5) * np.pi / (2 * n + 3))
    lam = -1j * (2 / h * np.sinh(z * h / 2)) ** 2
    lam[np.abs(lam - 4j / h**2) <= 1e-10 * 4 / h**2] = np.nan
    eps = _polish(lam, mu, k / h * c * c, -1.5 * k / h + 1j * (2 * n + 1) / h**2, offset)
    return 1j * mu + (eps + 1j * offset)
