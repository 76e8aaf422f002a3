import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def weighted_oracle(system):
    """Dense S A S^{-1} with S = sqrt(h) D formed from the sparse scheme matrix."""
    from schrostab.grid import build_scheme_matrices

    S = np.sqrt(system.mesh.h) * build_scheme_matrices(system.mesh).D.toarray()
    return S @ system.generator @ np.linalg.inv(S)


def modal_oracle(mesh):
    """Dense Q with columns q_m = D s_m / ||D s_m||, s_m = sin((m + 1/2) pi x_j)."""
    from schrostab.grid import build_scheme_matrices

    x = mesh.nodes[1:]
    S = np.sin(np.outer(x, np.arange(mesh.state_size) + 0.5) * np.pi)
    Q = build_scheme_matrices(mesh).D.toarray() @ S
    return Q / np.linalg.norm(Q, axis=0)
