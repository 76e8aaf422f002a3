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
