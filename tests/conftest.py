import numpy as np
import pytest


def random_density(rng, dim=2):
    """Full-rank random density matrix via a Gaussian Gram matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


def signed_zero_complex(rng, shape):
    """Random complex entries, about a third of whose real and imaginary parts
    are exactly +0.0 or -0.0 (set part by part, so each zero keeps its sign)."""
    parts = rng.normal(size=(2, *shape))
    zeros = rng.random(parts.shape) < 1.0 / 3.0
    parts[zeros] = np.copysign(0.0, rng.normal(size=int(zeros.sum())))
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts
    return out
