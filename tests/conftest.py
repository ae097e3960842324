import numpy as np
import pytest


def random_pure(rng, num_qubits):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def random_density(rng, num_qubits, rank=3):
    dim = 1 << num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.uniform(0.2, 1.0, size=rank)
    weights /= weights.sum()
    for w in weights:
        amps = random_pure(rng, num_qubits)
        rho += w * np.outer(amps, amps.conj())
    return rho


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(20250101)


def kron(a, b):
    """Tensor product of two matrices or of two equally stacked stacks; the left factor is the high-order subsystem."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (a.shape[-1] * b.shape[-1],) * 2)


def hs_distance(rho1, rho2):
    """Squared Hilbert-Schmidt norm of the difference, Tr[(rho1 - rho2)^2]: a float for two matrices, else an array."""
    delta = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)
    distance = np.einsum("...ij,...ji->...", delta, delta).real
    return float(distance) if delta.ndim == 2 else distance
