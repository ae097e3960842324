"""Dense complex linear algebra for one-, two-, and three-qubit operators.

Matrices are plain complex ndarrays indexed in ascending binary order with
qubit 0 as the most significant bit, so a two-qubit basis reads
|00>, |01>, |10>, |11>.  ``reverse_basis`` flips a vector or matrix to the
descending order (|11>, |10>, |01>, |00>) that some references prefer;
eigenvalues and traces are unaffected by the choice.  Tensor products,
eigenvalues, partial traces and transposes, Hilbert-Schmidt distances and
density checks also take stacks of matrices (leading batch axes), so a
whole parameter grid is handled in one call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_DIM",
    "kron",
    "partial_trace",
    "partial_transpose",
    "hermitian_eigenvalues",
    "hs_distance",
    "validate_density",
    "reverse_basis",
    "num_qubits_of",
]

MAX_DIM = 8

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

_EIG_HERMITICITY_TOL = 1e-10


def _stack(m) -> np.ndarray:
    """A square matrix or a stack of them, shape (..., n, n)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def num_qubits_of(m: np.ndarray) -> int:
    """Number of qubits of a square matrix (or stack); rejects dims outside {2, 4, 8}."""
    dim = m.shape[-1]
    n = (dim - 1).bit_length()
    if dim < 2 or dim > MAX_DIM or 2**n != dim:
        raise ValueError(f"unsupported dimension {dim}; expected 2, 4 or 8")
    return n


def kron(a, b) -> np.ndarray:
    """Tensor product; the left factor becomes the high-order subsystem.

    Two stacks of matrices (equal leading axes) are multiplied matrix by matrix.
    """
    a = _stack(a)
    b = _stack(b)
    num_qubits_of(a)
    num_qubits_of(b)
    dim = a.shape[-1] * b.shape[-1]
    if dim > MAX_DIM:
        raise ValueError(f"tensor product dimension {dim} exceeds the supported maximum {MAX_DIM}")
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (dim, dim))


def partial_trace(rho, keep) -> np.ndarray:
    """Reduced matrix on the kept qubits, ordered as listed in ``keep``.

    The first listed qubit becomes the high-order subsystem of the result.
    Trace is preserved.  A stack of matrices (shape (..., n, n)) is reduced
    matrix by matrix.
    """
    rho = _stack(rho)
    n = num_qubits_of(rho)
    keep = tuple(int(q) for q in keep)
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep contains duplicate qubit indices: {keep}")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep {keep} out of range for a {n}-qubit matrix")
    drop = [q for q in range(n) if q not in keep]
    order = list(keep) + drop
    batch = rho.shape[:-2]
    k = len(batch)
    r = rho.reshape(batch + (2,) * (2 * n))
    r = r.transpose(list(range(k)) + [k + q for q in order] + [k + n + q for q in order])
    dk = 1 << len(keep)
    dd = 1 << len(drop)
    return np.einsum("...imjm->...ij", r.reshape(batch + (dk, dd, dk, dd)))


def partial_transpose(rho, subsystem: int = 1) -> np.ndarray:
    """Transpose one qubit of a two-qubit matrix (0 = high-order, 1 = low-order).

    The result stays Hermitian when the input is Hermitian, but need not
    stay positive; that loss of positivity is exactly what the separability
    analysis looks for.  Applying the same transposition twice restores the
    input entry for entry.  A stack of matrices (shape (..., 4, 4)) is
    transposed matrix by matrix.
    """
    rho = _stack(rho)
    if rho.shape[-1] != 4:
        raise ValueError("partial transpose is defined here for two-qubit matrices")
    if subsystem not in (0, 1):
        raise ValueError("subsystem must be 0 or 1")
    batch = rho.shape[:-2]
    r = rho.reshape(batch + (2, 2, 2, 2))
    k = len(batch)
    swap = (k + 2, k + 1, k, k + 3) if subsystem == 0 else (k, k + 3, k + 2, k + 1)
    r = r.transpose(tuple(range(k)) + swap)
    return r.reshape(rho.shape).copy()


def hermitian_eigenvalues(h) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending, repeats kept.

    Accepts one matrix or a stack of them (shape (..., n, n)), returning
    spectra of shape (..., n).  Raises ValueError if any matrix deviates
    from Hermitian by more than 1e-10; the spectrum is that of the
    Hermitian part, taken with LAPACK (``np.linalg.eigvalsh``).
    """
    h = _stack(h)
    hc = np.swapaxes(h, -1, -2).conj()
    deviation = float(np.max(np.abs(h - hc)))
    if deviation > _EIG_HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
    return np.linalg.eigvalsh((h + hc) / 2.0)


def hs_distance(rho1, rho2):
    """Squared Hilbert-Schmidt norm of the difference, Tr[(rho1 - rho2)^2].

    A float for two matrices; for two equally shaped stacks, an array of
    one distance per matrix.
    """
    rho1 = _stack(rho1)
    rho2 = _stack(rho2)
    if rho1.shape != rho2.shape:
        raise ValueError(f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    delta = rho1 - rho2
    distance = np.einsum("...ij,...ji->...", delta, delta).real
    return float(distance) if rho1.ndim == 2 else distance


def validate_density(rho) -> np.ndarray:
    """Check the density-matrix invariants and return rho as a complex ndarray.

    Raises ValueError if rho is not Hermitian (within HERMITICITY_TOL), not
    unit trace (TRACE_TOL), or not positive semidefinite (PSD_TOL), or if
    any entry is non-finite.  A stack of matrices (shape (..., n, n))
    passes only if every matrix does; the error names the worst one.
    """
    rho = _stack(rho)
    num_qubits_of(rho)
    if not np.all(np.isfinite(rho.real)) or not np.all(np.isfinite(rho.imag)):
        raise ValueError("density matrix has non-finite entries")
    dev = float(np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj())))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"density matrix is not Hermitian (max deviation {dev:.3e})")
    traces = np.trace(rho, axis1=-2, axis2=-1).reshape(-1)
    worst = int(np.argmax(np.abs(traces - 1.0)))
    tr = complex(traces[worst])
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1")
    low = float(np.min(hermitian_eigenvalues(rho)[..., 0]))
    if low < -PSD_TOL:
        raise ValueError(f"density matrix is not positive semidefinite (min eigenvalue {low:.3e})")
    return rho


def reverse_basis(m) -> np.ndarray:
    """Reindex a vector or square matrix between ascending and descending basis order.

    For two qubits this swaps |00> <-> |11> and |01> <-> |10>.  The map is
    its own inverse.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        return m[::-1].copy()
    if m.ndim == 2:
        return m[::-1, ::-1].copy()
    raise ValueError("expected a vector or a matrix")
