"""Dense complex linear algebra for one-, two-, and three-qubit operators.

Matrices are plain complex ndarrays indexed in ascending binary order with
qubit 0 as the most significant bit, so a two-qubit basis reads
|00>, |01>, |10>, |11>.  ``reverse_basis`` flips a matrix to the
descending order (|11>, |10>, |01>, |00>) that some references prefer;
eigenvalues and traces are unaffected by the choice.  Tensor products,
eigenvalues, partial traces and transposes, Hilbert-Schmidt distances and
density checks take stacks of matrices (leading batch axes), and
``reduce_pure`` stacks of pure states, so a grid is handled in one call.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "MAX_DIM",
    "kron",
    "partial_trace",
    "reduce_pure",
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
# Below this a 2-norm's squares are subnormal or zero, so the norm computed from them loses precision.
_UNDERFLOW_NORM = math.sqrt(np.finfo(float).tiny)


def _scaled_norm(values: np.ndarray, norm) -> float:
    """``norm(values)``; where its squares overflow or underflow, ``norm`` of values scaled by their largest part.

    Finite results of at least sqrt(tiny) are kept as they are, so ordinary
    inputs keep every bit of ``norm``'s own formula.
    """
    try:
        with np.errstate(over="ignore"):
            result = norm(values)
    except OverflowError:  # Python's float ** raises where numpy returns inf
        result = math.inf
    if math.isinf(result) or result < _UNDERFLOW_NORM:
        scale = float(np.max(np.abs(np.concatenate([values.real, values.imag]))))
        if 0.0 < scale < math.inf:
            result = scale * norm(values / scale)
    return result


def _stack(m) -> np.ndarray:
    """A square matrix or a stack of them, shape (..., n, n)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def num_qubits_of(m: np.ndarray) -> int:
    """Number of qubits of amplitudes or a square matrix (or a stack); rejects dims outside {2, 4, 8}."""
    if np.ndim(m) == 0:
        raise ValueError("expected amplitudes, a matrix or a stack of them, got a scalar")
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


def _check_keep(keep, n: int) -> tuple[int, ...]:
    """``keep`` as a tuple of distinct integer qubit indices of an n-qubit register; ValueError otherwise."""
    try:
        keep = tuple(map(operator.index, keep))
    except TypeError:
        raise ValueError(f"keep must hold integer qubit indices, got {keep!r}") from None
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep contains duplicate qubit indices: {keep}")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep {keep} out of range for a {n}-qubit matrix")
    return keep


def _reduction_letters(keep, n: int) -> tuple[str, str, str, int]:
    """Einsum letters (kets, bras, kept, kept dimension) of an n-qubit reduction onto ``keep``, checked.

    Qubit q is ket letter q; a kept qubit gets a fresh bra letter and a traced one repeats its ket letter.
    """
    keep = _check_keep(keep, n)
    ket = "abc"[:n]
    fresh = dict(zip(keep, "def"))
    bra = "".join(fresh.get(q, ket[q]) for q in range(n))
    kept = "".join(ket[q] for q in keep) + "".join(fresh.values())
    return ket, bra, kept, 1 << len(keep)


def partial_trace(rho, keep) -> np.ndarray:
    """Reduced matrix on the kept qubits, ordered as listed in ``keep``.

    The first listed qubit becomes the high-order subsystem of the result.
    Trace is preserved.  A stack of matrices (shape (..., n, n)) is reduced
    matrix by matrix.  Raises ValueError unless ``keep`` holds distinct
    integer qubit indices in range; a float such as 1.9 is not truncated.
    """
    rho = _stack(rho)
    n = num_qubits_of(rho)
    ket, bra, kept, d = _reduction_letters(keep, n)
    batch = rho.shape[:-2]
    reduced = np.einsum(f"...{ket}{bra}->...{kept}", rho.reshape(batch + (2,) * (2 * n)))
    # keeping every qubit sums nothing and leaves a view; + 0.0 copies it and turns -0.0 into 0.0, as a sum does
    return reduced.reshape(batch + (d, d)) + 0.0


def reduce_pure(amps, keep) -> np.ndarray:
    """``partial_trace`` of |psi><psi| for amplitudes of shape (2**n,) or a stack (..., 2**n), by one einsum.

    The letters are ``partial_trace``'s, with the stack as ``n``, so keeping
    (1, 2) of three qubits reads ``nabc,nade->nbcde``.  The norm is not
    checked: the trace is the squared norm.
    """
    amps = np.asarray(amps, dtype=complex)
    ket, bra, kept, d = _reduction_letters(keep, num_qubits_of(amps))
    t = amps.reshape((-1,) + (2,) * len(ket))
    return np.einsum(f"n{ket},n{bra}->n{kept}", t, t.conj()).reshape(amps.shape[:-1] + (d, d))


def partial_transpose(rho, subsystem: int = 1) -> np.ndarray:
    """Transpose one qubit of a two-qubit matrix (0 = high-order, 1 = low-order) by swapping its ket and bra letters.

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
    swapped = "cbad" if subsystem == 0 else "adcb"
    return np.einsum(f"...abcd->...{swapped}", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))).reshape(rho.shape)


def hermitian_eigenvalues(h) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending, repeats kept.

    Accepts one matrix or a stack of them (shape (..., n, n)), returning
    spectra of shape (..., n).  Raises ValueError unless every matrix is
    Hermitian within 1e-10, so a NaN deviation fails too; the spectrum is
    that of the Hermitian part, taken with LAPACK (``np.linalg.eigvalsh``).
    """
    h = _stack(h)
    hc = np.swapaxes(h, -1, -2).conj()
    deviation = float(np.max(np.abs(h - hc)))
    if not deviation <= _EIG_HERMITICITY_TOL:
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


def _check_density(rho) -> np.ndarray:
    """``validate_density`` short of its positivity eigensolve: shape, finite entries, Hermiticity, unit trace."""
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
    return rho


def validate_density(rho) -> np.ndarray:
    """Check the density-matrix invariants and return rho as a complex ndarray.

    Raises ValueError if rho is not Hermitian (within HERMITICITY_TOL), not
    unit trace (TRACE_TOL), or not positive semidefinite (PSD_TOL), or if
    any entry is non-finite.  A stack of matrices (shape (..., n, n))
    passes only if every matrix does; the error names the worst one.
    """
    rho = _check_density(rho)
    low = float(np.min(hermitian_eigenvalues(rho)[..., 0]))
    if low < -PSD_TOL:
        raise ValueError(f"density matrix is not positive semidefinite (min eigenvalue {low:.3e})")
    return rho


def reverse_basis(m) -> np.ndarray:
    """Reindex a square matrix between ascending and descending basis order.

    For two qubits this swaps |00> <-> |11> and |01> <-> |10>.  The map is
    its own inverse.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return m[::-1, ::-1].copy()
