"""Dense complex linear algebra for one-, two-, and three-qubit operators.

Matrices are plain complex ndarrays indexed in ascending binary order with
qubit 0 as the most significant bit, so a two-qubit basis reads
|00>, |01>, |10>, |11>.  ``m[::-1, ::-1]`` is the descending order
(|11>, |10>, |01>, |00>) that some references prefer; eigenvalues and
traces are unaffected by the choice.  Partial traces and transposes,
eigenvalues and density checks take stacks of matrices (leading batch
axes, an empty stack included), so a grid is handled in one call;
``partial_trace`` is the program's one reduction.  The register contract
is stated here once: ``num_qubits_of``, ``_qubit_index`` and the
amplitude norm ``_norm``.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = [
    "partial_trace",
    "partial_transpose",
    "hermitian_eigenvalues",
    "validate_density",
    "num_qubits_of",
]

MAX_QUBITS = 3

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

_EIG_HERMITICITY_TOL = 1e-10
# Below this a 2-norm's squares are subnormal or zero, so the norm computed from them loses precision.
_UNDERFLOW_NORM = math.sqrt(np.finfo(float).tiny)


def _norm(values: np.ndarray) -> float:
    """``np.linalg.norm`` of amplitudes; where its squares overflow or underflow, that of their parts over the largest.

    Finite results of at least sqrt(tiny) keep every bit.  The real and imaginary
    parts are divided apart: a complex division by a subnormal scale gives NaN.
    """
    with np.errstate(over="ignore"):
        result = float(np.linalg.norm(values))
    if math.isinf(result) or result < _UNDERFLOW_NORM:
        parts = np.concatenate([values.real, values.imag])
        scale = float(np.max(np.abs(parts)))
        if 0.0 < scale < math.inf:
            result = scale * float(np.linalg.norm(parts / scale))
    return result


def _stack(m) -> np.ndarray:
    """A square matrix or a stack of them, shape (..., n, n)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def num_qubits_of(m: np.ndarray) -> int:
    """Qubits of amplitudes or a square matrix (or a stack): the one size rule, 1 to MAX_QUBITS qubits."""
    if np.ndim(m) == 0:
        raise ValueError("expected amplitudes, a matrix or a stack of them, got a scalar")
    dim = m.shape[-1]
    n = (dim - 1).bit_length()
    if dim < 2 or n > MAX_QUBITS or 1 << n != dim:
        raise ValueError(f"unsupported dimension {dim}; expected 2, 4 or 8")
    return n


def _integer(value, what: str) -> int:
    """``value`` as an int; ValueError naming ``what`` for a bool, Python's or numpy's, or a non-integer."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _qubit_index(num_qubits: int, qubit, role: str) -> int:
    """``qubit`` as the int index of a register qubit; ValueError for a bool, a non-integer or one out of range."""
    index = _integer(qubit, f"{role} qubit")
    if not 0 <= index < num_qubits:
        raise ValueError(f"{role} qubit {index} out of range for a {num_qubits}-qubit state")
    return index


def _check_keep(keep, n: int) -> tuple[int, ...]:
    """``keep`` as a tuple of distinct ``_qubit_index``-checked indices of an n-qubit register; ValueError otherwise."""
    try:
        keep = tuple(_qubit_index(n, q, "kept") for q in keep)
    except TypeError:  # not iterable; _qubit_index raises only ValueError
        raise ValueError(f"keep must hold integer qubit indices, got {keep!r}") from None
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep contains duplicate qubit indices: {keep}")
    return keep


@functools.cache
def _letters(keep: tuple[int, ...], n: int) -> tuple[str, str, str, int]:
    """Einsum letters (kets, bras, kept, kept dimension) of an n-qubit reduction onto a ``_check_keep``-ed ``keep``.

    Qubit q is ket letter q; a kept qubit gets a fresh bra letter and a traced one repeats its ket letter.
    Keyed on the checked tuple of ints: a raw (0, 1.0) hashes equal to (0, 1) and must not hit the cache.
    """
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
    ket, bra, kept, d = _letters(_check_keep(keep, n), n)
    batch = rho.shape[:-2]
    reduced = np.einsum(f"...{ket}{bra}->...{kept}", rho.reshape(batch + (2,) * (2 * n)))
    # keeping every qubit sums nothing and leaves a view; + 0.0 copies it and turns -0.0 into 0.0, as a sum does
    return reduced.reshape(batch + (d, d)) + 0.0


def partial_transpose(rho, subsystem: int = 1) -> np.ndarray:
    """Transpose one qubit of a two-qubit matrix (0 = high-order, 1 = low-order) by swapping its ket and bra letters.

    The result stays Hermitian when the input is Hermitian, but need not
    stay positive; that loss of positivity is exactly what the separability
    analysis looks for.  Applying the same transposition twice restores the
    input entry for entry.  A stack of matrices (shape (..., 4, 4)) is
    transposed matrix by matrix.  ``subsystem`` must be the integer 0 or 1:
    a bool or a float raises ValueError (``_qubit_index``), as in ``partial_trace``'s ``keep``.
    """
    rho = _stack(rho)
    if rho.shape[-1] != 4:
        raise ValueError("partial transpose is defined here for two-qubit matrices")
    swapped = "cbad" if _qubit_index(2, subsystem, "transposed") == 0 else "adcb"
    return np.einsum(f"...abcd->...{swapped}", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))).reshape(rho.shape)


def hermitian_eigenvalues(h) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending, repeats kept.

    Accepts one matrix or a stack of them (shape (..., n, n)), returning
    spectra of shape (..., n).  Raises ValueError unless every matrix is
    Hermitian within 1e-10 of its scale, max|H - H^H| <= 1e-10 * max(1,
    max|H|): rounding grows with the entries, so a large matrix that is
    Hermitian up to rounding passes, and a NaN deviation fails.  The
    spectrum is that of the Hermitian part, taken with LAPACK
    (``np.linalg.eigvalsh``); ``h`` itself is never written.
    """
    h = _stack(h)
    hc = h.swapaxes(-1, -2).conj()
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the flat bound; the scale then raises
        deviation = np.abs(work := h - hc)
    worst = float(deviation.max(initial=0.0))
    if not worst <= _EIG_HERMITICITY_TOL:  # only a stack past the flat bound pays for the per-matrix scales
        scale = np.abs(h).max(axis=(-2, -1))
        within = deviation.max(axis=(-2, -1)) <= _EIG_HERMITICITY_TOL * np.maximum(1.0, scale)
        if not np.all(np.isfinite(scale) & within):
            raise ValueError(f"matrix is not Hermitian (max deviation {worst:.3e})")
    # the Hermitian part h / 2 + hc / 2, halves first so that no sum overflows, in the work buffer and hc, never in h
    np.divide(h, 2.0, out=work)
    hc /= 2.0
    return np.linalg.eigvalsh(np.add(work, hc, out=work))


def _check_density(rho) -> np.ndarray:
    """``validate_density`` short of its positivity eigensolve: shape, finite entries, Hermiticity, unit trace."""
    rho = _stack(rho)
    num_qubits_of(rho)
    if not np.isfinite(rho).all():  # a complex entry is finite when both its parts are
        raise ValueError("density matrix has non-finite entries")
    hc = rho.swapaxes(-1, -2).conj()
    dev = float(np.abs(np.subtract(rho, hc, out=hc)).max(initial=0.0))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"density matrix is not Hermitian (max deviation {dev:.3e})")
    traces = rho.trace(axis1=-2, axis2=-1).reshape(-1)
    deviations = np.abs(traces - 1.0)
    if deviations.max(initial=0.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {complex(traces[deviations.argmax()])} is not 1")
    return rho


def validate_density(rho) -> np.ndarray:
    """Check the density-matrix invariants and return rho as a complex ndarray.

    Raises ValueError if rho is not Hermitian (within HERMITICITY_TOL), not
    unit trace (TRACE_TOL), or not positive semidefinite (PSD_TOL), or if
    any entry is non-finite.  A stack of matrices (shape (..., n, n))
    passes only if every matrix does; the error names the worst one.  rho
    itself is never written, so a read-only stack is accepted.
    """
    rho = _check_density(rho)
    low = float(np.min(hermitian_eigenvalues(rho)[..., 0], initial=np.inf))
    if low < -PSD_TOL:
        raise ValueError(f"density matrix is not positive semidefinite (min eigenvalue {low:.3e})")
    return rho
