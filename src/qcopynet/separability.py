"""Peres-Horodecki separability analysis of two-qubit states.

For a pair of qubits, positivity of the partial transpose is necessary and
sufficient for separability, so the minimum eigenvalue of the partially
transposed matrix settles the question: strictly negative means the pair is
entangled.  A caller's matrix gets the full check (``ppt_spectrum``).  The
pairs the program builds itself, for ``copy``, ``network`` and the copier
grids, are reductions of checked pure states, so Gram matrices and positive
by construction; ``_pair_spectra`` skips only the positivity eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = [
    "INSEPARABILITY_TOL",
    "PptReport",
    "ppt_spectrum",
    "ppt_verdict",
]

INSEPARABILITY_TOL = 1e-10


@dataclass(frozen=True)
class PptReport:
    """Spectrum of a partially transposed two-qubit state and the verdict.

    ``inseparable`` is True only when the minimum eigenvalue is below
    -1e-10; values in [-1e-10, 0) are flagged ``indeterminate`` instead of
    being over-read as entanglement.
    """

    spectrum: tuple[float, float, float, float]
    min_eigenvalue: float
    inseparable: bool
    indeterminate: bool


def _ppt_reports(spectra: np.ndarray) -> list[PptReport]:
    """The verdict on each ascending spectrum of a (k, 4) stack."""
    return [
        PptReport(tuple(s), s[0], s[0] < -INSEPARABILITY_TOL, -INSEPARABILITY_TOL <= s[0] < 0.0)
        for s in spectra.tolist()
    ]


def ppt_spectrum(rho) -> np.ndarray:
    """Ascending partial-transpose spectrum of a two-qubit density matrix, or of each matrix of a stack.

    ``rho`` (shape (4, 4) or (..., 4, 4)) must pass ``linalg.validate_density``;
    a ValueError is raised otherwise.  The low-order qubit is transposed; the
    spectrum would be the same for the high-order one.
    """
    return linalg.hermitian_eigenvalues(linalg.partial_transpose(linalg.validate_density(rho)))


def _pair_spectra(pairs) -> np.ndarray:
    """``ppt_spectrum`` of the program's own pairs, short of the positivity eigensolve (``linalg._check_density``)."""
    return linalg.hermitian_eigenvalues(linalg.partial_transpose(linalg._check_density(pairs)))


def ppt_verdict(rho) -> PptReport:
    """Partial-transpose spectrum and separability verdict for one two-qubit density matrix."""
    if np.ndim(rho) > 2:
        raise ValueError("ppt_verdict takes one matrix; use ppt_spectrum for a stack")
    return _ppt_reports(ppt_spectrum(rho)[None])[0]
