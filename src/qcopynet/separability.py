"""Peres-Horodecki separability analysis of two-qubit states.

For a pair of qubits, positivity of the partial transpose is necessary and
sufficient for separability, so the minimum eigenvalue of the partially
transposed matrix settles the question: strictly negative means the pair is
entangled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .copier import CopyVariant, InputQubit, evaluate_grid

__all__ = [
    "INSEPARABILITY_TOL",
    "PptReport",
    "ppt_verdict",
    "BoundCheck",
    "negativity_bound_check",
    "CorrelationRow",
    "CorrelationTable",
    "entanglement_distance_correlation",
]

INSEPARABILITY_TOL = 1e-10

_SQRT5 = math.sqrt(5.0)


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


def ppt_verdict(rho) -> PptReport:
    """Partial-transpose spectrum and separability verdict for a two-qubit density matrix.

    The low-order qubit is transposed; the spectrum would be the same for
    the high-order one.
    """
    rho = linalg.validate_density(rho)
    if rho.shape[0] != 4:
        raise ValueError("the separability verdict applies to two-qubit states")
    spectrum = linalg.hermitian_eigenvalues(linalg.partial_transpose(rho))
    low = float(spectrum[0])
    return PptReport(
        spectrum=tuple(float(x) for x in spectrum),
        min_eigenvalue=low,
        inseparable=low < -INSEPARABILITY_TOL,
        indeterminate=-INSEPARABILITY_TOL <= low < 0.0,
    )


@dataclass(frozen=True)
class BoundCheck:
    """Comparison of the measured minimum eigenvalue E against its closed-form bound."""

    min_eigenvalue: float
    bound: float
    satisfied: bool
    gap: float


def negativity_bound_check(input_qubit: InputQubit) -> BoundCheck:
    """Check E <= -(1 + 4(sqrt(5)-2)|alpha|^2 |beta|^2)/6 for a triplicator pair.

    The bound describes the quarter-turn phase (phi = pi/2 mod pi), where
    the negative eigenvalue is deepest; the input must carry such a phase.
    The returned gap is bound - E, non-negative whenever the bound holds.
    """
    if abs(math.cos(input_qubit.phi)) > 1e-12:
        raise ValueError("the negativity bound applies at phi = pi/2 (mod pi)")
    grid = evaluate_grid(CopyVariant.TRIPLICATOR, [input_qubit.theta], [input_qubit.phi], {"E"})
    weight = abs(input_qubit.alpha) ** 2 * input_qubit.beta**2
    bound = -(1.0 + 4.0 * (_SQRT5 - 2.0) * weight) / 6.0
    e = float(grid.ppt_spectrum[0, 0])
    return BoundCheck(
        min_eigenvalue=e,
        bound=bound,
        satisfied=e <= bound + 1e-9,
        gap=bound - e,
    )


@dataclass(frozen=True)
class CorrelationRow:
    theta: float
    phi: float
    d1: float
    min_eigenvalue: float


@dataclass(frozen=True)
class CorrelationTable:
    """Copy-distance vs. negative-eigenvalue table for the triplicator.

    ``real_phase_deviation`` is the worst |E + 1/6| over rows with
    phi = 0 or pi (None when the grid has no such rows): at those phases
    the eigenvalue is pinned at -1/6 whatever the input amplitude.
    ``minimum_at_quarter_phase`` reports whether, for every theta, the
    eigenvalue at phi = pi/2 undercuts (within tolerance) every other
    sampled phase; None when pi/2 is not on the grid.
    """

    rows: tuple[CorrelationRow, ...]
    real_phase_deviation: float | None
    minimum_at_quarter_phase: bool | None


def entanglement_distance_correlation(theta_values, phi_values) -> CorrelationTable:
    """Tabulate (d1, E) for triplicator runs over a (theta, phi) grid.

    Rows are ordered theta-major.  d1 is the copy-qubit distance to the
    ideal state; E is the minimum eigenvalue of the a2a3 pair's partial
    transpose.
    """
    theta_values = [float(t) for t in theta_values]
    phi_values = [float(p) for p in phi_values]
    grid = evaluate_grid(CopyVariant.TRIPLICATOR, theta_values, phi_values, {"d1", "E"})
    rows = [
        CorrelationRow(theta=theta, phi=phi, d1=d1, min_eigenvalue=e)
        for theta, phi, d1, e in zip(
            grid.theta.tolist(), grid.phi.tolist(), grid.d1["a2"].tolist(), grid.ppt_spectrum[:, 0].tolist()
        )
    ]

    def is_real_phase(phi: float) -> bool:
        return abs(math.sin(phi)) <= 1e-12

    real_rows = [r for r in rows if is_real_phase(r.phi)]
    real_dev = max(abs(r.min_eigenvalue + 1.0 / 6.0) for r in real_rows) if real_rows else None

    quarter = [p for p in phi_values if abs(p - math.pi / 2.0) <= 1e-9]
    minimum_at_quarter: bool | None
    if quarter:
        minimum_at_quarter = True
        for theta in theta_values:
            group = [r for r in rows if r.theta == theta]
            at_quarter = min(r.min_eigenvalue for r in group if r.phi in quarter)
            if at_quarter > min(r.min_eigenvalue for r in group) + 1e-12:
                minimum_at_quarter = False
    else:
        minimum_at_quarter = None

    return CorrelationTable(
        rows=tuple(rows),
        real_phase_deviation=real_dev,
        minimum_at_quarter_phase=minimum_at_quarter,
    )
