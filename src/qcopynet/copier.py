"""The duplicator and triplicator networks and their output analysis.

Both machines share one three-qubit circuit: a five-gate preparation stage
acting on the two blank qubits (a2, a3), followed by four CNOTs that spread
the original qubit (a1) over all three.  The two variants differ only in the
sign of the middle preparation angle.  ``evaluate_grid`` runs the circuit
once per variant on the two basis inputs |000> and |100>, then evaluates
whole (theta, phi) grids as arrays: reduced states, scaling fits, fidelity
splits, Hilbert-Schmidt distances and the a2a3 partial-transpose spectrum.
``run_copier`` is its one-point case and returns a CopyReport; the
triplicator's (d1, E) correlation table reads the same kernel.  The
quarter-phase bound on the triplicator's negative eigenvalue E is stated
once, as ``_negativity_bound`` next to the kernel; ``negativity_bound_check``
and verify's ``bound`` group both read it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .gates import CNOT, GateNetwork, PureState, Rotation, _check_normalized, density_of, run_network
from .separability import ppt_spectrum

__all__ = [
    "CopyVariant",
    "InputQubit",
    "PreparationAngles",
    "CopyReport",
    "CopyGrid",
    "QUBIT_LABELS",
    "PAIR_LABELS",
    "PAIR_QUBITS",
    "METRICS",
    "preparation_amplitudes",
    "preparation_angles",
    "amplitudes_from_angles",
    "solve_preparation_angles",
    "preparation_network",
    "copy_stage_network",
    "full_network",
    "run_copier",
    "evaluate_grid",
    "BoundCheck",
    "negativity_bound_check",
    "CorrelationRow",
    "CorrelationTable",
    "entanglement_distance_correlation",
]

QUBIT_LABELS = ("a1", "a2", "a3")
PAIR_LABELS = ("a2a3", "a1a2", "a1a3")
PAIR_QUBITS = {"a2a3": (1, 2), "a1a2": (0, 1), "a1a3": (0, 2)}

SCALING_RESIDUAL_TOL = 1e-10
_PURITY_TOL = 1e-10


class CopyVariant(Enum):
    DUPLICATOR = "duplicator"
    TRIPLICATOR = "triplicator"


@dataclass(frozen=True)
class InputQubit:
    """The qubit to be copied: alpha|0> + beta|1> with alpha = sin(theta) e^{i phi}, beta = cos(theta).

    The parametrization keeps the state normalized by construction, with
    beta real and non-negative for theta in [0, pi/2].
    """

    theta: float
    phi: float = 0.0

    @property
    def alpha(self) -> complex:
        return math.sin(self.theta) * cmath.exp(1j * self.phi)

    @property
    def beta(self) -> float:
        return math.cos(self.theta)

    def state(self) -> PureState:
        return PureState(np.array([self.alpha, self.beta], dtype=complex))

    def density(self) -> np.ndarray:
        return density_of(self.state())

    @classmethod
    def from_amplitudes(cls, alpha: complex, beta: complex) -> "InputQubit":
        """Build from raw amplitudes, factoring out the global phase.

        The amplitudes must be normalized within 1e-9; the returned
        qubit describes the same physical state with beta real >= 0.
        """
        alpha = complex(alpha)
        beta = complex(beta)
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"amplitudes are not normalized (norm {norm!r})")
        alpha /= norm
        beta /= norm
        if abs(beta) > 1e-15:
            phase = beta / abs(beta)
            alpha *= np.conj(phase)
            beta = abs(beta)
        theta = math.atan2(abs(alpha), beta.real)
        phi = cmath.phase(alpha) if abs(alpha) > 1e-15 else 0.0
        return cls(theta=theta, phi=phi)


@dataclass(frozen=True)
class PreparationAngles:
    """The three rotation angles of the preparation stage."""

    theta1: float
    theta2: float
    theta3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.theta1, self.theta2, self.theta3])


_THETA2_MAGNITUDE = math.asin(math.sqrt(0.5 - math.sqrt(2.0) / 3.0))

_DUPLICATOR_AMPLITUDES = np.array([2.0, 1.0, 1.0, 0.0]) / math.sqrt(6.0)
_TRIPLICATOR_AMPLITUDES = np.array([3.0, 1.0, 1.0, 1.0]) / math.sqrt(12.0)


def preparation_amplitudes(variant: CopyVariant) -> np.ndarray:
    """Target blank-qubit amplitudes (|00>, |01>, |10>, |11>) for a variant."""
    if variant is CopyVariant.DUPLICATOR:
        return _DUPLICATOR_AMPLITUDES.copy()
    return _TRIPLICATOR_AMPLITUDES.copy()


def preparation_angles(variant: CopyVariant) -> PreparationAngles:
    """Closed-form preparation angles; the variants differ only in the sign of theta2."""
    sign = -1.0 if variant is CopyVariant.DUPLICATOR else 1.0
    return PreparationAngles(math.pi / 8.0, sign * _THETA2_MAGNITUDE, math.pi / 8.0)


def amplitudes_from_angles(angles: PreparationAngles) -> np.ndarray:
    """Amplitudes produced on |00> by the preparation stage with the given angles."""
    c1, s1 = math.cos(angles.theta1), math.sin(angles.theta1)
    c2, s2 = math.cos(angles.theta2), math.sin(angles.theta2)
    c3, s3 = math.cos(angles.theta3), math.sin(angles.theta3)
    return np.array(
        [
            c1 * c2 * c3 + s1 * s2 * s3,
            -c1 * s2 * s3 + s1 * c2 * c3,
            c1 * c2 * s3 - s1 * s2 * c3,
            c1 * s2 * c3 + s1 * c2 * s3,
        ]
    )


# Singular-value gap below which a target counts as degenerate: the even
# split below then reproduces it within half the gap, inside the 1e-10
# residual contract.
_DEGENERATE_GAP = 1e-11

# Sign flips of the factorization: -I on either side of the diagonal factor
# adds pi to that side's rotation and to theta2.
_SIGN_FLIPS = ((0.0, 0.0, 0.0), (math.pi, math.pi, 0.0), (0.0, math.pi, math.pi), (math.pi, 0.0, math.pi))


def _wrap_angle(x: float) -> float:
    """x shifted by a multiple of 2 pi into (-pi, pi], with +0.0 for -0.0."""
    r = math.remainder(x, 2.0 * math.pi)
    return (r + 2.0 * math.pi if r == -math.pi else r) + 0.0


def solve_preparation_angles(c) -> PreparationAngles:
    """Closed-form rotation angles whose preparation-stage image is ``c``.

    The amplitudes, read as the 2x2 matrix ``M = c.reshape(2, 2)``, factor
    exactly as ``R(theta3) diag(cos theta2, sin theta2) R(theta1)^T`` with
    ``R(t) = [[cos t, -sin t], [sin t, cos t]]``.  So one real SVD
    ``M = U S V^T`` gives a solution: theta3 and theta1 are the angles of
    the first columns of U and V, and theta2 carries the sign of
    det(U) det(V) on the smaller singular value.  Every unit-norm target is
    reachable.  The solutions form a finite family: sign flips (-I on either
    side of the diagonal factor), the swap of the singular values (R(pi/2)
    on both sides) and 2 pi wraps.  Each member is wrapped into (-pi, pi]
    and the one with the smallest Euclidean norm is returned, ties broken
    by the smaller angle tuple.

    When the singular values are equal within ``_DEGENERATE_GAP``, M is a
    multiple of a rotation (det >= 0) or of a reflection (det < 0), and the
    family is continuous: with theta2 = pi/4 only theta3 - theta1 is fixed,
    with theta2 = -pi/4 only theta3 + theta1 (the branch theta2 + pi shifts
    either by pi).  The norm is smallest with the free part split evenly
    between theta1 and theta3, so ``[1, 0, 0, 1]/sqrt(2)`` gives
    (0, pi/4, 0).

    Raises ValueError unless ``c`` holds four amplitudes with unit sum of
    squares.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (4,):
        raise ValueError("expected four target amplitudes")
    if abs(float(np.sum(c * c)) - 1.0) > 1e-12:
        raise ValueError("target amplitudes must have unit sum of squares")

    m = c.reshape(2, 2)
    u, s, vt = np.linalg.svd(m)
    if s[0] - s[1] <= _DEGENERATE_GAP:
        sign = 1.0 if np.linalg.det(m) >= 0.0 else -1.0
        fixed = math.atan2(m[1, 0] - sign * m[0, 1], m[0, 0] + sign * m[1, 1])
        candidates = []
        for theta2, shift in ((sign * math.pi / 4.0, 0.0), (-sign * 3.0 * math.pi / 4.0, math.pi)):
            w = _wrap_angle(fixed + shift)
            # w - 2 pi only matters at w = pi, where it ties in norm
            candidates += [(-sign * f / 2.0, theta2, f / 2.0) for f in (w, w - 2.0 * math.pi)]
    else:
        theta1 = math.atan2(vt[0, 1], vt[0, 0])
        theta2 = math.atan2(math.copysign(s[1], np.linalg.det(u) * np.linalg.det(vt)), s[0])
        theta3 = math.atan2(u[1, 0], u[0, 0])
        half = math.pi / 2.0
        candidates = [
            (t1 + f1, t2 + f2, t3 + f3)
            for t1, t2, t3 in ((theta1, theta2, theta3), (theta1 + half, half - theta2, theta3 + half))
            for f1, f2, f3 in _SIGN_FLIPS
        ]
    wrapped = (tuple(_wrap_angle(t) for t in member) for member in candidates)
    return PreparationAngles(*min(wrapped, key=lambda t: (math.hypot(*t), t)))


def preparation_network(angles: PreparationAngles, qubits: tuple[int, int] = (0, 1)) -> GateNetwork:
    """The five-gate preparation stage on the (a2, a3) qubit pair.

    ``qubits`` names the register indices playing the roles of a2 and a3;
    the default runs the stage on a bare two-qubit register.
    """
    q2, q3 = qubits
    return GateNetwork(
        (
            Rotation(q2, angles.theta1),
            CNOT(q2, q3),
            Rotation(q3, angles.theta2),
            CNOT(q3, q2),
            Rotation(q2, angles.theta3),
        )
    )


def copy_stage_network() -> GateNetwork:
    """The four-CNOT copying stage on (a1, a2, a3) = qubits (0, 1, 2), first gate applied first."""
    return GateNetwork((CNOT(0, 1), CNOT(0, 2), CNOT(1, 0), CNOT(2, 0)))


def full_network(variant: CopyVariant) -> GateNetwork:
    """Preparation plus copying on the standard three-qubit register."""
    return preparation_network(preparation_angles(variant), qubits=(1, 2)) + copy_stage_network()


@dataclass(frozen=True)
class CopyReport:
    """Everything measured on one copier run.

    Reduced matrices are keyed 'a1', 'a2', 'a3' for single qubits and
    'a2a3', 'a1a2', 'a1a3' for pairs (the first-listed qubit is the
    high-order subsystem).  ``scaling`` holds the fitted mixing factor per
    qubit, or None where the reduction has no such form.  ``fidelity``
    holds (weight on the input state, weight on its orthogonal complement)
    per qubit.  ``d3`` is only set for the triplicator.
    """

    variant: CopyVariant
    input: InputQubit
    output_state: PureState
    qubit_reductions: dict[str, np.ndarray]
    pair_reductions: dict[str, np.ndarray]
    scaling: dict[str, float | None]
    fidelity: dict[str, tuple[float, float]]
    d1: dict[str, float]
    d2: dict[str, float]
    d3: float | None


def _scaling_fit(rho_out: np.ndarray, rho_id: np.ndarray) -> np.ndarray:
    """Least-squares s per 2x2 matrix of a stack (..., 2, 2); NaN where the fit is not exact.

    ``rho_id`` broadcasts against ``rho_out``.
    """
    purity = np.einsum("...ij,...ji->...", rho_id, rho_id).real
    low = float(np.min(purity))
    if low < 1.0 - _PURITY_TOL:
        raise ValueError(f"reference state is not pure (purity {low!r})")
    eye = np.eye(2)
    direction = rho_id - eye / 2.0
    offset = rho_out - eye / 2.0
    s = (
        np.einsum("...ij,...ji->...", offset, direction).real
        / np.einsum("...ij,...ji->...", direction, direction).real
    )
    fitted = s[..., None, None] * rho_id + ((1.0 - s) / 2.0)[..., None, None] * eye
    residual = linalg.hs_distance(rho_out, fitted)
    return np.where(residual <= SCALING_RESIDUAL_TOL, s, np.nan)


def _weight(rho: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """<v|rho|v> per stacked matrix and vector, real part."""
    return np.einsum("ni,nij,nj->n", vectors.conj(), rho, vectors).real


METRICS = frozenset({"d1", "d2", "d3", "s", "fidelity", "E"})


@dataclass(frozen=True)
class CopyGrid:
    """Copier outputs and metrics on N input points, every array indexed by point first.

    ``states`` holds the (N, 8) output amplitudes; reductions are keyed as
    in CopyReport, with shapes (N, 2, 2) and (N, 4, 4).  Metrics are None
    unless requested, and ``d3`` is None for the duplicator.  ``scaling``
    is NaN where a qubit has no scaled form; ``fidelity`` holds (N, 2)
    weights on the input state and on its orthogonal complement;
    ``ppt_spectrum`` (metric "E") is the ascending (N, 4) spectrum of the
    partially transposed a2a3 pair.
    """

    variant: CopyVariant
    theta: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    states: np.ndarray
    qubit_reductions: dict[str, np.ndarray]
    pair_reductions: dict[str, np.ndarray]
    d1: dict[str, np.ndarray] | None = None
    d2: dict[str, np.ndarray] | None = None
    d3: np.ndarray | None = None
    scaling: dict[str, np.ndarray] | None = None
    fidelity: dict[str, np.ndarray] | None = None
    ppt_spectrum: np.ndarray | None = None


@functools.cache
def _basis_outputs(variant: CopyVariant) -> np.ndarray:
    """Read-only (2, 8) rows U|000> and U|100> of the variant's network U.

    The blanks start in |00> and the input enters only through a1, so by
    linearity every output is alpha * U|000> + beta * U|100>.
    """
    net = full_network(variant)
    rows = np.array([run_network(PureState.computational(3, index), net).amplitudes for index in (0b000, 0b100)])
    rows.flags.writeable = False
    return rows


def evaluate_grid(variant: CopyVariant, thetas, phis, metrics=METRICS) -> CopyGrid:
    """Run the copier on the theta-major product grid thetas x phis, all points at once.

    Each point gets what ``run_copier`` computes for InputQubit(theta, phi),
    plus the a2a3 partial-transpose spectrum; only the metrics named in
    ``metrics`` (from METRICS) are evaluated.  The output states pass the
    PureState norm check, and the pairs pass ``linalg.validate_density``
    before their spectra are taken; either raises ValueError.
    """
    metrics = frozenset(metrics)
    unknown = metrics - METRICS
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    phis = np.asarray(phis, dtype=float).reshape(-1)
    if not (thetas.size and phis.size):
        raise ValueError("the grid needs at least one theta and one phi")
    if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(phis))):
        raise ValueError("input angles must be finite")
    theta = np.repeat(thetas, phis.size)
    phi = np.tile(phis, thetas.size)
    alpha = np.sin(theta) * np.exp(1j * phi)
    beta = np.cos(theta)
    outputs = _basis_outputs(variant)
    states = alpha[:, None] * outputs[0] + beta[:, None] * outputs[1]
    _check_normalized(states)

    t = states.reshape(-1, 2, 2, 2)
    c = t.conj()
    singles = {
        "a1": np.einsum("nijk,nljk->nil", t, c),
        "a2": np.einsum("nijk,nilk->njl", t, c),
        "a3": np.einsum("nijk,nijl->nkl", t, c),
    }
    pairs = {
        "a2a3": np.einsum("nijk,nilm->njklm", t, c).reshape(-1, 4, 4),
        "a1a2": np.einsum("nijk,nlmk->nijlm", t, c).reshape(-1, 4, 4),
        "a1a3": np.einsum("nijk,nljm->niklm", t, c).reshape(-1, 4, 4),
    }
    psi = np.stack([alpha, beta.astype(complex)], axis=1)
    ideal1 = psi[:, :, None] * psi.conj()[:, None, :]
    results = {}
    if "d1" in metrics:
        results["d1"] = {label: linalg.hs_distance(m, ideal1) for label, m in singles.items()}
    if "d2" in metrics:
        ideal2 = linalg.kron(ideal1, ideal1)
        results["d2"] = {label: linalg.hs_distance(m, ideal2) for label, m in pairs.items()}
    if "d3" in metrics and variant is CopyVariant.TRIPLICATOR:
        # Tr[(rho - sigma)^2] for pure rho = |s><s|, sigma = |v><v|: |s|^4 + |v|^4 - 2|<v|s>|^2
        ideal3 = np.einsum("ni,nj,nk->nijk", psi, psi, psi).reshape(-1, 8)
        norm_s = np.sum(np.abs(states) ** 2, axis=1)
        norm_v = np.sum(np.abs(ideal3) ** 2, axis=1)
        overlap = np.abs(np.sum(ideal3.conj() * states, axis=1)) ** 2
        results["d3"] = norm_s**2 + norm_v**2 - 2.0 * overlap
    if "s" in metrics:
        fits = _scaling_fit(np.stack(list(singles.values())), ideal1)
        results["scaling"] = dict(zip(singles, fits))
    if "fidelity" in metrics:
        perp = np.stack([psi[:, 1].conj(), -psi[:, 0].conj()], axis=1)
        results["fidelity"] = {
            label: np.stack([_weight(m, psi), _weight(m, perp)], axis=1) for label, m in singles.items()
        }
    if "E" in metrics:
        results["ppt_spectrum"] = ppt_spectrum(pairs["a2a3"])
    return CopyGrid(
        variant=variant,
        theta=theta,
        phi=phi,
        alpha=alpha,
        beta=beta,
        states=states,
        qubit_reductions=singles,
        pair_reductions=pairs,
        **results,
    )


def _negativity_bound(grid: CopyGrid) -> np.ndarray:
    """The triplicator's quarter-phase bound -(1 + 4(sqrt(5)-2)|alpha|^2 |beta|^2)/6, per grid point.

    At phi = pi/2 (mod pi) the a2a3 pair's minimum partial-transpose
    eigenvalue E lies at or below it; the bound is attained at alpha = 0.
    """
    weight = np.abs(grid.alpha) ** 2 * grid.beta**2
    return -(1.0 + 4.0 * (math.sqrt(5.0) - 2.0) * weight) / 6.0


def run_copier(input_qubit: InputQubit, variant: CopyVariant) -> CopyReport:
    """Run the copying network on the input qubit and characterize the output.

    This is the one-point case of ``evaluate_grid``.
    """
    grid = evaluate_grid(variant, [input_qubit.theta], [input_qubit.phi], METRICS - {"E"})
    return CopyReport(
        variant=variant,
        input=input_qubit,
        output_state=PureState(grid.states[0]),
        qubit_reductions={label: m[0] for label, m in grid.qubit_reductions.items()},
        pair_reductions={label: m[0] for label, m in grid.pair_reductions.items()},
        scaling={label: None if math.isnan(s[0]) else float(s[0]) for label, s in grid.scaling.items()},
        fidelity={label: (float(f[0, 0]), float(f[0, 1])) for label, f in grid.fidelity.items()},
        d1={label: float(d[0]) for label, d in grid.d1.items()},
        d2={label: float(d[0]) for label, d in grid.d2.items()},
        d3=None if grid.d3 is None else float(grid.d3[0]),
    )


@dataclass(frozen=True)
class BoundCheck:
    """Comparison of the measured minimum eigenvalue E against its closed-form bound."""

    min_eigenvalue: float
    bound: float
    satisfied: bool
    gap: float


def negativity_bound_check(input_qubit: InputQubit) -> BoundCheck:
    """Check a triplicator pair's E against ``_negativity_bound`` at one input.

    The bound describes the quarter-turn phase (phi = pi/2 mod pi), where
    the negative eigenvalue is deepest; the input must carry such a phase.
    The returned gap is bound - E, non-negative whenever the bound holds.
    """
    if abs(math.cos(input_qubit.phi)) > 1e-12:
        raise ValueError("the negativity bound applies at phi = pi/2 (mod pi)")
    grid = evaluate_grid(CopyVariant.TRIPLICATOR, [input_qubit.theta], [input_qubit.phi], {"E"})
    bound = float(_negativity_bound(grid)[0])
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
    thetas = np.asarray(theta_values, dtype=float).reshape(-1)
    phis = np.asarray(phi_values, dtype=float).reshape(-1)
    grid = evaluate_grid(CopyVariant.TRIPLICATOR, thetas, phis, {"d1", "E"})
    e = grid.ppt_spectrum[:, 0]
    rows = [
        CorrelationRow(theta=theta, phi=phi, d1=d1, min_eigenvalue=low)
        for theta, phi, d1, low in zip(grid.theta.tolist(), grid.phi.tolist(), grid.d1["a2"].tolist(), e.tolist())
    ]

    # E on the (theta, phi) grid; the summaries reduce over the phi axis
    by_theta = e.reshape(thetas.size, phis.size)
    real = np.abs(np.sin(phis)) <= 1e-12
    real_dev = float(np.max(np.abs(by_theta[:, real] + 1.0 / 6.0))) if real.any() else None
    quarter = np.abs(phis - math.pi / 2.0) <= 1e-9
    minimum_at_quarter = None
    if quarter.any():
        minimum_at_quarter = bool(np.all(by_theta[:, quarter].min(axis=1) <= by_theta.min(axis=1) + 1e-12))

    return CorrelationTable(
        rows=tuple(rows),
        real_phase_deviation=real_dev,
        minimum_at_quarter_phase=minimum_at_quarter,
    )
