"""The duplicator and triplicator networks and their output analysis.

Both machines share one three-qubit circuit: a five-gate preparation stage
acting on the two blank qubits (a2, a3), followed by four CNOTs that spread
the original qubit (a1) over all three.  The two variants differ only in the
sign of the middle preparation angle, so each is one row of a private table;
a value that is not a CopyVariant member raises ValueError.  ``evaluate_grid``
runs the circuit once per variant, one fold over the stacked basis inputs
|000> and |100>, then forms the outputs of whole (theta, phi) grids as arrays.
Each machine is held only as one real Pauli transfer matrix per output label.
The CopyGrid it returns reads each input only through its Pauli coordinates,
but for d3.  It computes the distances, scaling fits and fidelity splits in
closed form from them and each label's transfer matrix, and builds a reduced
state, the label's coordinates over its Pauli basis, only for a caller that
reads one, as the a2a3 partial-transpose spectrum does.  Each field is computed
on first read.  ``run_copier`` is its one-point case and returns a CopyReport;
sweeps and the verify grids read the same kernel.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg, separability
from .gates import CNOT, Gate, PureState, Rotation, _check_normalized, _run

__all__ = [
    "CopyVariant",
    "InputQubit",
    "PreparationAngles",
    "CopyReport",
    "CopyGrid",
    "QUBIT_LABELS",
    "PAIR_LABELS",
    "preparation_amplitudes",
    "preparation_angles",
    "amplitudes_from_angles",
    "solve_preparation_angles",
    "preparation_network",
    "copy_stage_network",
    "full_network",
    "run_copier",
    "evaluate_grid",
]

QUBIT_LABELS = ("a1", "a2", "a3")
PAIR_LABELS = ("a2a3", "a1a2", "a1a3")
# register qubits (a1, a2, a3) = (0, 1, 2) behind each label, first-listed high-order
_REDUCED_QUBITS = {"a1": (0,), "a2": (1,), "a3": (2,), "a2a3": (1, 2), "a1a2": (0, 1), "a1a3": (0, 2)}

SCALING_RESIDUAL_TOL = 1e-10
_PURITY_TOL = 1e-10
_AMPLITUDE_NORM_TOL = 1e-9  # the norm deviation InputQubit.from_amplitudes accepts
_PHASE_CUTOFF = 1e-15  # the modulus at or below which it takes an amplitude to have no phase


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

    @classmethod
    def from_amplitudes(cls, alpha: complex, beta: complex) -> "InputQubit":
        """Build from raw amplitudes, factoring out the global phase.

        The amplitudes must be normalized within 1e-9; the returned
        qubit describes the same physical state with beta real >= 0.
        """
        alpha = complex(alpha)
        beta = complex(beta)
        norm = linalg._norm(np.array([alpha, beta]))
        if not abs(norm - 1.0) <= _AMPLITUDE_NORM_TOL:
            raise ValueError(f"amplitudes are not normalized (norm {norm!r})")
        alpha /= norm
        beta /= norm
        if abs(beta) > _PHASE_CUTOFF:
            alpha *= np.conj(beta / abs(beta))
        beta = abs(beta)  # below the cut-off too, so beta >= 0 and theta <= pi/2 whatever its sign
        theta = math.atan2(abs(alpha), beta)
        phi = cmath.phase(alpha) if abs(alpha) > _PHASE_CUTOFF else 0.0
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

# One row per machine: the target blank-qubit amplitudes and the sign of theta2.
_MACHINES = {
    CopyVariant.DUPLICATOR: (np.array([2.0, 1.0, 1.0, 0.0]) / math.sqrt(6.0), -1.0),
    CopyVariant.TRIPLICATOR: (np.array([3.0, 1.0, 1.0, 1.0]) / math.sqrt(12.0), 1.0),
}


def _machine(variant: CopyVariant) -> tuple[np.ndarray, float]:
    """The variant's row of ``_MACHINES``; ValueError for anything that is not a CopyVariant member."""
    if not isinstance(variant, CopyVariant):
        raise ValueError(f"variant must be a CopyVariant member, got {variant!r}")
    return _MACHINES[variant]


def preparation_amplitudes(variant: CopyVariant) -> np.ndarray:
    """Target blank-qubit amplitudes (|00>, |01>, |10>, |11>) for a variant."""
    return _machine(variant)[0].copy()


def preparation_angles(variant: CopyVariant) -> PreparationAngles:
    """Closed-form preparation angles; the variants differ only in the sign of theta2."""
    sign = _machine(variant)[1]
    return PreparationAngles(math.pi / 8.0, sign * _THETA2_MAGNITUDE, math.pi / 8.0)


def amplitudes_from_angles(angles: PreparationAngles) -> np.ndarray:
    """The preparation network on a real |00> by ``gates._run``, batched as the angles broadcast: (4,) or (N, 4)."""
    start = np.zeros(np.broadcast(angles.theta1, angles.theta2, angles.theta3).shape + (4,))
    start[..., 0] = 1.0
    return _run(start, preparation_network(angles))


# Singular-value gap 2 min(p, q) below which a target counts as degenerate
# (see solve_preparation_angles): the even split then reproduces it within
# half the gap, inside the 1e-10 residual contract.
_DEGENERATE_GAP = 1e-11

_TWO_PI = 2.0 * math.pi

# Sign flips of the factorization: -I on either side of the diagonal factor
# adds pi to that side's rotation and to theta2.
_SIGN_FLIPS = np.array([(0.0, 0.0, 0.0), (math.pi, math.pi, 0.0), (0.0, math.pi, math.pi), (math.pi, 0.0, math.pi)])


def _wrap_angles(x: np.ndarray) -> np.ndarray:
    """x shifted by a multiple of 2 pi into (-pi, pi], with +0.0 for -0.0, elementwise.

    ``np.fmod`` is exact, and so is one step of 2 pi from its result, so
    this equals ``math.remainder(x, 2 pi)`` with -pi taken to pi; where that
    remainder ties at +-pi, either choice ends at pi.
    """
    r = np.fmod(x, _TWO_PI)
    r = np.where(r > math.pi, r - _TWO_PI, r)
    return np.where(r <= -math.pi, r + _TWO_PI, r) + 0.0


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``math.atan2`` elementwise; ``np.arctan2`` differs from it in the last bit on some inputs."""
    return np.array([math.atan2(a, b) for a, b in zip(y.tolist(), x.tolist())])


def solve_preparation_angles(c) -> PreparationAngles:
    """Closed-form rotation angles whose preparation-stage image is ``c``, batched as ``amplitudes_from_angles``.

    One target (4,) gives three floats, a stack (N, 4) three (N,) arrays
    and (0, 4) three empty ones, every target by the same formulas.  Read
    as the 2x2 matrix ``M = c.reshape(2, 2)``, a target's amplitudes factor
    exactly as ``R(theta3) diag(cos theta2, sin theta2) R(theta1)^T`` with
    ``R(t) = [[cos t, -sin t], [sin t, cos t]]``.  Writing the diagonal
    factor as p I + q Z, with p = (cos theta2 + sin theta2)/2 and
    q = (cos theta2 - sin theta2)/2, gives
    ``M = p R(theta3 - theta1) + q R(theta3 + theta1) Z``.  So M's rotation
    part ((M00 + M11)/2, (M10 - M01)/2), read as a complex number, is
    p e^{i(theta3 - theta1)}, its reflection part ((M00 - M11)/2,
    (M01 + M10)/2) is q e^{i(theta3 + theta1)}, and
    theta2 = atan2(p - q, p + q).  Every unit-norm target is reachable.
    Near a rotation or a reflection the differences that cancel are exact
    (Sterbenz's lemma), so the angles are accurate to rounding.  The
    singular values of M are p + q and |p - q|.  The solutions form a
    finite family: sign flips (-I on either side of the diagonal factor),
    the swap of the singular values (R(pi/2) on both sides) and 2 pi wraps.
    Each member is wrapped into (-pi, pi] and the one with the smallest
    Euclidean norm is returned, ties broken by the smaller angle tuple.

    When 2 min(p, q), the singular-value gap, is at most
    ``_DEGENERATE_GAP``, M is a multiple of a rotation (q = 0) or of a
    reflection (p = 0), and the family is continuous: with theta2 = pi/4
    only theta3 - theta1 is fixed, with theta2 = -pi/4 only theta3 + theta1
    (the branch theta2 + pi shifts either by pi).  The smaller part and its
    free angle are set to 0, which splits the fixed angle evenly between
    theta1 and theta3, where the norm is smallest, so
    ``[1, 0, 0, 1]/sqrt(2)`` gives (0, pi/4, 0).

    Raises ValueError for any other shape, and unless every target is
    finite with unit sum of squares, within ``gates.NORM_TOL`` as for a state.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] != 4:
        raise ValueError(f"expected four target amplitudes or a stack of them, got shape {c.shape}")
    _check_normalized(c)

    m00, m01, m10, m11 = c.reshape(-1, 4).T
    # rotation part (ux, uy) = p e^{i(theta3 - theta1)}, reflection part (vx, vy) = q e^{i(theta3 + theta1)}
    ux, uy, vx, vy = (m00 + m11) / 2.0, (m10 - m01) / 2.0, (m00 - m11) / 2.0, (m01 + m10) / 2.0
    p, q, a, b = np.hypot(ux, uy), np.hypot(vx, vy), _atan2(uy, ux), _atan2(vy, vx)
    # within the gap the smaller part and its free angle are 0, which splits the other's angle evenly
    tied = 2.0 * np.minimum(p, q) <= _DEGENERATE_GAP
    reflection = tied & (p < q)
    p, a = np.where(reflection, 0.0, [p, a])
    q, b = np.where(tied & ~reflection, 0.0, [q, b])
    theta1, theta2, theta3 = (b - a) / 2.0, _atan2(p - q, p + q), (a + b) / 2.0
    half = math.pi / 2.0
    # the solution and its singular-value swap, each under the four sign flips
    solutions = np.array([(theta1, theta2, theta3), (theta1 + half, half - theta2, theta3 + half)])
    candidates = (solutions.transpose(2, 0, 1)[:, :, None, :] + _SIGN_FLIPS).reshape(-1, 8, 3)
    wrapped = _wrap_angles(candidates).tolist()
    # shaped (-1, 3), so that an empty stack still gives three fields
    picked = np.array([min(members, key=lambda t: (math.hypot(*t), t)) for members in wrapped]).reshape(-1, 3)
    return PreparationAngles(*(picked[0].tolist() if c.ndim == 1 else picked.T))


def preparation_network(angles: PreparationAngles, qubits: tuple[int, int] = (0, 1)) -> tuple[Gate, ...]:
    """The five-gate preparation stage on the (a2, a3) qubit pair.

    ``qubits`` names the register indices playing the roles of a2 and a3;
    the default runs the stage on a bare two-qubit register.
    """
    q2, q3 = qubits
    return (
        Rotation(q2, angles.theta1),
        CNOT(q2, q3),
        Rotation(q3, angles.theta2),
        CNOT(q3, q2),
        Rotation(q2, angles.theta3),
    )


def copy_stage_network() -> tuple[Gate, ...]:
    """The four-CNOT copying stage on (a1, a2, a3) = qubits (0, 1, 2), first gate applied first."""
    return (CNOT(0, 1), CNOT(0, 2), CNOT(1, 0), CNOT(2, 0))


def full_network(variant: CopyVariant) -> tuple[Gate, ...]:
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
    per qubit.  ``d3`` is only set for the triplicator.  ``ppt`` holds each
    pair's ``ppt_verdict``, from the kernel's Gram route (see ``CopyGrid``).
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
    ppt: dict[str, separability.PptReport]


def _scaling(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Least-squares s of s rho + (1 - s) I/2 to reductions q = (q0, v) (..., 4, N), with p = (1, r) (4, N) for rho.

    s = v.r / |r|^2, NaN where the residual [(q0 - 1)^2 + |v - s r|^2]/2 exceeds SCALING_RESIDUAL_TOL.
    Raises ValueError unless every reference is pure: Tr rho^2 = (1 + |r|^2)/2 within _PURITY_TOL of 1.
    """
    r, v = p[1:], q[..., 1:, :]
    r2 = (r * r).sum(axis=0)
    purity = (1.0 + float(r2.min())) / 2.0
    if purity < 1.0 - _PURITY_TOL:
        raise ValueError(f"reference state is not pure (purity {purity!r})")
    s = (v * r).sum(axis=-2) / r2
    miss = v - s[..., None, :] * r
    residual = ((q[..., 0, :] - 1.0) ** 2 + (miss * miss).sum(axis=-2)) / 2.0
    return np.where(residual <= SCALING_RESIDUAL_TOL, s, np.nan)


def _fidelity(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(..., N, 2) weights of reductions q on pure states p, Tr[M rho] = q.p/2, and on their complements."""
    ideal = (q * p).sum(axis=-2) / 2.0
    return np.stack([ideal, q[..., 0, :] - ideal], axis=-1)


@dataclass(frozen=True)
class CopyGrid:
    """Copier outputs and metrics on N input points, every array indexed by point first.

    ``states`` holds the (N, 8) output amplitudes.  Everything else is
    computed on first read and cached.  The metrics are closed forms in the
    inputs' Pauli coordinates p = (1, r), r the Bloch vector, and each label's
    q = p R through its transfer matrix (``_transfer``): d1 = |q - p|^2/2,
    d2 = |Q - p(x)p|^2/4.  A reduction, keyed as in CopyReport with shape
    (N, 2, 2) or (N, 4, 4), is built only when read, as M = sum_nu q_nu P_nu / d
    over the label's Pauli basis; q is real and P_nu / d has entries 0, +-1/d
    and +-i/d, so M is Hermitian bit for bit.  A sweep builds only a2a3, for
    ``ppt_spectrum``.  ``d3`` is None for the duplicator.  ``scaling`` is NaN
    where a qubit has no scaled form; ``fidelity`` holds (N, 2) weights on the
    input state and on its orthogonal complement; ``ppt_spectrum`` is the
    ascending (N, 4) spectrum of the partially transposed a2a3 pair.  Reading
    ``scaling`` raises ValueError if an input state is not pure.  A pair reduction is a
    channel's image of a checked pure state, so positive by construction;
    ``separability._pair_spectra`` checks that pairs are finite, Hermitian and unit-trace.
    """

    variant: CopyVariant
    theta: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    states: np.ndarray

    @functools.cached_property
    def _pauli(self) -> np.ndarray:
        """(4, N) input coordinates Tr[rho sigma_mu], a row per mu: 1, 2 Re ab*, -2 Im ab*, |a|^2 - |b|^2 (b real)."""
        a, b = self.alpha, self.beta
        ab = 2.0 * b * a
        return np.array([np.ones_like(b), ab.real, -ab.imag, a.real**2 + a.imag**2 - b * b])

    def _coordinates(self, labels: tuple[str, ...]) -> np.ndarray:
        """The labels' coordinates p R, (len(labels), d*d, N): a row per coordinate, so sums over them add rows."""
        transfer = np.concatenate([_transfer(self.variant, label) for label in labels], axis=1)
        # an einsum, not @: a real GEMM of grid size pages in BLAS kernels that nothing else here runs
        return np.einsum("mk,mn->kn", transfer, self._pauli).reshape(len(labels), -1, self.theta.size)

    @functools.cached_property
    def _single_coordinates(self) -> np.ndarray:
        return self._coordinates(QUBIT_LABELS)

    @functools.cached_property
    def _reductions(self) -> dict[str, np.ndarray]:
        return {}

    def _reduced(self, label: str) -> np.ndarray:
        """The reduction keyed ``label``, built on its first request: M = sum_nu q_nu P_nu / d with q = p R."""
        if label not in self._reductions:
            transfer = _transfer(self.variant, label)
            basis = _PAULI_BASES[transfer.shape[1]]
            d = basis.shape[-1]
            flat = basis.reshape(len(basis), -1) / d  # entries 0, +-1/d, +-i/d: products with them are exact
            self._reductions[label] = (self._pauli.T @ (transfer @ flat)).reshape(-1, d, d)
        return self._reductions[label]

    @functools.cached_property
    def qubit_reductions(self) -> dict[str, np.ndarray]:
        return {label: self._reduced(label) for label in QUBIT_LABELS}

    @functools.cached_property
    def pair_reductions(self) -> dict[str, np.ndarray]:
        return {label: self._reduced(label) for label in PAIR_LABELS}

    @functools.cached_property
    def d1(self) -> dict[str, np.ndarray]:
        delta = self._single_coordinates - self._pauli
        return dict(zip(QUBIT_LABELS, (delta * delta).sum(axis=1) / 2.0))

    @functools.cached_property
    def d2(self) -> dict[str, np.ndarray]:
        p = self._pauli
        delta = self._coordinates(PAIR_LABELS).reshape(-1, 4, 4, p.shape[1]) - p[:, None] * p  # Q_ab - p_a p_b
        return dict(zip(PAIR_LABELS, (delta * delta).sum(axis=2).sum(axis=1) / 4.0))

    @functools.cached_property
    def d3(self) -> np.ndarray | None:
        if self.variant is not CopyVariant.TRIPLICATOR:
            return None
        # Tr[(rho - sigma)^2] for pure rho = |s><s|, sigma = |v><v|: |s|^4 + |v|^4 - 2|<v|s>|^2
        psi, states = np.stack([self.alpha, self.beta.astype(complex)], axis=1), self.states
        ideal3 = np.einsum("ni,nj,nk->nijk", psi, psi, psi).reshape(-1, 8)
        norm_s = np.sum(np.abs(states) ** 2, axis=1)
        norm_v = np.sum(np.abs(ideal3) ** 2, axis=1)
        overlap = np.abs(np.sum(ideal3.conj() * states, axis=1)) ** 2
        return norm_s**2 + norm_v**2 - 2.0 * overlap

    @functools.cached_property
    def scaling(self) -> dict[str, np.ndarray]:
        return dict(zip(QUBIT_LABELS, _scaling(self._single_coordinates, self._pauli)))

    @functools.cached_property
    def fidelity(self) -> dict[str, np.ndarray]:
        return dict(zip(QUBIT_LABELS, _fidelity(self._single_coordinates, self._pauli)))

    @functools.cached_property
    def ppt_spectrum(self) -> np.ndarray:
        return separability._pair_spectra(self._reduced("a2a3"))


@functools.cache
def _basis_outputs(variant: CopyVariant) -> np.ndarray:
    """Read-only (2, 8) rows U|000> and U|100> of the variant's network U, one fold over the two basis states.

    The blanks start in |00> and the input enters only via a1: by linearity every output is alpha U|000> + beta U|100>.
    """
    rows = _run(np.eye(8, dtype=complex)[[0b000, 0b100]], full_network(variant))
    _check_normalized(rows)
    rows.flags.writeable = False
    return rows


_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# Each reduction's Pauli basis P_nu, keyed by its size d*d: sigma_nu, or sigma_a (x) sigma_b at nu = 4a + b with
# a on the first-listed qubit.
_PAULI_BASES = {4: _PAULI, 16: np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(16, 4, 4)}
_PAULI.flags.writeable = False
_PAULI_BASES[16].flags.writeable = False


@functools.cache
def _transfer(variant: CopyVariant, label: str) -> np.ndarray:
    """Read-only real (4, d*d) Pauli transfer matrix R of the label's reduction: R_mu,nu = Tr[M_mu P_nu].

    With u_0, u_1 the rows of ``_basis_outputs``, the network maps an input
    operator A to sum_ij A_ij |u_i><u_j|, linearly, and M_mu is the label's
    partial trace of the image of sigma_mu/2.  An input's coordinates
    p_mu = Tr[rho sigma_mu] (``CopyGrid._pauli``) then map to q = p R,
    q_nu = Tr[M P_nu], with P_nu the label's basis in ``_PAULI_BASES``.
    """
    u = _basis_outputs(variant)
    images = np.einsum("mij,ia,jb->mab", _PAULI / 2.0, u, u.conj())
    reduced = linalg.partial_trace(images, _REDUCED_QUBITS[label]).reshape(4, -1)
    basis = _PAULI_BASES[reduced.shape[1]]
    transfer = (reduced @ basis.swapaxes(-1, -2).reshape(len(basis), -1).T).real
    transfer.flags.writeable = False
    return transfer


def evaluate_grid(variant: CopyVariant, thetas, phis) -> CopyGrid:
    """Run the copier on the theta-major product grid thetas x phis, all points at once.

    Each point gets what ``run_copier`` computes for InputQubit(theta, phi),
    plus the a2a3 partial-transpose spectrum, each computed when first read.
    Raises ValueError for a variant that is not a CopyVariant member, an
    empty grid, a non-finite angle, or output states that fail the
    PureState norm check.
    """
    _machine(variant)  # before the basis outputs' cache, which cannot hash every value
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    phis = np.asarray(phis, dtype=float).reshape(-1)
    if not (thetas.size and phis.size):
        raise ValueError("the grid needs at least one theta and one phi")
    if not (np.isfinite(thetas).all() and np.isfinite(phis).all()):
        raise ValueError("input angles must be finite")
    theta = np.repeat(thetas, phis.size)
    phi = np.tile(phis, thetas.size)
    alpha = np.sin(theta) * np.exp(1j * phi)
    beta = np.cos(theta)
    outputs = _basis_outputs(variant)
    states = alpha[:, None] * outputs[0] + beta[:, None] * outputs[1]
    _check_normalized(states)
    return CopyGrid(variant=variant, theta=theta, phi=phi, alpha=alpha, beta=beta, states=states)


def run_copier(input_qubit: InputQubit, variant: CopyVariant) -> CopyReport:
    """Run the copying network on the input qubit and characterize the output.

    This is the one-point case of ``evaluate_grid``; one stacked spectrum verdicts its three pairs.
    """
    grid = evaluate_grid(variant, [input_qubit.theta], [input_qubit.phi])
    pairs = np.stack([m[0] for m in grid.pair_reductions.values()])
    return CopyReport(
        variant=variant,
        input=input_qubit,
        output_state=PureState(grid.states[0]),
        qubit_reductions={label: m[0] for label, m in grid.qubit_reductions.items()},
        pair_reductions=dict(zip(PAIR_LABELS, pairs)),
        scaling={label: None if math.isnan(s[0]) else float(s[0]) for label, s in grid.scaling.items()},
        fidelity={label: (float(f[0, 0]), float(f[0, 1])) for label, f in grid.fidelity.items()},
        d1={label: float(d[0]) for label, d in grid.d1.items()},
        d2={label: float(d[0]) for label, d in grid.d2.items()},
        d3=None if grid.d3 is None else float(grid.d3[0]),
        ppt=dict(zip(PAIR_LABELS, separability._ppt_reports(separability._pair_spectra(pairs)))),
    )
