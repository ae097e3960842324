"""Pure-state simulation of small qubit registers.

Gates act by direct amplitude updates (bit masking), never by building
full matrices, so unitarity properties like the CNOT involution hold
structurally.  A network is a tuple of gates, applied first to last, so
networks join with ``+``.  Qubit 0 occupies the most significant bit of
the basis index; states are immutable values and every operation returns
a fresh state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, sin
from typing import Iterable, Union

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "PureState",
    "Rotation",
    "CNOT",
    "Gate",
    "max_qubit",
    "run_network",
    "density_of",
    "parse_network",
    "NetworkParseError",
]

MAX_QUBITS = 3
NORM_TOL = 1e-12


@dataclass(frozen=True)
class Rotation:
    """Real plane rotation on one qubit.

    |0> -> cos(theta)|0> + sin(theta)|1>
    |1> -> -sin(theta)|0> + cos(theta)|1>

    Applied to a stack of states, theta may be an array of one angle per state.
    """

    target: int
    theta: float


@dataclass(frozen=True)
class CNOT:
    """Flip the target qubit on basis components where the control bit is 1."""

    control: int
    target: int

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise ValueError("control and target qubits must differ")


Gate = Union[Rotation, CNOT]


def _check_normalized(amps: np.ndarray) -> None:
    """Raise ValueError unless every state (last axis) is finite and normalized within NORM_TOL."""
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    norms = np.sum(np.abs(amps) ** 2, axis=-1).reshape(-1)
    norm = float(norms[np.argmax(np.abs(norms - 1.0))])
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized (sum of |amp|^2 = {norm!r})")


@dataclass(frozen=True)
class PureState:
    """Normalized amplitudes over the computational basis, qubit 0 as MSB."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        n = (amps.size - 1).bit_length()
        if amps.ndim != 1 or amps.size < 2 or 2**n != amps.size or n > MAX_QUBITS:
            raise ValueError(f"amplitude count {amps.size} does not describe 1..{MAX_QUBITS} qubits")
        _check_normalized(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return (self.amplitudes.size - 1).bit_length()

    @classmethod
    def computational(cls, num_qubits: int, index: int = 0) -> "PureState":
        """Basis state |index> on the given number of qubits."""
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be 1..{MAX_QUBITS}")
        dim = 1 << num_qubits
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)


class NetworkParseError(ValueError):
    """Raised for malformed network text; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def max_qubit(gates: Iterable[Gate]) -> int:
    """Largest qubit index the gates use, or -1 for no gates."""
    qubits = (max(gate.control, gate.target) if isinstance(gate, CNOT) else gate.target for gate in gates)
    return max(qubits, default=-1)


def _check_index(num_qubits: int, qubit: int, role: str) -> None:
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"{role} qubit {qubit} out of range for a {num_qubits}-qubit state")


def _apply_gate(amps: np.ndarray, num_qubits: int, gate: Gate) -> np.ndarray:
    """Fresh amplitudes after one gate, for one state or a stack (shape (..., 2**num_qubits)).

    Qubit q is bit num_qubits - 1 - q of the basis index.  A rotation angle
    may be an array with one angle per state of the stack.
    """
    idx = np.arange(amps.shape[-1])
    if isinstance(gate, Rotation):
        _check_index(num_qubits, gate.target, "target")
        mask = 1 << (num_qubits - 1 - gate.target)
        lo = idx[(idx & mask) == 0]
        hi = lo | mask
        if np.ndim(gate.theta):
            theta = np.asarray(gate.theta)[..., None]
            c, s = np.cos(theta), np.sin(theta)
        else:
            c, s = cos(gate.theta), sin(gate.theta)
        out = np.empty_like(amps)
        out[..., lo] = c * amps[..., lo] - s * amps[..., hi]
        out[..., hi] = s * amps[..., lo] + c * amps[..., hi]
        return out
    if isinstance(gate, CNOT):
        _check_index(num_qubits, gate.control, "control")
        _check_index(num_qubits, gate.target, "target")
        control_mask = 1 << (num_qubits - 1 - gate.control)
        target_mask = 1 << (num_qubits - 1 - gate.target)
        src = idx[(idx & control_mask) != 0]
        out = amps.copy()
        out[..., src ^ target_mask] = amps[..., src]
        return out
    raise TypeError(f"unknown gate type {type(gate).__name__}")


def run_network(state: PureState, net: Iterable[Gate]) -> PureState:
    """Left-fold the gates over the state, in listed order; the result is validated once."""
    amps, n = state.amplitudes, state.num_qubits
    for pos, gate in enumerate(net):
        try:
            amps = _apply_gate(amps, n, gate)
        except ValueError as exc:
            raise ValueError(f"gate {pos + 1} ({gate!r}): {exc}") from None
    return PureState(amps)


def density_of(state: PureState) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a pure state."""
    amps = state.amplitudes
    return np.outer(amps, amps.conj())


def parse_network(text: str) -> tuple[Gate, ...]:
    """Parse the plain-text network format, one gate per line.

    Lines are ``R <qubit> <theta>`` (theta in radians) or
    ``CNOT <control> <target>``.  Blank lines and ``#`` comments are
    ignored.  Raises NetworkParseError with the line number on bad input.
    """
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "R" and len(parts) == 3:
                theta = float(parts[2])
                if not isfinite(theta):
                    raise ValueError(f"rotation angle {parts[2]!r} is not finite")
                gates.append(Rotation(int(parts[1]), theta))
            elif parts[0] == "CNOT" and len(parts) == 3:
                gates.append(CNOT(int(parts[1]), int(parts[2])))
            else:
                raise ValueError(f"expected 'R <qubit> <theta>' or 'CNOT <control> <target>', got {line!r}")
        except ValueError as exc:
            raise NetworkParseError(lineno, str(exc)) from None
    return tuple(gates)
