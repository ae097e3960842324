"""Pure-state simulation of small qubit registers.

Gates act on slices of the amplitudes read with qubit q as tensor axis q,
as ``linalg`` reads them, never by building full matrices, so unitarity
properties like the CNOT involution hold structurally.  A network is a
tuple of gates, applied first to last, so networks join with ``+``.
Qubit 0 occupies the most significant bit of the basis index; states are
immutable values and every operation returns a fresh state.  Register
sizes and qubit indices follow ``linalg``'s rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, sin
from typing import Iterable, Union

import numpy as np

from .linalg import MAX_QUBITS, _integer, _qubit_index, num_qubits_of

__all__ = [
    "MAX_QUBITS",
    "PureState",
    "Rotation",
    "CNOT",
    "Gate",
    "max_qubit",
    "run_network",
    "parse_network",
    "NetworkParseError",
]

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
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    norms = (np.abs(amps) ** 2).sum(axis=-1).reshape(-1)
    if not norms.size:
        return  # an empty stack has no state to fail
    norm = float(norms[np.abs(norms - 1.0).argmax()])
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized (sum of |amp|^2 = {norm!r})")


@dataclass(frozen=True)
class PureState:
    """Normalized amplitudes over the computational basis, qubit 0 as MSB."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"expected one state's amplitudes, got shape {amps.shape}")
        num_qubits_of(amps)
        _check_normalized(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return num_qubits_of(self.amplitudes)

    @classmethod
    def computational(cls, num_qubits: int, index: int = 0) -> "PureState":
        """Basis state |index> on the given number of qubits; a bool or a non-integer argument raises ValueError."""
        num_qubits, index = _integer(num_qubits, "num_qubits"), _integer(index, "basis index")
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


def _apply_gate(amps: np.ndarray, num_qubits: int, gate: Gate) -> np.ndarray:
    """Fresh amplitudes after one gate, for one state or a stack (shape (..., 2**num_qubits)).

    The gate reads the amplitudes as a (..., 2, ..., 2) view, qubit q on axis q of the last num_qubits, and acts
    on the pair of slices where its target reads 0 and 1 (and its control, if any, reads 1): a rotation mixes
    the pair, a CNOT swaps it.  A rotation angle may be an array with one angle per state of the stack.
    """
    if not isinstance(gate, (Rotation, CNOT)):
        raise TypeError(f"unknown gate type {type(gate).__name__}")
    axes = [slice(None)] * num_qubits
    if isinstance(gate, CNOT):
        axes[_qubit_index(num_qubits, gate.control, "control")] = 1
    target = _qubit_index(num_qubits, gate.target, "target")
    axes[target] = 0
    lo = (..., *axes)
    axes[target] = 1
    hi = (..., *axes)
    view = amps.reshape(amps.shape[:-1] + (2,) * num_qubits)
    x, y, out = view[lo], view[hi], view.copy()
    if isinstance(gate, CNOT):
        out[lo], out[hi] = y, x
    else:
        if np.ndim(gate.theta):
            theta = np.reshape(gate.theta, np.shape(gate.theta) + (1,) * (num_qubits - 1))
            c, s = np.cos(theta), np.sin(theta)
        else:
            c, s = cos(gate.theta), sin(gate.theta)
        x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)  # NumPy's arithmetic is faster on contiguous inputs
        out[lo], out[hi] = c * x - s * y, s * x + c * y
    return out.reshape(amps.shape)


def _run(amps: np.ndarray, net: Iterable[Gate]) -> np.ndarray:
    """Left-fold the gates over one state or a stack, sized by its last axis; a gate's ValueError names its position."""
    num_qubits = num_qubits_of(amps)
    for pos, gate in enumerate(net):
        try:
            amps = _apply_gate(amps, num_qubits, gate)
        except ValueError as exc:
            raise ValueError(f"gate {pos + 1} ({gate!r}): {exc}") from None
    return amps


def run_network(state: PureState, net: Iterable[Gate]) -> PureState:
    """The gates folded over the state by ``_run``; the result is validated once."""
    return PureState(_run(state.amplitudes, net))


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
