"""The kill table: defects patched into the running code, and exactly the verify checks each one fails.

A row of ``KILL_TABLE`` names a defect and holds its patch, made in process
with ``monkeypatch`` (no source edit), and what ``run_verification`` must
report with it applied: the exact set of check ids that fail, or a string
that starts "equivalent:" or "survives:" and says why no check fails.  An
equivalent defect computes the same machine; a surviving one is a real
defect that no check sees yet, and its string names what would kill it.
A patch of a name rebinds it in every ``qcopynet`` module that holds it,
and the cached ``_basis_outputs`` and ``_transfer`` are cleared before and
after each row, so a row starts from and leaves the machines as built from
the source.
"""

import sys

import numpy as np
import pytest

from qcopynet import copier, gates, verify
from qcopynet.copier import CopyGrid
from qcopynet.gates import CNOT, Rotation, _run


def checks(*groups: str) -> frozenset:
    """Check ids from "group: name name ..." strings."""
    pairs = [spec.split(": ") for spec in groups]
    return frozenset(f"{group}.{name}" for group, names in pairs for name in names.split())


def patch_everywhere(monkeypatch, name: str, replacement) -> None:
    """Rebind copier's ``name`` in every qcopynet module holding it (``from .copier import`` copies the binding)."""
    original = getattr(copier, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "qcopynet" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def copy_stage(*gates):
    return lambda monkeypatch: patch_everywhere(monkeypatch, "copy_stage_network", lambda: gates)


def transfer_defect(defect):
    def patch(monkeypatch):
        transfer = copier._transfer
        patch_everywhere(monkeypatch, "_transfer", lambda variant, label: defect(transfer(variant, label)))
    return patch


def basis_rows_from_001(monkeypatch):
    rows = lambda variant: _run(np.eye(8, dtype=complex)[[0b001, 0b100]], copier.full_network(variant))
    patch_everywhere(monkeypatch, "_basis_outputs", rows)


def pauli_r_y_negated(monkeypatch):
    pauli, flip = CopyGrid._pauli.func, np.array([[1.0], [1.0], [-1.0], [1.0]])
    monkeypatch.setattr(CopyGrid, "_pauli", property(lambda grid: pauli(grid) * flip))


def theta1_theta3_swapped(monkeypatch):
    network = copier.preparation_network

    def swapped(angles, qubits=(0, 1)):
        return network(copier.PreparationAngles(angles.theta3, angles.theta2, angles.theta1), qubits)

    patch_everywhere(monkeypatch, "preparation_network", swapped)


def gate_defect(defect):
    """A patch that runs every gate of every network through ``defect(apply_gate, amps, num_qubits, gate)``."""
    def patch(monkeypatch):
        apply_gate = gates._apply_gate
        monkeypatch.setattr(gates, "_apply_gate", lambda amps, n, gate: defect(apply_gate, amps, n, gate))
    return patch


def qubits_reversed(apply_gate, amps, n, gate):
    flip = lambda q: n - 1 - q
    if isinstance(gate, CNOT):
        return apply_gate(amps, n, CNOT(flip(gate.control), flip(gate.target)))
    return apply_gate(amps, n, Rotation(flip(gate.target), gate.theta))


def angles_negated(apply_gate, amps, n, gate):
    return apply_gate(amps, n, Rotation(gate.target, -gate.theta) if isinstance(gate, Rotation) else gate)


def cnot_fires_on_control_0(apply_gate, amps, n, gate):
    if isinstance(gate, Rotation):
        return apply_gate(amps, n, gate)
    bit = lambda q: 1 << (n - 1 - q)
    index = np.arange(1 << n)
    return amps[..., np.where(index & bit(gate.control), index, index ^ bit(gate.target))]


def reduced_qubits(label, qubits):
    return lambda monkeypatch: monkeypatch.setitem(copier._REDUCED_QUBITS, label, qubits)


# sigma_y^T = -sigma_y, so a column of R with an odd number of sigma_y factors changes sign when the image transposes
ODD_SIGMA_Y = {4: np.array([1.0, 1.0, -1.0, 1.0])}
ODD_SIGMA_Y[16] = np.array([-1.0 if (a == 2) != (b == 2) else 1.0 for a in range(4) for b in range(4)])

# the transposed images' ten checks, which rows 1 and 2 swapped in every transfer matrix also fail
TRANSPOSED = checks(
    "distance: copy-pair single-copy", "fidelity: ideal-weight orthogonal-weight",
    "original: distance-formula transpose-law", "scaling: factor", "trip-complex: d1 d2 single-matrix",
)
# the checks that the copy stage's CNOT(1, 0) as CNOT(0, 1) and the first basis row from |001> both fail
WRONG_MACHINE = TRANSPOSED | checks(
    "basis: zero-input", "bound: inequality real-phase-eigenvalue", "fidelity: copies-identical",
    "ppt: duplicator-spectrum", "trip-complex: d3", "trip-prep: output-pattern",
    "trip-real: d1 d2 d3 equal-reductions pair-matrix pair-spectrum scaling",
)
# the checks that every rotation angle negated fails: the preparation stage's blank state is wrong
WRONG_PREPARATION = (WRONG_MACHINE - checks("fidelity: copies-identical")) | checks(
    "angles: duplicator-recovery random-targets triplicator-recovery", "basis: one-input", "bound: tight-at-zero",
    "prep: duplicator-state", "trip-prep: blank-state",
)
# defect: its patch, then the exact check ids it fails, or why it fails none
KILL_TABLE = {
    "copy-cnot-1-0-as-0-1": (
        copy_stage(CNOT(0, 1), CNOT(0, 2), CNOT(0, 1), CNOT(2, 0)),
        WRONG_MACHINE | checks("basis: one-input", "bound: tight-at-zero", "ppt: duplicator-verdict"),
    ),
    "transfer-rows-1-and-2-swapped": (
        transfer_defect(lambda r: r[[0, 2, 1, 3]]),
        TRANSPOSED | checks(
            "bound: inequality minimum-at-quarter-phase real-phase-eigenvalue",
            "trip-real: d1 d2 pair-matrix pair-spectrum scaling",
        ),
    ),
    "every-image-transposed": (transfer_defect(lambda r: r * ODD_SIGMA_Y[r.shape[1]]), TRANSPOSED),
    "first-basis-row-from-001": (basis_rows_from_001, WRONG_MACHINE),
    # r_y negated conjugates every reduction.  Distances, weights, fits and spectra are blind to that, and the real
    # grid has r_y = 0, so only the two laws that compare complex matrices with the stated tables can fail.
    "pauli-r_y-negated": (pauli_r_y_negated, checks("original: transpose-law", "trip-complex: single-matrix")),
    # both machines have theta1 = theta3 = pi/8, so only the network's runs on solved, general triples see the swap
    "theta1-theta3-swapped": (theta1_theta3_swapped, checks("angles: random-targets")),
    # under each kernel defect CNOT twice and a rotation by +t then -t are still the identity, and gates on disjoint
    # qubits still commute, so properties' gate-involution and gate-commutation pass; the networks' outputs fail
    "gate-qubits-reversed": (
        gate_defect(qubits_reversed),
        WRONG_MACHINE | checks("angles: random-targets", "basis: one-input", "bound: minimum-at-quarter-phase"),
    ),
    "gate-rotation-angles-negated": (gate_defect(angles_negated), WRONG_PREPARATION),
    "gate-cnot-fires-on-control-0": (
        gate_defect(cnot_fires_on_control_0),
        WRONG_PREPARATION | checks("fidelity: copies-identical", "trip-complex: no-scaled-form"),
    ),
    "copy-cnots-0-1-and-0-2-swapped": (
        copy_stage(CNOT(0, 2), CNOT(0, 1), CNOT(1, 0), CNOT(2, 0)),
        "equivalent: the two CNOTs share their control, so they commute",
    ),
    "copy-cnots-1-0-and-2-0-swapped": (
        copy_stage(CNOT(0, 1), CNOT(0, 2), CNOT(2, 0), CNOT(1, 0)),
        "equivalent: the two CNOTs share their target, so they commute",
    ),
    "a2a3-read-as-a3a2": (
        reduced_qubits("a2a3", (2, 1)),
        "equivalent: both machines' outputs are symmetric under swapping a2 and a3",
    ),
    "a1a2-read-as-a2a1": (
        reduced_qubits("a1a2", (1, 0)),
        "survives: no check reads the duplicator's a1a2 pair in order, and the triplicator's is symmetric;"
        " ROADMAP item 8's channel.duplicator-pairs would fail",
    ),
    "a1a3-read-as-a3a1": (
        reduced_qubits("a1a3", (2, 0)),
        "survives: no check reads the duplicator's a1a3 pair in order, and the triplicator's is symmetric;"
        " ROADMAP item 8's channel.duplicator-pairs would fail",
    ),
    "wrap-angles-identity": (
        lambda monkeypatch: patch_everywhere(monkeypatch, "_wrap_angles", lambda x: x + 0.0),
        "survives: no check reads the solved angles' range or norm; ROADMAP item 2's angles.smallest-norm would fail",
    ),
}


@pytest.mark.parametrize("defect", KILL_TABLE)
def test_verify_fails_exactly_the_pinned_checks(defect, monkeypatch):
    patch, fails = KILL_TABLE[defect]
    assert isinstance(fails, frozenset) or fails.startswith(("equivalent: ", "survives: "))
    copier._basis_outputs.cache_clear()
    copier._transfer.cache_clear()
    patch(monkeypatch)
    try:
        results = verify.run_verification()
    finally:
        monkeypatch.undo()
        copier._basis_outputs.cache_clear()
        copier._transfer.cache_clear()
    assert len(results) == 39
    failed = {check.check_id for check in results if not check.passed}
    assert failed == (frozenset() if isinstance(fails, str) else fails)
