import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcopynet.gates import (
    CNOT,
    NetworkParseError,
    PureState,
    Rotation,
    max_qubit,
    parse_network,
    run_network,
)

from conftest import random_pure


def state(*amps):
    return PureState(np.array(amps, dtype=complex))


# --------------------------------------------------------------- rotation

def test_rotation_zero_angle_is_identity(rng):
    psi = PureState(random_pure(rng, 3))
    out = run_network(psi, [Rotation(1, 0.0)])
    assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-15


def test_rotation_quarter_turn_maps_zero_to_one():
    out = run_network(state(1, 0), [Rotation(0, math.pi / 2.0)])
    assert np.max(np.abs(out.amplitudes - np.array([0.0, 1.0]))) < 1e-15


def test_rotation_eighth_turn_amplitudes():
    out = run_network(state(1, 0), [Rotation(0, math.pi / 8.0)])
    expected = np.array([math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)])
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-15


def test_rotation_on_one_component():
    out = run_network(state(0, 1), [Rotation(0, 0.3)])
    expected = np.array([-math.sin(0.3), math.cos(0.3)])
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-15


def test_rotation_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        run_network(state(1, 0), [Rotation(1, 0.1)])


@pytest.mark.parametrize(
    "gate,role",
    [(Rotation(True, math.pi / 2.0), "target"), (CNOT(0, True), "target"), (Rotation(1.0, 0.5), "target")],
    ids=["bool-rotation", "bool-cnot", "float-rotation"],
)
def test_a_qubit_index_that_is_a_bool_or_not_an_integer_is_rejected_with_the_gate_prefix(gate, role):
    # a bool used to pass as qubit 1, and a float escaped as a bare TypeError
    prefix = f"gate 1 ({gate!r}): {role} qubit must be an integer, got "
    with pytest.raises(ValueError) as raised:
        run_network(PureState.computational(3, 0), (gate,))
    assert str(raised.value).startswith(prefix)


# ------------------------------------------------------------------ cnot

@pytest.mark.parametrize(
    "basis_in,basis_out",
    [(0b00, 0b00), (0b01, 0b01), (0b10, 0b11), (0b11, 0b10)],
)
def test_cnot_truth_table(basis_in, basis_out):
    out = run_network(PureState.computational(2, basis_in), [CNOT(0, 1)])
    expected = PureState.computational(2, basis_out)
    assert np.array_equal(out.amplitudes, expected.amplitudes)


def test_cnot_involution_on_random_states(rng):
    for _ in range(100):
        psi = PureState(random_pure(rng, 3))
        control, target = rng.choice(3, size=2, replace=False)
        back = run_network(run_network(psi, [CNOT(control, target)]), [CNOT(control, target)])
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-15


def test_cnot_rejects_equal_control_and_target():
    with pytest.raises(ValueError, match="differ"):
        CNOT(0, 0)


# --------------------------------------------------------------- network

def test_run_network_empty_is_identity(rng):
    psi = PureState(random_pure(rng, 2))
    out = run_network(psi, ())
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_run_network_preparation_state():
    from qcopynet import CopyVariant, preparation_angles, preparation_network

    net = preparation_network(preparation_angles(CopyVariant.DUPLICATOR))
    out = run_network(PureState.computational(2, 0), net)
    expected = np.array([2.0, 1.0, 1.0, 0.0]) / math.sqrt(6.0)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_run_network_full_copier_on_zero():
    from qcopynet import CopyVariant, full_network

    out = run_network(PureState.computational(3, 0), full_network(CopyVariant.DUPLICATOR))
    expected = np.zeros(8)
    expected[0b000] = math.sqrt(2.0 / 3.0)
    expected[0b101] = expected[0b110] = 1.0 / math.sqrt(6.0)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_run_network_reports_gate_position_on_error():
    net = (Rotation(0, 0.1), CNOT(0, 2))
    with pytest.raises(ValueError, match=r"gate 2"):
        run_network(PureState.computational(2, 0), net)


def test_an_unknown_gate_type_raises_type_error():
    from qcopynet.gates import _apply_gate

    with pytest.raises(TypeError, match="^unknown gate type str$"):
        _apply_gate(np.array([1.0, 0.0]), 1, "X")


def test_run_network_validates_the_state_once(monkeypatch):
    from qcopynet import CopyVariant, full_network, gates

    start = PureState.computational(3, 0)
    calls = []
    check = gates._check_normalized
    monkeypatch.setattr(gates, "_check_normalized", lambda amps: calls.append(1) or check(amps))
    out = run_network(start, full_network(CopyVariant.DUPLICATOR))
    assert len(calls) == 1
    assert abs(out.amplitudes[0b000] - math.sqrt(2.0 / 3.0)) < 1e-12


def test_stacked_gate_kernel_matches_each_row(rng):
    from qcopynet.gates import _apply_gate

    stack = np.array([random_pure(rng, 3) for _ in range(7)])
    angles = rng.uniform(-math.pi, math.pi, size=len(stack))
    gates = [Rotation(q, 0.37) for q in range(3)] + [CNOT(c, t) for c in range(3) for t in range(3) if c != t]
    for gate in gates:
        rows = np.array([_apply_gate(row, 3, gate) for row in stack])
        assert np.array_equal(_apply_gate(stack, 3, gate), rows)
    for q in range(3):
        rows = np.array([_apply_gate(row, 3, Rotation(q, float(theta))) for row, theta in zip(stack, angles)])
        assert np.array_equal(_apply_gate(stack, 3, Rotation(q, angles)), rows)


def test_property_checks_validate_stacks_not_states(monkeypatch):
    from qcopynet import gates, verify

    calls = []
    check = gates._check_normalized

    def counted(amps):
        calls.append(1)
        check(amps)

    # every norm check counts: PureState validations and the checks verify makes on whole stacks
    monkeypatch.setattr(gates, "_check_normalized", counted)
    monkeypatch.setattr(verify, "_check_normalized", counted, raising=False)
    checks = verify.run_verification(["properties"])
    assert all(c.passed for c in checks)
    assert len(calls) <= 20


def test_network_concatenation_associative(rng):
    psi = PureState(random_pure(rng, 3))
    a = (Rotation(0, 0.4), CNOT(0, 1))
    b = (CNOT(1, 2), Rotation(2, -0.7))
    stepwise = run_network(run_network(psi, a), b)
    merged = run_network(psi, a + b)
    assert np.array_equal(stepwise.amplitudes, merged.amplitudes)


def test_disjoint_gates_commute(rng):
    for _ in range(50):
        psi = PureState(random_pure(rng, 3))
        solo = int(rng.integers(3))
        others = [q for q in range(3) if q != solo]
        gates = [Rotation(solo, float(rng.uniform(-math.pi, math.pi))), CNOT(others[0], others[1])]
        forward = run_network(psi, gates)
        backward = run_network(psi, list(reversed(gates)))
        assert np.max(np.abs(forward.amplitudes - backward.amplitudes)) < 1e-15


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_random_networks_preserve_norm(seed, num_qubits):
    rng = np.random.default_rng(seed)
    psi = PureState(random_pure(rng, num_qubits))
    for _ in range(20):
        if num_qubits > 1 and rng.random() < 0.5:
            control, target = rng.choice(num_qubits, size=2, replace=False)
            psi = run_network(psi, [CNOT(int(control), int(target))])
        else:
            psi = run_network(psi, [Rotation(int(rng.integers(num_qubits)), float(rng.uniform(-7, 7)))])
    assert abs(float(np.sum(np.abs(psi.amplitudes) ** 2)) - 1.0) < 1e-12


def rotation_matrix(num_qubits: int, target: int, theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.kron(np.kron(np.eye(1 << target), [[c, -s], [s, c]]), np.eye(1 << (num_qubits - 1 - target)))


def gate_matrix(gate, num_qubits: int, batch: tuple) -> np.ndarray:
    """The gate's 2**n x 2**n matrix, built apart from the kernel; batch + (2**n, 2**n) for per-state angles."""
    dim = 1 << num_qubits
    if isinstance(gate, CNOT):
        bit = lambda q: 1 << (num_qubits - 1 - q)  # qubit q is bit n - 1 - q of the basis index
        index = np.arange(dim)
        matrix = np.zeros((dim, dim))
        matrix[np.where(index & bit(gate.control), index ^ bit(gate.target), index), index] = 1.0
        return matrix
    if not np.ndim(gate.theta):
        return rotation_matrix(num_qubits, gate.target, gate.theta)
    matrices = [rotation_matrix(num_qubits, gate.target, theta) for theta in np.ravel(gate.theta).tolist()]
    return np.array(matrices).reshape(batch + (dim, dim))


def draw_gate(data, rng, num_qubits: int, batch: tuple):
    """A CNOT on any ordered pair, or a rotation on any qubit by a scalar angle or one angle per state."""
    if num_qubits > 1 and data.draw(st.booleans()):
        return CNOT(*data.draw(st.permutations(range(num_qubits)))[:2])
    target = data.draw(st.integers(0, num_qubits - 1))
    return Rotation(target, rng.uniform(-7.0, 7.0, size=batch if data.draw(st.booleans()) else None))


@given(st.data())
@settings(max_examples=50, derandomize=True, deadline=None)
def test_gate_kernel_matches_dense_matrices(data):
    from qcopynet.gates import _apply_gate, _run

    num_qubits = data.draw(st.integers(1, 3))
    batch = data.draw(st.sampled_from([(0,), (1,), (5,), (2, 3)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=batch + (1 << num_qubits,)) + 1j * rng.normal(size=batch + (1 << num_qubits,))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    apply = lambda matrix: (matrix @ amps[..., None])[..., 0]

    gate = draw_gate(data, rng, num_qubits, batch)
    out, expected = _apply_gate(amps, num_qubits, gate), apply(gate_matrix(gate, num_qubits, batch))
    assert out.shape == expected.shape == amps.shape
    if isinstance(gate, CNOT):
        assert np.array_equal(out, expected)
    else:
        assert np.abs(out - expected).max(initial=0.0) <= 1e-15

    net = [draw_gate(data, rng, num_qubits, batch) for _ in range(data.draw(st.integers(0, 6)))]
    product = np.eye(1 << num_qubits)
    for gate in net:
        product = gate_matrix(gate, num_qubits, batch) @ product
    assert np.abs(_run(amps, net) - apply(product)).max(initial=0.0) <= 1e-14


# ------------------------------------------------------------- purestate

def test_purestate_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        PureState(np.array([1.0, 1.0]))
    # NORM_TOL = 1e-12 on the sum of squares: 10% inside passes, 10% outside raises
    PureState(np.array([math.sqrt(1.0 + 0.9e-12), 0.0]))
    with pytest.raises(ValueError, match="normalized"):
        PureState(np.array([math.sqrt(1.0 + 1.1e-12), 0.0]))


def test_purestate_rejects_bad_sizes():
    with pytest.raises(ValueError, match="unsupported dimension"):
        PureState(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="unsupported dimension"):
        PureState(np.zeros(16, dtype=complex))
    with pytest.raises(ValueError, match="^expected one state"):
        PureState(np.eye(2))


@pytest.mark.parametrize(
    "args,message",
    [
        ((1.5,), "num_qubits must be an integer, got 1.5"),
        ((True,), "num_qubits must be an integer, got True"),
        ((2, 1.0), "basis index must be an integer, got 1.0"),
        ((2, np.True_), "basis index must be an integer, got "),
        ((2, 4), "basis index 4 out of range for 2 qubits"),
        ((4,), "num_qubits must be 1..3"),
    ],
)
def test_computational_rejects_a_bool_or_non_integer_argument(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        PureState.computational(*args)


def test_computational_takes_numpy_integers():
    assert PureState.computational(np.int64(2), np.int64(3)).amplitudes.tolist() == [0, 0, 0, 1]


def test_purestate_amplitudes_read_only():
    psi = PureState.computational(2, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


# -------------------------------------------------------------- text form

def test_parse_network_round_trip():
    text = "R 0 0.39269908169872414\nCNOT 0 1\nR 1 -0.16991845472706082\n"
    net = parse_network(text)
    assert net == (
        Rotation(0, 0.39269908169872414),
        CNOT(0, 1),
        Rotation(1, -0.16991845472706082),
    )


def test_parse_network_skips_blanks_and_comments():
    net = parse_network("# prep\n\nR 0 0.5  # eighth-ish turn\nCNOT 1 0\n")
    assert len(net) == 2


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("R 0\n", 1),
        ("CNOT 0 1 2\n", 1),
        ("R 0 0.1\nH 0\n", 2),
        ("R 0 abc\n", 1),
        ("CNOT 1 1\n", 1),
    ],
)
def test_parse_network_errors_carry_line_numbers(text, lineno):
    with pytest.raises(NetworkParseError) as excinfo:
        parse_network(text)
    assert excinfo.value.lineno == lineno
    assert f"line {lineno}" in str(excinfo.value)


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_parse_network_rejects_non_finite_angles(angle):
    with pytest.raises(NetworkParseError, match="not finite") as excinfo:
        parse_network(f"CNOT 0 1\nR 1 {angle}\n")
    assert excinfo.value.lineno == 2


def test_max_qubit():
    assert max_qubit(()) == -1
    assert max_qubit(parse_network("R 1 0.2\nCNOT 0 2\n")) == 2
