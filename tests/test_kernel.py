"""The batched copier kernel against per-point references."""

import math

import numpy as np
import pytest

from qcopynet import linalg, verify
from qcopynet.copier import (
    PAIR_LABELS,
    QUBIT_LABELS,
    SCALING_RESIDUAL_TOL,
    CopyVariant,
    InputQubit,
    _PAULI,
    _PAULI_BASES,
    _transfer,
    evaluate_grid,
    full_network,
    run_copier,
)
from qcopynet.gates import PureState, run_network
from qcopynet.report import GridSpec, SweepSpec, sweep_rows
from qcopynet.separability import ppt_spectrum

from conftest import hs_distance, kron

# register qubits of each output pair, keyed as in CopyReport
PAIR_QUBITS = {"a2a3": (1, 2), "a1a2": (0, 1), "a1a3": (0, 2)}
VARIANTS = (CopyVariant.DUPLICATOR, CopyVariant.TRIPLICATOR)
# Batched and per-point arithmetic round differently; no sweep cell (all of
# magnitude <= 2) may move by more than this.
SWEEP_BOUND = 2e-15


def network_output(theta: float, phi: float, variant: CopyVariant) -> np.ndarray:
    qubit = InputQubit(theta, phi)
    init = np.zeros(8, dtype=complex)
    init[0b000] = qubit.alpha
    init[0b100] = qubit.beta
    return run_network(PureState(init), full_network(variant)).amplitudes


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_amplitudes_match_network_run(variant, rng):
    thetas = rng.uniform(0.0, math.pi / 2.0, size=7)
    phis = rng.uniform(0.0, 2.0 * math.pi, size=5)
    grid = evaluate_grid(variant, thetas, phis)
    assert grid.states.shape == (35, 8)
    for i, (theta, phi) in enumerate(zip(grid.theta, grid.phi)):
        assert np.max(np.abs(grid.states[i] - network_output(theta, phi, variant))) <= 1e-15


def test_grid_is_theta_major():
    grid = evaluate_grid(CopyVariant.DUPLICATOR, [0.1, 0.2], [1.0, 2.0, 3.0])
    assert grid.theta.tolist() == [0.1, 0.1, 0.1, 0.2, 0.2, 0.2]
    assert grid.phi.tolist() == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("variant", VARIANTS)
def test_single_point_grid_equals_run_copier(variant):
    qubit = InputQubit(0.7, 2.3)
    grid = evaluate_grid(variant, [qubit.theta], [qubit.phi])
    report = run_copier(qubit, variant)
    assert report.variant is variant and report.input == qubit
    assert np.array_equal(report.output_state.amplitudes, grid.states[0])
    for label, m in grid.qubit_reductions.items():
        assert np.array_equal(report.qubit_reductions[label], m[0])
        assert report.d1[label] == grid.d1[label][0]
        assert report.fidelity[label] == tuple(grid.fidelity[label][0])
        s = grid.scaling[label][0]
        assert report.scaling[label] == (None if math.isnan(s) else s)
    for label, m in grid.pair_reductions.items():
        assert np.array_equal(report.pair_reductions[label], m[0])
        assert report.d2[label] == grid.d2[label][0]
    if variant is CopyVariant.TRIPLICATOR:
        assert report.d3 == grid.d3[0]
    else:
        assert report.d3 is None and grid.d3 is None


def reference_row(theta: float, phi: float, variant: CopyVariant) -> dict:
    """One sweep row from a per-point network run, partial traces and eigvalsh."""
    qubit = InputQubit(theta, phi)
    amps = network_output(theta, phi, variant)
    rho = np.outer(amps, amps.conj())
    psi = np.array([qubit.alpha, qubit.beta])
    ideal1 = np.outer(psi, psi.conj())
    ideal = [ideal1, np.kron(ideal1, ideal1), np.kron(np.kron(ideal1, ideal1), ideal1)]
    row = {
        f"d1_{label}": hs_distance(linalg.partial_trace(rho, (q,)), ideal[0])
        for q, label in enumerate(QUBIT_LABELS)
    }
    pairs = {label: linalg.partial_trace(rho, qubits) for label, qubits in PAIR_QUBITS.items()}
    row.update({f"d2_{label}": hs_distance(m, ideal[1]) for label, m in pairs.items()})
    row["d3"] = hs_distance(rho, ideal[2]) if variant is CopyVariant.TRIPLICATOR else None
    copy = linalg.partial_trace(rho, (1,))
    direction = ideal[0] - np.eye(2) / 2.0
    s = np.trace((copy - np.eye(2) / 2.0) @ direction).real / np.trace(direction @ direction).real
    fitted = s * ideal[0] + (1.0 - s) / 2.0 * np.eye(2)
    row["s_a2"] = s if hs_distance(copy, fitted) <= 1e-10 else None
    row["fid_a2"] = float((psi.conj() @ copy @ psi).real)
    row["E_a2a3"] = float(np.linalg.eigvalsh(linalg.partial_transpose(pairs["a2a3"]))[0])
    return row


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_reduction_is_the_partial_trace_on_its_register_qubits(variant, rng):
    # the kets' order matters: the duplicator's a1a2 and a1a3 are not symmetric under a swap
    readme = evaluate_grid(variant, np.linspace(0.0, math.pi / 2.0, 20), np.linspace(0.0, 2.0 * math.pi, 40))
    verify_grid = evaluate_grid(variant, verify._THETAS, verify._PHIS)
    points = rng.uniform((0.0, 0.0), (math.pi / 2.0, 2.0 * math.pi), size=(200, 2))
    qubits = {**{label: (q,) for q, label in enumerate(QUBIT_LABELS)}, **PAIR_QUBITS}
    for grids in ([readme], [verify_grid], [evaluate_grid(variant, [theta], [phi]) for theta, phi in points]):
        states = np.concatenate([grid.states for grid in grids])
        rho = states[:, :, None] * states.conj()[:, None, :]
        for label, keep in qubits.items():
            m = np.concatenate([{**grid.qubit_reductions, **grid.pair_reductions}[label] for grid in grids])
            # q = pR is real and the Pauli basis over d has entries 0, +-1/d, +-i/d, so every product with it is
            # exact and conjugate entries are summed alike: Hermitian bit for bit, with real diagonals
            assert np.array_equal(m, m.conj().swapaxes(-1, -2)), label
            assert np.all(np.diagonal(m, axis1=-2, axis2=-1).imag == 0.0), label
            assert np.max(np.abs(m - linalg.partial_trace(rho, keep))) <= 1e-15, label


@pytest.mark.parametrize("variant", VARIANTS)
def test_sweep_rows_match_per_point_reference(variant):
    spec = SweepSpec(variant, GridSpec(0.0, math.pi / 2.0, 6), GridSpec(0.1, 2.0 * math.pi, 9))
    table = sweep_rows(spec)
    assert len(table) == 54
    for record in table:
        want = reference_row(float(record["theta"]), float(record["phi"]), variant)
        for column, value in want.items():
            if value is None:  # no d3 field for the duplicator, and NaN where s_a2 has no scaled form
                assert column not in table.dtype.names or math.isnan(record[column]), column
            else:
                assert abs(record[column] - value) <= SWEEP_BOUND, column


def matrix_route(grid) -> dict:
    """Every label's d1, d2, fidelity and scaling from the output projector's partial traces, as ``reference_row``."""
    rho = grid.states[:, :, None] * grid.states.conj()[:, None, :]
    psi = np.stack([grid.alpha, grid.beta.astype(complex)], axis=1)
    perp = np.stack([psi[:, 1].conj(), -psi[:, 0].conj()], axis=1)
    ideal1 = psi[:, :, None] * psi.conj()[:, None, :]
    half = np.eye(2) / 2.0
    direction = ideal1 - half
    routes = {}
    for q, label in enumerate(QUBIT_LABELS):
        m = linalg.partial_trace(rho, (q,))
        s = np.einsum("nij,nji->n", m - half, direction).real / np.einsum("nij,nji->n", direction, direction).real
        fitted = s[:, None, None] * ideal1 + (1.0 - s)[:, None, None] * half
        routes["d1", label] = hs_distance(m, ideal1)
        routes["scaling", label] = np.where(hs_distance(m, fitted) <= SCALING_RESIDUAL_TOL, s, np.nan)
        routes["fidelity", label] = np.stack(
            [np.einsum("ni,nij,nj->n", v.conj(), m, v).real for v in (psi, perp)], axis=1
        )
    ideal2 = kron(ideal1, ideal1)
    for label, keep in PAIR_QUBITS.items():
        routes["d2", label] = hs_distance(linalg.partial_trace(rho, keep), ideal2)
    return routes


@pytest.mark.parametrize("variant", VARIANTS)
def test_closed_form_metrics_match_the_matrix_route(variant, rng):
    readme = (np.linspace(0.0, math.pi / 2.0, 20), np.linspace(0.0, 2.0 * math.pi, 40))
    for thetas, phis in (readme, rng.uniform(-7.0, 7.0, size=(2, 30))):
        grid = evaluate_grid(variant, thetas, phis)
        for (field, label), want in matrix_route(grid).items():
            got = getattr(grid, field)[label]
            assert got.shape == want.shape and np.array_equal(np.isnan(got), np.isnan(want)), (field, label)
            assert np.max(np.abs(got - want), initial=0.0, where=~np.isnan(want)) <= 2e-15, (field, label)


def pair_transfer(t, u, v) -> np.ndarray:
    """ROADMAP's pair table (1/4)[II + sum t_i s_i s_i + sum r_i (u_i s_i I + v_i I s_i)] as a (4, 16) map."""
    table = np.zeros((4, 16))
    table[0, 0] = 1.0
    for i in (1, 2, 3):
        table[0, 5 * i], table[i, 4 * i], table[i, i] = t[i - 1], u[i - 1], v[i - 1]
    return table


# The machines' Pauli transfer matrices, in the basis (I, X, Y, Z), as ROADMAP item 8 states them.
TRANSFERS = {
    CopyVariant.DUPLICATOR: {
        "a1": np.diag([1.0, 1.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0]),
        "a2": np.diag([1.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0]),
        "a3": np.diag([1.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0]),
        "a2a3": pair_transfer((1.0 / 3.0,) * 3, (2.0 / 3.0,) * 3, (2.0 / 3.0,) * 3),
        "a1a2": pair_transfer((2.0 / 3.0, -2.0 / 3.0, 2.0 / 3.0), (1.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0), (2.0 / 3.0,) * 3),
        "a1a3": pair_transfer((2.0 / 3.0, -2.0 / 3.0, 2.0 / 3.0), (1.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0), (2.0 / 3.0,) * 3),
    },
    CopyVariant.TRIPLICATOR: {
        **{label: np.diag([1.0, 2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0]) for label in QUBIT_LABELS},
        **{
            label: pair_transfer((2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0),
                                 (2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0))
            for label in PAIR_LABELS
        },
    },
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_transfer_matrices_are_the_stated_tables(variant, rng):
    for label, want in TRANSFERS[variant].items():
        got = _transfer(variant, label)
        assert got.dtype == np.float64 and not got.flags.writeable, label
        assert np.max(np.abs(got - want)) <= 1e-15, label
    # the coordinates the tables act on are Tr[rho sigma_mu], with sigma_y = [[0, -i], [i, 0]]
    grid = evaluate_grid(variant, rng.uniform(-7.0, 7.0, 9), rng.uniform(-7.0, 7.0, 11))
    psi = np.stack([grid.alpha, grid.beta.astype(complex)], axis=1)
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    assert np.max(np.abs(grid._pauli - np.einsum("nij,mji->mn", rho, _PAULI).real)) <= 1e-15


def test_pair_pauli_basis_is_the_kron_of_each_pauli_pair():
    # P_nu = sigma_a (x) sigma_b at nu = 4a + b, a on the first-listed qubit; np.kron signs some zeros otherwise
    want = np.array([np.kron(a, b) for a in _PAULI for b in _PAULI])
    assert np.array_equal(_PAULI_BASES[16], want)
    assert np.array_equal(_PAULI_BASES[4], _PAULI)
    assert not any(basis.flags.writeable for basis in _PAULI_BASES.values())


@pytest.mark.parametrize("variant", VARIANTS)
def test_metrics_build_no_reduction_matrix(variant):
    grid = evaluate_grid(variant, [0.0, 0.3, 1.1], [0.0, 0.4, 2.0])
    for name in ("d1", "d2", "d3", "scaling", "fidelity"):
        getattr(grid, name)
    assert grid._reductions == {}
    assert "qubit_reductions" not in vars(grid) and "pair_reductions" not in vars(grid)


LAZY_FIELDS = ("qubit_reductions", "pair_reductions", "d1", "d2", "d3", "scaling", "fidelity", "ppt_spectrum")


def same_field(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_field(a[key], b[key]) for key in a)
    return (a is None and b is None) or np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("variant", VARIANTS)
def test_grid_fields_are_computed_on_first_read_in_any_order(variant):
    thetas, phis = [0.0, 0.3, 1.1], [0.0, 0.4, 2.0]
    grid = evaluate_grid(variant, thetas, phis)
    grid.ppt_spectrum
    # E reads the a2a3 pair alone: no other reduction, single or pair, is built
    assert "qubit_reductions" not in vars(grid) and "pair_reductions" not in vars(grid)
    assert list(grid._reductions) == ["a2a3"]
    for name in LAZY_FIELDS:
        getattr(grid, name)
    reversed_read = evaluate_grid(variant, thetas, phis)
    for name in reversed(LAZY_FIELDS):
        getattr(reversed_read, name)
    for name in LAZY_FIELDS:
        assert same_field(getattr(grid, name), getattr(reversed_read, name)), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_kernel_spectrum_is_the_separability_routine(variant):
    grid = evaluate_grid(variant, np.linspace(0.0, math.pi / 2.0, 5), np.linspace(0.0, math.pi, 4))
    assert np.array_equal(grid.ppt_spectrum, ppt_spectrum(grid.pair_reductions["a2a3"]))


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_pair_reduction_passes_the_density_check(variant, rng):
    # why the kernel's E may skip ppt_spectrum's positivity eigensolve:
    # each pair is a Gram matrix of a checked state, so it is PSD
    grid = evaluate_grid(variant, rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 13), rng.uniform(0.0, 2.0 * math.pi, 17))
    for label, pairs in grid.pair_reductions.items():
        assert np.array_equal(linalg.validate_density(pairs), pairs), label
        assert np.min(np.linalg.eigvalsh(pairs)) >= -1e-15, label


def test_kernel_rejects_non_finite_angles():
    with pytest.raises(ValueError, match="finite"):
        evaluate_grid(CopyVariant.DUPLICATOR, [0.1, math.nan], [0.2])
    with pytest.raises(ValueError, match="finite"):
        evaluate_grid(CopyVariant.DUPLICATOR, [0.1], [math.inf])


def test_hermitian_eigenvalues_of_a_stack(rng):
    stack = np.array([linalg.partial_transpose(np.eye(4) / 4.0)] + [
        (m + m.conj().T) / 2.0 for m in rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    ])
    spectra = linalg.hermitian_eigenvalues(stack)
    assert spectra.shape == (6, 4)
    assert np.all(np.diff(spectra, axis=1) >= 0.0)
    for m, spectrum in zip(stack, spectra):
        assert np.max(np.abs(spectrum - linalg.hermitian_eigenvalues(m))) < 1e-14


def test_hermitian_eigenvalues_reject_one_non_hermitian_matrix_in_a_stack():
    stack = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.hermitian_eigenvalues(stack)
