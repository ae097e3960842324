"""The batched copier kernel against per-point references."""

import math

import numpy as np
import pytest

from qcopynet import linalg
from qcopynet.copier import (
    METRICS,
    PAIR_QUBITS,
    QUBIT_LABELS,
    CopyVariant,
    InputQubit,
    evaluate_grid,
    full_network,
    run_copier,
)
from qcopynet.gates import PureState, density_of, run_network
from qcopynet.report import GridSpec, SweepSpec, sweep_rows
from qcopynet.separability import ppt_spectrum

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
    grid = evaluate_grid(variant, thetas, phis, ())
    assert grid.states.shape == (35, 8)
    for i, (theta, phi) in enumerate(zip(grid.theta, grid.phi)):
        assert np.max(np.abs(grid.states[i] - network_output(theta, phi, variant))) <= 1e-15


def test_grid_is_theta_major():
    grid = evaluate_grid(CopyVariant.DUPLICATOR, [0.1, 0.2], [1.0, 2.0, 3.0], ())
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
    rho = density_of(PureState(network_output(theta, phi, variant)))
    psi = qubit.state().amplitudes
    ideal1 = np.outer(psi, psi.conj())
    ideal = [ideal1, np.kron(ideal1, ideal1), np.kron(np.kron(ideal1, ideal1), ideal1)]
    row = {
        f"d1_{label}": linalg.hs_distance(linalg.partial_trace(rho, (q,)), ideal[0])
        for q, label in enumerate(QUBIT_LABELS)
    }
    pairs = {label: linalg.partial_trace(rho, qubits) for label, qubits in PAIR_QUBITS.items()}
    row.update({f"d2_{label}": linalg.hs_distance(m, ideal[1]) for label, m in pairs.items()})
    row["d3"] = linalg.hs_distance(rho, ideal[2]) if variant is CopyVariant.TRIPLICATOR else None
    copy = linalg.partial_trace(rho, (1,))
    direction = ideal[0] - np.eye(2) / 2.0
    s = np.trace((copy - np.eye(2) / 2.0) @ direction).real / np.trace(direction @ direction).real
    fitted = s * ideal[0] + (1.0 - s) / 2.0 * np.eye(2)
    row["s_a2"] = s if linalg.hs_distance(copy, fitted) <= 1e-10 else None
    row["fid_a2"] = float((psi.conj() @ copy @ psi).real)
    row["E_a2a3"] = float(np.linalg.eigvalsh(linalg.partial_transpose(pairs["a2a3"]))[0])
    return row


@pytest.mark.parametrize("variant", VARIANTS)
def test_sweep_rows_match_per_point_reference(variant):
    spec = SweepSpec(variant, GridSpec(0.0, math.pi / 2.0, 6), GridSpec(0.1, 2.0 * math.pi, 9))
    rows = sweep_rows(spec)
    assert len(rows) == 54
    for row in rows:
        want = reference_row(row["theta"], row["phi"], variant)
        for column, value in want.items():
            if value is None:
                assert row[column] is None, column
            else:
                assert abs(row[column] - value) <= SWEEP_BOUND, column


def test_deselected_metrics_stay_none():
    grid = evaluate_grid(CopyVariant.TRIPLICATOR, [0.3], [0.4], {"d2"})
    assert grid.d2 is not None
    assert grid.d1 is None and grid.d3 is None and grid.scaling is None
    assert grid.fidelity is None and grid.ppt_spectrum is None
    full = evaluate_grid(CopyVariant.TRIPLICATOR, [0.3], [0.4], METRICS)
    assert all(x is not None for x in (full.d1, full.d2, full.d3, full.scaling, full.fidelity, full.ppt_spectrum))


@pytest.mark.parametrize("variant", VARIANTS)
def test_kernel_spectrum_is_the_separability_routine(variant):
    grid = evaluate_grid(variant, np.linspace(0.0, math.pi / 2.0, 5), np.linspace(0.0, math.pi, 4), {"E"})
    assert np.array_equal(grid.ppt_spectrum, ppt_spectrum(grid.pair_reductions["a2a3"]))


def test_kernel_rejects_unknown_metric_and_non_finite_angles():
    with pytest.raises(ValueError, match="unknown metrics"):
        evaluate_grid(CopyVariant.DUPLICATOR, [0.1], [0.2], {"d4"})
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
