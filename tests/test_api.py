"""The public API: every module's ``__all__``, pinned so that a name is added or removed only with this test."""

import importlib

import pytest

PUBLIC = {
    "qcopynet": [
        "CNOT", "CopyGrid", "CopyReport", "CopyVariant", "InputQubit", "NetworkParseError", "PptReport",
        "PreparationAngles", "PureState", "Rotation", "amplitudes_from_angles", "copy_stage_network", "evaluate_grid",
        "full_network", "hermitian_eigenvalues", "parse_network", "partial_trace", "partial_transpose", "ppt_verdict",
        "preparation_amplitudes", "preparation_angles", "preparation_network", "run_copier", "run_network",
        "solve_preparation_angles", "validate_density", "__version__",
    ],
    "qcopynet.copier": [
        "CopyVariant", "InputQubit", "PreparationAngles", "CopyReport", "CopyGrid", "QUBIT_LABELS", "PAIR_LABELS",
        "preparation_amplitudes", "preparation_angles", "amplitudes_from_angles", "solve_preparation_angles",
        "preparation_network", "copy_stage_network", "full_network", "run_copier", "evaluate_grid",
    ],
    "qcopynet.gates": [
        "MAX_QUBITS", "PureState", "Rotation", "CNOT", "Gate", "max_qubit", "run_network", "parse_network",
        "NetworkParseError",
    ],
    "qcopynet.linalg": [
        "MAX_DIM", "partial_trace", "partial_transpose", "hermitian_eigenvalues", "validate_density", "num_qubits_of",
    ],
    "qcopynet.report": [
        "CSV_COLUMNS", "METRICS", "MAX_GRID_POINTS", "SCHEMA_VERSION", "GridSpec", "SweepSpec", "sweep_rows",
        "sweep_document", "render_csv", "render_json",
    ],
    "qcopynet.separability": [
        "INSEPARABILITY_TOL", "PptReport", "ppt_spectrum", "ppt_verdict",
    ],
    "qcopynet.verify": [
        "VerifyCheck", "GROUP_ORDER", "run_verification", "render_human", "verification_document",
        "eigenvalues_by_bisection",
    ],
}


@pytest.mark.parametrize("name", PUBLIC)
def test_public_names_are_pinned_and_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__ == PUBLIC[name]
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
