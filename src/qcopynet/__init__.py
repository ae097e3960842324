"""Exact few-qubit simulation of quantum copying gate networks.

The package builds and runs the duplicator and triplicator circuits,
reduces and analyzes their outputs (fidelity splits, scaling fits,
Hilbert-Schmidt distances), and tests the copies' entanglement through
the positivity of partial transposes.
"""

from .copier import (
    CopyGrid,
    CopyReport,
    CopyVariant,
    InputQubit,
    PreparationAngles,
    amplitudes_from_angles,
    copy_stage_network,
    evaluate_grid,
    full_network,
    preparation_amplitudes,
    preparation_angles,
    preparation_network,
    run_copier,
    solve_preparation_angles,
)
from .gates import (
    CNOT,
    NetworkParseError,
    PureState,
    Rotation,
    parse_network,
    run_network,
)
from .linalg import (
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    validate_density,
)
from .separability import PptReport, ppt_verdict

__version__ = "0.1.0"

__all__ = [
    "CNOT",
    "CopyGrid",
    "CopyReport",
    "CopyVariant",
    "InputQubit",
    "NetworkParseError",
    "PptReport",
    "PreparationAngles",
    "PureState",
    "Rotation",
    "amplitudes_from_angles",
    "copy_stage_network",
    "evaluate_grid",
    "full_network",
    "hermitian_eigenvalues",
    "parse_network",
    "partial_trace",
    "partial_transpose",
    "ppt_verdict",
    "preparation_amplitudes",
    "preparation_angles",
    "preparation_network",
    "run_copier",
    "run_network",
    "solve_preparation_angles",
    "validate_density",
    "__version__",
]
