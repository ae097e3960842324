"""Built-in verification suite: every closed-form law the simulator must reproduce.

Each check computes an observed worst-case deviation over a parameter grid
and compares it against a pinned tolerance.  The suite is deterministic:
grids are fixed and the randomized property checks run from fixed seeds.

The randomized property checks run on stacks: the gate kernel takes each
stack of states at once, one call per wiring, and the partial-transpose
and eigenvalue checks take stacks of matrices.  The eigenvalue cross-check
deliberately avoids the production eigensolver: it finds every eigenvalue
by inertia bisection (``eigenvalues_by_bisection``), so the two routes
share no code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .copier import (
    PAIR_LABELS,
    QUBIT_LABELS,
    CopyGrid,
    CopyVariant,
    _negativity_bound,
    amplitudes_from_angles,
    entanglement_distance_correlation,
    evaluate_grid,
    full_network,
    preparation_amplitudes,
    preparation_angles,
    preparation_network,
    solve_preparation_angles,
)
from .gates import CNOT, PureState, Rotation, _apply_gate, _check_normalized, run_network
from .report import _document_meta
from .separability import INSEPARABILITY_TOL, ppt_spectrum

__all__ = [
    "VerifyCheck",
    "GROUP_ORDER",
    "run_verification",
    "render_human",
    "verification_document",
    "eigenvalues_by_bisection",
]

_THETAS = np.linspace(0.0, math.pi / 2.0, 20)
_PHIS = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)

# Halvings of the bracket [-|H|_inf, |H|_inf]; 2**-64 of its width is below double precision.
_BISECTION_STEPS = 64

_SQRT5 = math.sqrt(5.0)
_SQRT17 = math.sqrt(17.0)
_DUP_PAIR_SPECTRUM = np.sort([(2.0 - _SQRT5) / 6.0, 1.0 / 6.0, 1.0 / 6.0, (2.0 + _SQRT5) / 6.0])
_TRIP_PAIR_SPECTRUM = np.sort(
    [-1.0 / 6.0, (5.0 - _SQRT17) / 12.0, 1.0 / 3.0, (5.0 + _SQRT17) / 12.0]
)


@dataclass(frozen=True)
class VerifyCheck:
    """One verified law: its target, the worst observed deviation, and the verdict."""

    check_id: str
    group: str
    description: str
    expected: str
    observed: str
    tolerance: float
    error: float
    passed: bool


def _check(check_id, description, expected, tolerance, error, observed=None):
    """A VerifyCheck whose group is the check-id prefix before the first dot."""
    return VerifyCheck(
        check_id=check_id,
        group=check_id.split(".", 1)[0],
        description=description,
        expected=expected,
        observed=observed if observed is not None else f"max deviation {error:.3e}",
        tolerance=tolerance,
        error=float(error),
        passed=float(error) <= tolerance,
    )


def _phase_weight(grid: CopyGrid) -> np.ndarray:
    return np.abs(grid.alpha) ** 2 * grid.beta**2 * np.sin(grid.phi) ** 2


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def _triplicator_single_expected(grid: CopyGrid) -> np.ndarray:
    a, b = grid.alpha, grid.beta.astype(complex)
    off_low = 3.0 * a * np.conj(b) + np.conj(a) * b
    descending = np.stack(
        [
            np.stack([4.0 * np.abs(b) ** 2 + 1.0, np.conj(off_low)], axis=-1),
            np.stack([off_low, 4.0 * np.abs(a) ** 2 + 1.0], axis=-1),
        ],
        axis=-2,
    ) / 6.0
    return descending[:, ::-1, ::-1]


def _triplicator_pair_expected_real(grid: CopyGrid) -> np.ndarray:
    a, b = grid.alpha.real, grid.beta
    ab = 4.0 * a * b
    one = np.ones_like(a)
    descending = np.stack(
        [
            np.stack([8.0 * b * b + 1.0, ab, ab, 3.0 * one], axis=-1),
            np.stack([ab, one, one, ab], axis=-1),
            np.stack([ab, one, one, ab], axis=-1),
            np.stack([3.0 * one, ab, ab, 8.0 * a * a + 1.0], axis=-1),
        ],
        axis=-2,
    ) / 12.0
    return descending[:, ::-1, ::-1]


def _triplicator_output_expected(grid: CopyGrid) -> np.ndarray:
    a, b = grid.alpha, grid.beta
    return np.stack([3.0 * a, b, b, a, b, a, a, 3.0 * b], axis=1) / math.sqrt(12.0)


class _Suite:
    """Shared grids for the check builders, each evaluated on first use."""

    @functools.cached_property
    def duplicator_grid(self) -> CopyGrid:
        return evaluate_grid(CopyVariant.DUPLICATOR, _THETAS, _PHIS)

    @functools.cached_property
    def triplicator_grid(self) -> CopyGrid:
        return evaluate_grid(CopyVariant.TRIPLICATOR, _THETAS, _PHIS)

    @functools.cached_property
    def triplicator_real_grid(self) -> CopyGrid:
        return evaluate_grid(CopyVariant.TRIPLICATOR, _THETAS, (0.0, math.pi))


def _prep_checks(suite: _Suite) -> list[VerifyCheck]:
    state = run_network(
        PureState.computational(2, 0),
        preparation_network(preparation_angles(CopyVariant.DUPLICATOR)),
    )
    target = preparation_amplitudes(CopyVariant.DUPLICATOR)
    err = float(np.max(np.abs(state.amplitudes - target)))
    return [
        _check(
            "prep.duplicator-state",
            "preparation stage on |00> yields (2|00> + |01> + |10>)/sqrt(6)",
            "amplitudes (2, 1, 1, 0)/sqrt(6)",
            1e-12,
            err,
        )
    ]


def _basis_checks(suite: _Suite) -> list[VerifyCheck]:
    net = full_network(CopyVariant.DUPLICATOR)
    expected0 = np.zeros(8, dtype=complex)
    expected0[0b000] = math.sqrt(2.0 / 3.0)
    expected0[0b101] = 1.0 / math.sqrt(6.0)
    expected0[0b110] = 1.0 / math.sqrt(6.0)
    expected1 = np.zeros(8, dtype=complex)
    expected1[0b111] = math.sqrt(2.0 / 3.0)
    expected1[0b001] = 1.0 / math.sqrt(6.0)
    expected1[0b010] = 1.0 / math.sqrt(6.0)
    err0 = float(np.max(np.abs(run_network(PureState.computational(3, 0b000), net).amplitudes - expected0)))
    err1 = float(np.max(np.abs(run_network(PureState.computational(3, 0b100), net).amplitudes - expected1)))
    return [
        _check(
            "basis.zero-input",
            "|0> input maps to sqrt(2/3)|000> + (|101> + |110>)/sqrt(6)",
            "pinned amplitude pattern",
            1e-12,
            err0,
        ),
        _check(
            "basis.one-input",
            "|1> input maps to sqrt(2/3)|111> + (|001> + |010>)/sqrt(6)",
            "pinned amplitude pattern",
            1e-12,
            err1,
        ),
    ]


def _fidelity_checks(suite: _Suite) -> list[VerifyCheck]:
    grid = suite.duplicator_grid
    weights = np.stack([grid.fidelity["a2"], grid.fidelity["a3"]])
    err_ideal = float(np.max(np.abs(weights[..., 0] - 5.0 / 6.0)))
    err_orth = float(np.max(np.abs(weights[..., 1] - 1.0 / 6.0)))
    err_equal = _max_dev(grid.qubit_reductions["a2"], grid.qubit_reductions["a3"])
    points = f"{grid.theta.size} grid points"
    return [
        _check(
            "fidelity.copies-identical",
            f"the two copies carry identical reduced states ({points})",
            "entrywise equality",
            1e-12,
            err_equal,
        ),
        _check(
            "fidelity.ideal-weight",
            f"each copy carries weight 5/6 on the input state ({points})",
            "5/6",
            1e-10,
            err_ideal,
        ),
        _check(
            "fidelity.orthogonal-weight",
            f"each copy carries weight 1/6 on the orthogonal state ({points})",
            "1/6",
            1e-10,
            err_orth,
        ),
    ]


def _scaling_checks(suite: _Suite) -> list[VerifyCheck]:
    grid = suite.duplicator_grid
    s = np.concatenate([grid.scaling["a2"], grid.scaling["a3"]])
    missing = int(np.count_nonzero(np.isnan(s)))
    err = math.inf if missing else float(np.max(np.abs(s - 2.0 / 3.0)))
    observed = f"max deviation {err:.3e}" if not missing else f"{missing} copies without a scaling fit"
    return [
        _check(
            "scaling.factor",
            "every copy fits s*ideal + (1-s)/2 * I with s = 2/3 (fit residual <= 1e-10)",
            "s = 2/3",
            1e-10,
            err,
            observed,
        )
    ]


def _distance_checks(suite: _Suite) -> list[VerifyCheck]:
    grid = suite.duplicator_grid
    err_d1 = max(_max_dev(grid.d1["a2"], 1.0 / 18.0), _max_dev(grid.d1["a3"], 1.0 / 18.0))
    err_d2 = _max_dev(grid.d2["a2a3"], 2.0 / 9.0)
    return [
        _check(
            "distance.single-copy",
            "single-copy distance to the ideal state is 1/18 for every input",
            "1/18",
            1e-10,
            err_d1,
        ),
        _check(
            "distance.copy-pair",
            "copy-pair distance to the ideal two-qubit state is 2/9 for every input",
            "2/9",
            1e-10,
            err_d2,
        ),
    ]


def _original_checks(suite: _Suite) -> list[VerifyCheck]:
    grid = suite.duplicator_grid
    psi = np.stack([grid.alpha, grid.beta], axis=1)
    rho_in = psi[:, :, None] * psi.conj()[:, None, :]
    err_law = _max_dev(grid.qubit_reductions["a1"], np.swapaxes(rho_in, 1, 2) / 3.0 + np.eye(2) / 3.0)
    err_d1 = _max_dev(grid.d1["a1"], (2.0 / 9.0) * (1.0 + 12.0 * _phase_weight(grid)))
    return [
        _check(
            "original.transpose-law",
            "the original qubit ends in transpose(rho_in)/3 + I/3",
            "entrywise match",
            1e-10,
            err_law,
        ),
        _check(
            "original.distance-formula",
            "d1(original) = (2/9)(1 + 12 |alpha|^2 |beta|^2 sin^2(phi))",
            "closed-form value per grid point",
            1e-10,
            err_d1,
        ),
    ]


def _ppt_checks(suite: _Suite) -> list[VerifyCheck]:
    grid = suite.duplicator_grid
    err_spec = _max_dev(grid.ppt_spectrum, _DUP_PAIR_SPECTRUM)
    not_inseparable = int(np.count_nonzero(grid.ppt_spectrum[:, 0] >= -INSEPARABILITY_TOL))
    total = grid.theta.size
    return [
        _check(
            "ppt.duplicator-spectrum",
            "partial-transpose spectrum is {(2-sqrt(5))/6, 1/6, 1/6, (2+sqrt(5))/6} for every input",
            "input-independent spectrum",
            1e-10,
            err_spec,
        ),
        _check(
            "ppt.duplicator-verdict",
            "the copy pair is inseparable for every input",
            f"{total}/{total} grid points inseparable",
            0.5,
            0.0 if not_inseparable == 0 else math.inf,
            f"{total - not_inseparable}/{total} grid points inseparable",
        ),
    ]


def _trip_prep_checks(suite: _Suite) -> list[VerifyCheck]:
    state = run_network(
        PureState.computational(2, 0),
        preparation_network(preparation_angles(CopyVariant.TRIPLICATOR)),
    )
    target = preparation_amplitudes(CopyVariant.TRIPLICATOR)
    err_prep = float(np.max(np.abs(state.amplitudes - target)))

    spots = evaluate_grid(CopyVariant.TRIPLICATOR, (0.0, math.pi / 8.0, math.pi / 4.0), (0.0, math.pi / 2.0), ())
    err_out = _max_dev(spots.states, _triplicator_output_expected(spots))
    return [
        _check(
            "trip-prep.blank-state",
            "preparation stage on |00> yields (3|00> + |01> + |10> + |11>)/sqrt(12)",
            "amplitudes (3, 1, 1, 1)/sqrt(12)",
            1e-12,
            err_prep,
        ),
        _check(
            "trip-prep.output-pattern",
            "triplicator output is (3a|000> + a(|011>+|101>+|110>) + 3b|111> + b(|001>+|010>+|100>))/sqrt(12)",
            "coefficient pattern at spot-check inputs",
            1e-12,
            err_out,
        ),
    ]


def _trip_real_checks(suite: _Suite) -> list[VerifyCheck]:
    grid = suite.triplicator_real_grid
    singles, pairs = grid.qubit_reductions, grid.pair_reductions
    err_equal = max(_max_dev(singles["a1"], singles[label]) for label in ("a2", "a3"))
    s = np.concatenate([grid.scaling[label] for label in QUBIT_LABELS])
    err_s = math.inf if np.any(np.isnan(s)) else _max_dev(s, 2.0 / 3.0)
    err_d1 = max(_max_dev(grid.d1[label], 1.0 / 18.0) for label in QUBIT_LABELS)
    expected_pair = _triplicator_pair_expected_real(grid)
    err_pair = max(_max_dev(pairs[label], expected_pair) for label in PAIR_LABELS)
    err_d2 = max(_max_dev(grid.d2[label], 2.0 / 9.0) for label in PAIR_LABELS)
    err_spec = _max_dev(ppt_spectrum(np.stack([pairs[label] for label in PAIR_LABELS])), _TRIP_PAIR_SPECTRUM)
    err_d3 = _max_dev(grid.d3, 0.5)
    return [
        _check(
            "trip-real.equal-reductions",
            "all three output qubits carry the same reduced state",
            "entrywise equality",
            1e-12,
            err_equal,
        ),
        _check(
            "trip-real.scaling",
            "every output qubit fits the scaled form with s = 2/3",
            "s = 2/3",
            1e-10,
            err_s,
        ),
        _check(
            "trip-real.pair-matrix",
            "every pair reduction matches the closed-form matrix (descending-basis pattern)",
            "closed-form pair matrix",
            1e-10,
            err_pair,
        ),
        _check(
            "trip-real.d1",
            "single-copy distance is 1/18",
            "1/18",
            1e-10,
            err_d1,
        ),
        _check(
            "trip-real.d2",
            "pair distance is 2/9",
            "2/9",
            1e-10,
            err_d2,
        ),
        _check(
            "trip-real.d3",
            "three-qubit distance is 1/2",
            "1/2",
            1e-10,
            err_d3,
        ),
        _check(
            "trip-real.pair-spectrum",
            "pair partial-transpose spectrum is {-1/6, (5-sqrt(17))/12, 1/3, (5+sqrt(17))/12}",
            "input-independent spectrum",
            1e-10,
            err_spec,
        ),
    ]


def _trip_complex_checks(suite: _Suite) -> list[VerifyCheck]:
    grid = suite.triplicator_grid
    weight = _phase_weight(grid)
    expected_single = _triplicator_single_expected(grid)
    err_single = max(_max_dev(grid.qubit_reductions[label], expected_single) for label in QUBIT_LABELS)
    err_d1 = max(_max_dev(grid.d1[label], (1.0 + 12.0 * weight) / 18.0) for label in QUBIT_LABELS)
    err_d2 = max(_max_dev(grid.d2[label], (2.0 / 9.0) * (1.0 + 12.0 * weight)) for label in PAIR_LABELS)
    err_d3 = _max_dev(grid.d3, 0.5 * (1.0 + 12.0 * weight))
    wrongly_scaled = int(np.count_nonzero((weight > 1e-6) & ~np.isnan(grid.scaling["a2"])))
    return [
        _check(
            "trip-complex.single-matrix",
            "output qubits match the closed-form single-qubit matrix",
            "closed-form matrix per grid point",
            1e-10,
            err_single,
        ),
        _check(
            "trip-complex.d1",
            "d1 = (1/18)(1 + 12 |alpha|^2 |beta|^2 sin^2(phi))",
            "closed-form value per grid point",
            1e-10,
            err_d1,
        ),
        _check(
            "trip-complex.d2",
            "d2 = (2/9)(1 + 12 |alpha|^2 |beta|^2 sin^2(phi))",
            "closed-form value per grid point",
            1e-10,
            err_d2,
        ),
        _check(
            "trip-complex.d3",
            "d3 = (1/2)(1 + 12 |alpha|^2 |beta|^2 sin^2(phi))",
            "closed-form value per grid point",
            1e-10,
            err_d3,
        ),
        _check(
            "trip-complex.no-scaled-form",
            "no scaling fit exists whenever |alpha|^2 |beta|^2 sin^2(phi) > 1e-6",
            "scaling absent on all such grid points",
            0.5,
            0.0 if wrongly_scaled == 0 else math.inf,
            "scaling absent on all such grid points"
            if wrongly_scaled == 0
            else f"{wrongly_scaled} grid points wrongly admit a scaling fit",
        ),
    ]


def _bound_checks(suite: _Suite) -> list[VerifyCheck]:
    thetas = np.linspace(0.0, math.pi / 2.0, 50)
    quarter = evaluate_grid(CopyVariant.TRIPLICATOR, thetas, (math.pi / 2.0,), {"E"})
    bound = _negativity_bound(quarter)
    e = quarter.ppt_spectrum[:, 0]
    excess = float(np.max(e - bound))
    gap_small = abs(float(bound[0] - e[0]))  # theta = 0, where |alpha| = 0

    table = entanglement_distance_correlation(
        np.linspace(0.0, math.pi / 2.0, 10), [0.0, math.pi / 2.0, math.pi]
    )
    minimal = table.minimum_at_quarter_phase
    return [
        _check(
            "bound.inequality",
            "E <= -(1 + 4(sqrt(5)-2)|alpha|^2 |beta|^2)/6 over 50 inputs at quarter phase",
            "E - bound <= 0",
            1e-9,
            excess,
            f"max E - bound = {excess:.3e}",
        ),
        _check(
            "bound.tight-at-zero",
            "the bound is attained as |alpha| -> 0",
            "gap 0 at alpha = 0",
            1e-9,
            gap_small,
        ),
        _check(
            "bound.real-phase-eigenvalue",
            "E = -1/6 at phi in {0, pi} independent of the input amplitude",
            "-1/6",
            1e-10,
            table.real_phase_deviation if table.real_phase_deviation is not None else math.inf,
        ),
        _check(
            "bound.minimum-at-quarter-phase",
            "for fixed amplitude, E is lowest at phi = pi/2",
            "minimum at quarter phase for every amplitude",
            0.5,
            0.0 if minimal else math.inf,
            "confirmed" if minimal else "violated",
        ),
    ]


def _angles_checks(suite: _Suite) -> list[VerifyCheck]:
    checks = []
    for variant in (CopyVariant.DUPLICATOR, CopyVariant.TRIPLICATOR):
        target = preparation_amplitudes(variant)
        closed = preparation_angles(variant).as_array()
        solved = solve_preparation_angles(target)
        err_angles = float(np.max(np.abs(solved.as_array() - closed)))
        err_residual = float(np.max(np.abs(amplitudes_from_angles(solved) - target)))
        checks.append(
            _check(
                f"angles.{variant.value}-recovery",
                f"solver recovers the closed-form {variant.value} angles",
                "(pi/8, -+asin(sqrt(1/2 - sqrt(2)/3)), pi/8)",
                1e-9,
                max(err_angles, err_residual),
                f"angle deviation {err_angles:.3e}, residual {err_residual:.3e}",
            )
        )

    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(100):
        c = rng.normal(size=4)
        c /= np.linalg.norm(c)
        solved = solve_preparation_angles(c)
        worst = max(worst, float(np.max(np.abs(amplitudes_from_angles(solved) - c))))
    checks.append(
        _check(
            "angles.random-targets",
            "solver reproduces 100 random normalized amplitude targets",
            "residual <= 1e-10 on every solve",
            1e-10,
            worst,
            f"100/100 solved, worst residual {worst:.3e}",
        )
    )
    return checks


def _random_amplitudes(rng, num_qubits: int) -> np.ndarray:
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def _random_density(rng, num_qubits: int) -> np.ndarray:
    dim = 1 << num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.uniform(0.2, 1.0, size=3)
    weights /= weights.sum()
    for w in weights:
        amps = _random_amplitudes(rng, num_qubits)
        rho += w * np.outer(amps, amps.conj())
    return rho


def _random_hermitian(rng, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def _property_checks(suite: _Suite) -> list[VerifyCheck]:
    rng = np.random.default_rng(1234)

    states, pairs, qubits, thetas = [], [], [], []
    for _ in range(100):
        states.append(_random_amplitudes(rng, 3))
        pairs.append(tuple(int(q) for q in rng.choice(3, size=2, replace=False)))
        thetas.append(rng.uniform(-math.pi, math.pi))
        qubits.append(int(rng.integers(3)))
    states, qubits, thetas = np.array(states), np.array(qubits), np.array(thetas)
    twice, back = np.empty_like(states), np.empty_like(states)
    for pair in set(pairs):
        rows = np.array([p == pair for p in pairs])
        twice[rows] = _apply_gate(_apply_gate(states[rows], 3, CNOT(*pair)), 3, CNOT(*pair))
    for qubit in range(3):
        rows = qubits == qubit
        turned = _apply_gate(states[rows], 3, Rotation(qubit, thetas[rows]))
        back[rows] = _apply_gate(turned, 3, Rotation(qubit, -thetas[rows]))
    _check_normalized(np.stack([twice, back]))
    err_involution = max(_max_dev(twice, states), _max_dev(back, states))

    states, solos, thetas = [], [], []
    for _ in range(100):
        states.append(_random_amplitudes(rng, 3))
        solos.append(int(rng.integers(3)))
        thetas.append(rng.uniform(-math.pi, math.pi))
    states, solos, thetas = np.array(states), np.array(solos), np.array(thetas)
    forward, backward = np.empty_like(states), np.empty_like(states)
    for solo in range(3):
        rows = solos == solo
        rotation, cnot = Rotation(solo, thetas[rows]), CNOT(*(q for q in range(3) if q != solo))
        forward[rows] = _apply_gate(_apply_gate(states[rows], 3, rotation), 3, cnot)
        backward[rows] = _apply_gate(_apply_gate(states[rows], 3, cnot), 3, rotation)
    _check_normalized(np.stack([forward, backward]))
    err_commute = _max_dev(forward, backward)

    rhos = np.array([_random_density(rng, 2) for _ in range(50)])
    transposed = [linalg.partial_transpose(rhos, subsystem) for subsystem in (0, 1)]
    err_pt_involution = max(
        _max_dev(linalg.partial_transpose(pt, subsystem), rhos) for subsystem, pt in enumerate(transposed)
    )
    spectra = linalg.hermitian_eigenvalues(np.stack(transposed))
    reduced = linalg.partial_trace(rhos, (0,))
    err_trace = max(
        _max_dev(np.sum(spectra, axis=-1), 1.0),
        _max_dev(np.trace(reduced, axis1=-2, axis2=-1), 1.0),
    )

    hermitians = np.array([_random_hermitian(rng, 4) for _ in range(100)])
    err_eig = _max_dev(linalg.hermitian_eigenvalues(hermitians), eigenvalues_by_bisection(hermitians))

    return [
        _check(
            "properties.gate-involution",
            "CNOT twice and rotation by +t then -t restore 100 random states",
            "identity",
            1e-12,
            err_involution,
        ),
        _check(
            "properties.gate-commutation",
            "gates on disjoint qubits commute on 100 random states",
            "order independence",
            1e-12,
            err_commute,
        ),
        _check(
            "properties.transpose-involution",
            "partial transpose applied twice restores random densities",
            "entrywise identity",
            1e-12,
            err_pt_involution,
        ),
        _check(
            "properties.trace-preservation",
            "partial-transpose spectra sum to 1; reductions keep unit trace",
            "unit trace",
            1e-10,
            err_trace,
        ),
        _check(
            "properties.eigenvalue-oracle",
            "LAPACK eigenvalues match inertia bisection on 100 random matrices",
            "route agreement",
            1e-9,
            err_eig,
        ),
    ]


# Every check group, in canonical order, with the builder of its checks.
_GROUPS = {
    "prep": _prep_checks,
    "basis": _basis_checks,
    "fidelity": _fidelity_checks,
    "scaling": _scaling_checks,
    "distance": _distance_checks,
    "original": _original_checks,
    "ppt": _ppt_checks,
    "trip-prep": _trip_prep_checks,
    "trip-real": _trip_real_checks,
    "trip-complex": _trip_complex_checks,
    "bound": _bound_checks,
    "angles": _angles_checks,
    "properties": _property_checks,
}

GROUP_ORDER = tuple(_GROUPS)


def run_verification(groups=None, tolerance: float | None = None) -> list[VerifyCheck]:
    """Run the selected check groups (all by default) in canonical order.

    ``tolerance`` overrides every check's pinned tolerance, which is mainly
    useful for demonstrating where the numerics saturate; it must be finite
    and non-negative.  Raises ValueError for an unknown group or a bad
    tolerance, before any check runs.
    """
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    if groups is not None:
        requested = list(groups)
        unknown = set(requested) - set(GROUP_ORDER)
        if unknown:
            raise ValueError(f"unknown check groups: {sorted(unknown)}")
        selected = [g for g in GROUP_ORDER if g in requested]
    else:
        selected = list(GROUP_ORDER)
    suite = _Suite()
    checks: list[VerifyCheck] = []
    for group in selected:
        checks.extend(_GROUPS[group](suite))
    if tolerance is not None:
        checks = [replace(c, tolerance=tolerance, passed=c.error <= tolerance) for c in checks]
    return checks


def render_human(checks) -> str:
    lines = []
    for check in checks:
        verdict = "PASS" if check.passed else "FAIL"
        lines.append(
            f"{verdict}  {check.check_id:<34} expected {check.expected}; "
            f"observed {check.observed} (tol {check.tolerance:g})"
        )
        lines.append(f"      {check.description}")
    passed = sum(1 for c in checks if c.passed)
    lines.append(f"{len(checks)} checks: {passed} passed, {len(checks) - passed} failed")
    return "\n".join(lines) + "\n"


def verification_document(checks, tolerance: float | None = None) -> dict:
    rows = [
        {
            "check_id": c.check_id,
            "group": c.group,
            "description": c.description,
            "expected": c.expected,
            "observed": c.observed,
            "tolerance": c.tolerance,
            "error": c.error if math.isfinite(c.error) else None,
            "passed": c.passed,
        }
        for c in checks
    ]
    passed = sum(1 for c in checks if c.passed)
    return {
        "meta": _document_meta(
            "verification",
            tolerance_override=tolerance,
            groups=sorted({c.group for c in checks}, key=GROUP_ORDER.index),
        ),
        "rows": rows,
        "summary": {"total": len(checks), "passed": passed, "failed": len(checks) - passed},
    }


def eigenvalues_by_bisection(h) -> np.ndarray:
    """Eigenvalue oracle for a Hermitian matrix or a stack (..., n, n): ascending spectra (..., n).

    Inertia bisection, the method of LAPACK ``dstebz`` (Demmel, *Applied
    Numerical Linear Algebra*, section 5.3).  Householder reflections first
    bring H to tridiagonal form T with the same spectrum.  By Sylvester's
    law of inertia the LDL^T factorization of T - xI has as many negative
    pivots as T has eigenvalues below x, so eigenvalue k is where that
    count steps from k to k + 1.  Every matrix and every index k is bisected
    at once inside [-|H|_inf, |H|_inf]; a pivot smaller than pivmin is
    replaced by -pivmin, as in ``dstebz``.  Unpivoted LDL^H of the dense
    H - xI is not used: a tiny leading pivot makes its count wrong.  No
    LAPACK routine and no code from ``linalg`` is involved, so the oracle
    cross-checks ``linalg.hermitian_eigenvalues`` independently.
    """
    a = np.array(h, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    hi = np.max(np.sum(np.abs(a), axis=-1), axis=-1, keepdims=True) + np.zeros(n)
    lo = -hi
    for k in range(n - 2):
        v = a[..., k + 1 :, k].copy()
        v[..., 0] += np.exp(1j * np.angle(v[..., 0])) * np.sqrt(np.sum(np.abs(v) ** 2, axis=-1))
        length = np.sqrt(np.sum(np.abs(v) ** 2, axis=-1, keepdims=True))
        w = np.zeros(a.shape[:-1], dtype=complex)
        w[..., k + 1 :] = v / np.where(length > 0.0, length, 1.0)
        # H <- (I - 2ww^H) H (I - 2ww^H) = H - wu^H - uw^H, with p = Hw and u = 2(p - (w^H p) w)
        p = np.sum(a * w[..., None, :], axis=-1)
        u = 2.0 * (p - np.sum(w.conj() * p, axis=-1, keepdims=True) * w)
        a = a - w[..., :, None] * u.conj()[..., None, :] - u[..., :, None] * w.conj()[..., None, :]
    d = np.diagonal(a, axis1=-2, axis2=-1).real
    e2 = np.abs(np.diagonal(a, offset=-1, axis1=-2, axis2=-1))[..., None] ** 2
    pivmin = np.finfo(float).tiny * np.maximum(1.0, np.max(e2, axis=-2, initial=0.0))
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        below = np.zeros(mid.shape, dtype=int)
        for i in range(n):
            pivot = d[..., i, None] - mid - (e2[..., i - 1, :] / pivot if i else 0.0)
            pivot = np.where(np.abs(pivot) < pivmin, -pivmin, pivot)
            below += pivot < 0.0
        lower = below > np.arange(n)
        hi = np.where(lower, mid, hi)
        lo = np.where(lower, lo, mid)
    return 0.5 * (lo + hi)
