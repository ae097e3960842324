"""Built-in verification suite: every closed-form law the simulator must reproduce.

Each check computes an observed worst-case deviation over a parameter grid
and compares it against a pinned tolerance.  The suite is deterministic:
grids are fixed and the randomized property checks run from fixed seeds.

The checks are one table, ``_LAWS``: a row per check holds its id,
description, expected text and pinned tolerance, in canonical verify order.
A check's group is its id prefix, and ``GROUP_ORDER`` is the order in which
the groups first appear there.  Each group's function computes only its
results, one per row of the group and in table order: a float error, shown
as ``max deviation``, or an ``(error, observed)`` pair for a check with its
own observed text.  ``run_verification`` pairs each group's rows with its
results, and a count mismatch raises, so no result can land on the wrong row.
A group function that raises fails its rows instead (error inf, the exception
as observed text).  The tolerance, pinned or overridden, is applied there too.
A new law is one table row plus its error in the group function.

Checks run on stacks, through the public pair the CLI's ``angles`` runs:
``solve_preparation_angles`` solves every target in one call, and the one
forward map, ``amplitudes_from_angles``, maps the angles back in one fold
of the gate kernel (``gates._run``), as for ``prep``.  Three shared copier
grids compute each metric when a check first reads it.  The randomized
property checks draw each random quantity once, as a stack: 100 states,
100 angles, the densities and the Hermitian matrices.  Every gate law runs
on every drawn state in that fold, for all six CNOT wirings and a rotation
of each qubit, and the partial-transpose and eigenvalue checks take stacks
of matrices.  The eigenvalue cross-check deliberately avoids the production
eigensolver: it finds every eigenvalue by inertia bisection
(``eigenvalues_by_bisection``), so the two routes share no code.

The expected reduced matrices come from each machine's transfer table in the
Pauli basis, stated once, and one builder, ``_stated_reductions``, that applies
a table to the Bloch vector of each grid point.  It computes that vector from
the amplitudes with its own Pauli matrices, not from the kernel's coordinates.

The random inputs come from a counter-based SplitMix64 stream
(``_uniforms``), one vectorised pass per seed: uniforms in [-1, 1) from
integer arithmetic and one exact multiply and add.  So the draws, and with
them every printed deviation, do not depend on the platform or the NumPy
version, and ``verify`` never imports ``numpy.random``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .copier import (
    PAIR_LABELS,
    QUBIT_LABELS,
    CopyGrid,
    CopyVariant,
    _basis_outputs,
    amplitudes_from_angles,
    evaluate_grid,
    preparation_amplitudes,
    preparation_angles,
    solve_preparation_angles,
)
from .gates import CNOT, Rotation, _check_normalized, _run
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
_GRID_SIZE = _THETAS.size * _PHIS.size

# Halvings of the bracket [-|H|_inf, |H|_inf]; 2**-64 of its width is below double precision.
_BISECTION_STEPS = 64
# The oracle's own Hermiticity tolerance, on max|H - H^H| over max(1, max|H|) per matrix; stated here so the
# oracle shares nothing with linalg.
_ORACLE_HERMITICITY_TOL = 1e-10

_SQRT5 = math.sqrt(5.0)
_SQRT17 = math.sqrt(17.0)
_DUP_PAIR_SPECTRUM = np.sort([(2.0 - _SQRT5) / 6.0, 1.0 / 6.0, 1.0 / 6.0, (2.0 + _SQRT5) / 6.0])
_TRIP_PAIR_SPECTRUM = np.sort(
    [-1.0 / 6.0, (5.0 - _SQRT17) / 12.0, 1.0 / 3.0, (5.0 + _SQRT17) / 12.0]
)

# Pauli X, Y, Z, stated here so the expected matrices share nothing with the kernel.
_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# Each machine's channel on an input with Bloch vector r, first-listed qubit high-order.  A qubit table a gives
# (1/2)[I + sum_k a_k r_k sigma_k]; a pair table (t, u, v) gives
# (1/4)[I(x)I + sum_k t_k sigma_k(x)sigma_k + sum_k r_k (u_k sigma_k(x)I + v_k I(x)sigma_k)].
_DUPLICATOR_ORIGINAL = (1.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0)  # transpose(rho)/3 + I/3
_TRIPLICATOR_QUBIT = (2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0)
_TRIPLICATOR_PAIR = ((2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0), _TRIPLICATOR_QUBIT, _TRIPLICATOR_QUBIT)

# Every check in canonical verify order: (check_id, description, expected, tolerance).
_LAWS = (
    ("prep.duplicator-state", "preparation stage on |00> yields (2|00> + |01> + |10>)/sqrt(6)",
     "amplitudes (2, 1, 1, 0)/sqrt(6)", 1e-12),
    ("basis.zero-input", "|0> input maps to sqrt(2/3)|000> + (|101> + |110>)/sqrt(6)",
     "pinned amplitude pattern", 1e-12),
    ("basis.one-input", "|1> input maps to sqrt(2/3)|111> + (|001> + |010>)/sqrt(6)",
     "pinned amplitude pattern", 1e-12),
    ("fidelity.copies-identical", f"the two copies carry identical reduced states ({_GRID_SIZE} grid points)",
     "entrywise equality", 1e-12),
    ("fidelity.ideal-weight", f"each copy carries weight 5/6 on the input state ({_GRID_SIZE} grid points)",
     "5/6", 1e-10),
    ("fidelity.orthogonal-weight", f"each copy carries weight 1/6 on the orthogonal state ({_GRID_SIZE} grid points)",
     "1/6", 1e-10),
    ("scaling.factor", "every copy fits s*ideal + (1-s)/2 * I with s = 2/3 (fit residual <= 1e-10)",
     "s = 2/3", 1e-10),
    ("distance.single-copy", "single-copy distance to the ideal state is 1/18 for every input",
     "1/18", 1e-10),
    ("distance.copy-pair", "copy-pair distance to the ideal two-qubit state is 2/9 for every input",
     "2/9", 1e-10),
    ("original.transpose-law", "the original qubit ends in transpose(rho_in)/3 + I/3",
     "entrywise match", 1e-10),
    ("original.distance-formula", "d1(original) = (2/9)(1 + 12 |alpha|^2 |beta|^2 sin^2(phi))",
     "closed-form value per grid point", 1e-10),
    ("ppt.duplicator-spectrum",
     "partial-transpose spectrum is {(2-sqrt(5))/6, 1/6, 1/6, (2+sqrt(5))/6} for every input",
     "input-independent spectrum", 1e-10),
    ("ppt.duplicator-verdict", "the copy pair is inseparable for every input",
     f"{_GRID_SIZE}/{_GRID_SIZE} grid points inseparable", 0.5),
    ("trip-prep.blank-state", "preparation stage on |00> yields (3|00> + |01> + |10> + |11>)/sqrt(12)",
     "amplitudes (3, 1, 1, 1)/sqrt(12)", 1e-12),
    ("trip-prep.output-pattern",
     "triplicator output is (3a|000> + a(|011>+|101>+|110>) + 3b|111> + b(|001>+|010>+|100>))/sqrt(12)",
     "coefficient pattern at spot-check inputs", 1e-12),
    ("trip-real.equal-reductions", "all three output qubits carry the same reduced state",
     "entrywise equality", 1e-12),
    ("trip-real.scaling", "every output qubit fits the scaled form with s = 2/3",
     "s = 2/3", 1e-10),
    ("trip-real.pair-matrix", "every pair reduction matches the closed-form matrix (descending-basis pattern)",
     "closed-form pair matrix", 1e-10),
    ("trip-real.d1", "single-copy distance is 1/18", "1/18", 1e-10),
    ("trip-real.d2", "pair distance is 2/9", "2/9", 1e-10),
    ("trip-real.d3", "three-qubit distance is 1/2", "1/2", 1e-10),
    ("trip-real.pair-spectrum", "pair partial-transpose spectrum is {-1/6, (5-sqrt(17))/12, 1/3, (5+sqrt(17))/12}",
     "input-independent spectrum", 1e-10),
    ("trip-complex.single-matrix", "output qubits match the closed-form single-qubit matrix",
     "closed-form matrix per grid point", 1e-10),
    ("trip-complex.d1", "d1 = (1/18)(1 + 12 |alpha|^2 |beta|^2 sin^2(phi))",
     "closed-form value per grid point", 1e-10),
    ("trip-complex.d2", "d2 = (2/9)(1 + 12 |alpha|^2 |beta|^2 sin^2(phi))",
     "closed-form value per grid point", 1e-10),
    ("trip-complex.d3", "d3 = (1/2)(1 + 12 |alpha|^2 |beta|^2 sin^2(phi))",
     "closed-form value per grid point", 1e-10),
    ("trip-complex.no-scaled-form", "no scaling fit exists whenever |alpha|^2 |beta|^2 sin^2(phi) > 1e-6",
     "scaling absent on all such grid points", 0.5),
    ("bound.inequality", "E <= -(1 + 4(sqrt(5)-2)|alpha|^2 |beta|^2)/6 over 50 inputs at quarter phase",
     "E - bound <= 0", 1e-9),
    ("bound.tight-at-zero", "the bound is attained as |alpha| -> 0", "gap 0 at alpha = 0", 1e-9),
    ("bound.real-phase-eigenvalue", "E = -1/6 at phi in {0, pi} independent of the input amplitude",
     "-1/6", 1e-10),
    ("bound.minimum-at-quarter-phase", "for fixed amplitude, E is lowest at phi = pi/2",
     "minimum at quarter phase for every amplitude", 0.5),
    ("angles.duplicator-recovery", "solver recovers the closed-form duplicator angles",
     "(pi/8, -+asin(sqrt(1/2 - sqrt(2)/3)), pi/8)", 1e-9),
    ("angles.triplicator-recovery", "solver recovers the closed-form triplicator angles",
     "(pi/8, -+asin(sqrt(1/2 - sqrt(2)/3)), pi/8)", 1e-9),
    ("angles.random-targets", "solver reproduces 100 random normalized amplitude targets",
     "residual <= 1e-10 on every solve", 1e-10),
    ("properties.gate-involution", "CNOT twice and rotation by +t then -t restore 100 random states",
     "identity", 1e-12),
    ("properties.gate-commutation", "gates on disjoint qubits commute on 100 random states",
     "order independence", 1e-12),
    ("properties.transpose-involution", "partial transpose applied twice restores random densities",
     "entrywise identity", 1e-12),
    ("properties.trace-preservation", "partial-transpose spectra sum to 1; reductions keep unit trace",
     "unit trace", 1e-10),
    ("properties.eigenvalue-oracle", "LAPACK eigenvalues match inertia bisection on 100 random matrices",
     "route agreement", 1e-9),
)

GROUP_ORDER = tuple(dict.fromkeys(law[0].split(".", 1)[0] for law in _LAWS))


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


def _amplitude_weight(grid: CopyGrid) -> np.ndarray:
    return np.abs(grid.alpha) ** 2 * grid.beta**2


def _phase_weight(grid: CopyGrid) -> np.ndarray:
    return _amplitude_weight(grid) * np.sin(grid.phi) ** 2


def _negativity_bound(grid: CopyGrid) -> np.ndarray:
    """The triplicator's quarter-phase bound -(1 + 4(sqrt(5)-2)|alpha|^2 |beta|^2)/6, per grid point.

    At phi = pi/2 (mod pi) the a2a3 pair's minimum partial-transpose
    eigenvalue E lies at or below it; the bound is attained at alpha = 0.
    """
    return -(1.0 + 4.0 * (math.sqrt(5.0) - 2.0) * _amplitude_weight(grid)) / 6.0


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def _flag(holds: bool, observed: str) -> tuple[float, str]:
    """A pass/fail law as an error: 0 when it holds and inf when not, pinned at tolerance 0.5."""
    return (0.0 if holds else math.inf), observed


def _prep_error(variant: CopyVariant) -> float:
    return _max_dev(amplitudes_from_angles(preparation_angles(variant)), preparation_amplitudes(variant))


def _scaling_error(s: np.ndarray) -> float | tuple[float, str]:
    """Deviation of the fitted scaling factors from 2/3; with any fit missing, inf and a count."""
    missing = int(np.count_nonzero(np.isnan(s)))
    return (math.inf, f"{missing} copies without a scaling fit") if missing else _max_dev(s, 2.0 / 3.0)


def _stated_reductions(grid: CopyGrid, table) -> np.ndarray:
    """A table (see ``_SIGMA``) applied to each grid point's Bloch vector: (N, 2, 2), or (N, 4, 4) for a pair."""
    psi = np.stack([grid.alpha, grid.beta.astype(complex)], axis=1)
    r = np.einsum("kni,ni->nk", psi.conj() @ _SIGMA, psi).real
    if np.ndim(table) == 1:
        fixed, local = np.eye(2), np.array(table)[:, None, None] * _SIGMA
    else:
        t, u, v = np.array(table)[:, :, None, None]
        first = np.einsum("kij,ab->kiajb", _SIGMA, np.eye(2)).reshape(3, 4, 4)  # sigma_k (x) I
        second = np.einsum("ij,kab->kiajb", np.eye(2), _SIGMA).reshape(3, 4, 4)  # I (x) sigma_k
        fixed, local = np.eye(4) + (t * first @ second).sum(axis=0), u * first + v * second
    d = len(fixed)
    return (fixed + (r @ local.reshape(3, -1)).reshape(-1, d, d)) / d


class _Suite:
    """Shared grids for the group functions, each evaluated on first use."""

    @functools.cached_property
    def duplicator_grid(self) -> CopyGrid:
        return evaluate_grid(CopyVariant.DUPLICATOR, _THETAS, _PHIS)

    @functools.cached_property
    def triplicator_grid(self) -> CopyGrid:
        return evaluate_grid(CopyVariant.TRIPLICATOR, _THETAS, _PHIS)

    @functools.cached_property
    def triplicator_real_grid(self) -> CopyGrid:
        return evaluate_grid(CopyVariant.TRIPLICATOR, _THETAS, (0.0, math.pi))


def _prep_results(suite: _Suite) -> list:
    return [_prep_error(CopyVariant.DUPLICATOR)]


def _basis_results(suite: _Suite) -> list:
    outputs = _basis_outputs(CopyVariant.DUPLICATOR)
    expected = np.zeros((2, 8))
    weights = (math.sqrt(2.0 / 3.0), 1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0))
    expected[0, [0b000, 0b101, 0b110]] = expected[1, [0b111, 0b001, 0b010]] = weights
    return [_max_dev(outputs[0], expected[0]), _max_dev(outputs[1], expected[1])]


def _fidelity_results(suite: _Suite) -> list:
    grid = suite.duplicator_grid
    weights = np.stack([grid.fidelity["a2"], grid.fidelity["a3"]])
    return [
        _max_dev(grid.qubit_reductions["a2"], grid.qubit_reductions["a3"]),
        _max_dev(weights[..., 0], 5.0 / 6.0),
        _max_dev(weights[..., 1], 1.0 / 6.0),
    ]


def _scaling_results(suite: _Suite) -> list:
    grid = suite.duplicator_grid
    return [_scaling_error(np.concatenate([grid.scaling["a2"], grid.scaling["a3"]]))]


def _distance_results(suite: _Suite) -> list:
    grid = suite.duplicator_grid
    return [
        max(_max_dev(grid.d1["a2"], 1.0 / 18.0), _max_dev(grid.d1["a3"], 1.0 / 18.0)),
        _max_dev(grid.d2["a2a3"], 2.0 / 9.0),
    ]


def _original_results(suite: _Suite) -> list:
    grid = suite.duplicator_grid
    return [
        _max_dev(grid.qubit_reductions["a1"], _stated_reductions(grid, _DUPLICATOR_ORIGINAL)),
        _max_dev(grid.d1["a1"], (2.0 / 9.0) * (1.0 + 12.0 * _phase_weight(grid))),
    ]


def _ppt_results(suite: _Suite) -> list:
    grid = suite.duplicator_grid
    not_inseparable = int(np.count_nonzero(grid.ppt_spectrum[:, 0] >= -INSEPARABILITY_TOL))
    total = grid.theta.size
    return [
        _max_dev(grid.ppt_spectrum, _DUP_PAIR_SPECTRUM),
        _flag(not_inseparable == 0, f"{total - not_inseparable}/{total} grid points inseparable"),
    ]


def _trip_prep_results(suite: _Suite) -> list:
    spots = evaluate_grid(CopyVariant.TRIPLICATOR, (0.0, math.pi / 8.0, math.pi / 4.0), (0.0, math.pi / 2.0))
    a, b = spots.alpha, spots.beta
    expected = np.stack([3.0 * a, b, b, a, b, a, a, 3.0 * b], axis=1) / math.sqrt(12.0)
    return [_prep_error(CopyVariant.TRIPLICATOR), _max_dev(spots.states, expected)]


def _trip_real_results(suite: _Suite) -> list:
    grid = suite.triplicator_real_grid
    singles, pairs = grid.qubit_reductions, np.stack([grid.pair_reductions[label] for label in PAIR_LABELS])
    return [
        max(_max_dev(singles["a1"], singles[label]) for label in ("a2", "a3")),
        _scaling_error(np.concatenate([grid.scaling[label] for label in QUBIT_LABELS])),
        _max_dev(pairs, _stated_reductions(grid, _TRIPLICATOR_PAIR)),
        max(_max_dev(grid.d1[label], 1.0 / 18.0) for label in QUBIT_LABELS),
        max(_max_dev(grid.d2[label], 2.0 / 9.0) for label in PAIR_LABELS),
        _max_dev(grid.d3, 0.5),
        _max_dev(ppt_spectrum(pairs), _TRIP_PAIR_SPECTRUM),
    ]


def _trip_complex_results(suite: _Suite) -> list:
    grid = suite.triplicator_grid
    weight = _phase_weight(grid)
    singles = np.stack([grid.qubit_reductions[label] for label in QUBIT_LABELS])
    wrongly_scaled = int(np.count_nonzero((weight > 1e-6) & ~np.isnan(grid.scaling["a2"])))
    return [
        _max_dev(singles, _stated_reductions(grid, _TRIPLICATOR_QUBIT)),
        max(_max_dev(grid.d1[label], (1.0 + 12.0 * weight) / 18.0) for label in QUBIT_LABELS),
        max(_max_dev(grid.d2[label], (2.0 / 9.0) * (1.0 + 12.0 * weight)) for label in PAIR_LABELS),
        _max_dev(grid.d3, 0.5 * (1.0 + 12.0 * weight)),
        _flag(wrongly_scaled == 0, "scaling absent on all such grid points" if wrongly_scaled == 0
              else f"{wrongly_scaled} grid points wrongly admit a scaling fit"),
    ]


def _bound_results(suite: _Suite) -> list:
    thetas = np.linspace(0.0, math.pi / 2.0, 50)
    quarter = evaluate_grid(CopyVariant.TRIPLICATOR, thetas, (math.pi / 2.0,))
    bound = _negativity_bound(quarter)
    e = quarter.ppt_spectrum[:, 0]
    excess = float(np.max(e - bound))

    # E at phi = 0, pi/2, pi (columns) for 10 amplitudes (rows)
    phases = evaluate_grid(
        CopyVariant.TRIPLICATOR, np.linspace(0.0, math.pi / 2.0, 10), (0.0, math.pi / 2.0, math.pi)
    )
    by_phase = phases.ppt_spectrum[:, 0].reshape(10, 3)
    minimal = bool(np.all(by_phase[:, 1] <= by_phase.min(axis=1) + 1e-12))
    return [
        (excess, f"max E - bound = {excess:.3e}"),
        abs(float(bound[0] - e[0])),  # theta = 0, where |alpha| = 0
        _max_dev(by_phase[:, [0, 2]], -1.0 / 6.0),
        _flag(minimal, "confirmed" if minimal else "violated"),
    ]


def _angles_results(suite: _Suite) -> list:
    variants = (CopyVariant.DUPLICATOR, CopyVariant.TRIPLICATOR)
    random = _uniforms(20260810, 400).reshape(100, 4)
    random /= np.linalg.norm(random, axis=1, keepdims=True)
    targets = np.concatenate([[preparation_amplitudes(variant) for variant in variants], random])
    solved = solve_preparation_angles(targets)
    residuals = np.max(np.abs(amplitudes_from_angles(solved) - targets), axis=1)

    results = []
    for variant, angles, residual in zip(variants, solved.as_array().T, residuals.tolist()):
        err_angles = _max_dev(angles, preparation_angles(variant).as_array())
        results.append((max(err_angles, residual), f"angle deviation {err_angles:.3e}, residual {residual:.3e}"))

    worst = float(np.max(residuals[2:]))
    solved_count = int(np.count_nonzero(residuals[2:] <= 1e-10))
    return [*results, (worst, f"{solved_count}/100 solved, worst residual {worst:.3e}")]


def _uniforms(seed: int, count: int) -> np.ndarray:
    """``count`` uniforms in [-1, 1): outputs 1 to ``count`` of SplitMix64 seeded with ``seed``.

    SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) finalises the state
    seed + i * 0x9E3779B97F4A7C15 (mod 2**64) of output i with its
    30/27/31 xor-shift-multiply steps; here all outputs are one vectorised
    pass.  The top 53 bits give (z >> 11) * 2**-52 - 1, which is exact.
    Only uint64 array operations wrap (a NumPy scalar product would warn),
    so the seed is reduced mod 2**64 as a Python int.
    """
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed % 2**64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-52 - 1.0


def _random_densities(uniforms: np.ndarray, count: int, num_qubits: int) -> np.ndarray:
    """``count`` random densities, each a mix of three random pure states with weights in [0.2, 1).

    ``uniforms`` holds ``count * (3 + 6 * 2**num_qubits)`` draws in [-1, 1):
    first the weights, shape (count, 3), then the real and imaginary parts
    of the states, shape (count, 3, 2, 2**num_qubits).
    """
    weights = 0.6 + 0.4 * uniforms[: 3 * count].reshape(count, 3)
    weights /= weights.sum(axis=1, keepdims=True)
    draws = uniforms[3 * count :].reshape(count, 3, 2, 1 << num_qubits)
    amps = draws[:, :, 0] + 1j * draws[:, :, 1]
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    return np.sum(weights[:, :, None, None] * (amps[..., :, None] * amps[..., None, :].conj()), axis=1)


def _property_results(suite: _Suite) -> list:
    # one stream, cut in a fixed order: 100 three-qubit states, 100 angles, 50 two-qubit densities, 100 4x4 matrices
    draws, angles, mixtures, entries = np.split(_uniforms(1234, 6250), [1600, 1700, 3050])
    draws = draws.reshape(100, 2, 8)
    states = draws[:, 0] + 1j * draws[:, 1]
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    thetas = math.pi * angles

    def run(*gates):
        return _run(states, gates)

    cnots = [CNOT(c, t) for c in range(3) for t in range(3) if c != t]
    turns = [(Rotation(q, thetas), Rotation(q, -thetas)) for q in range(3)]
    restored = np.stack([run(cnot, cnot) for cnot in cnots] + [run(*turn) for turn in turns])
    # each CNOT against a rotation of the qubit it leaves alone, in both orders
    solos = [Rotation(3 - cnot.control - cnot.target, thetas) for cnot in cnots]
    commuted = np.stack([[run(solo, cnot), run(cnot, solo)] for cnot, solo in zip(cnots, solos)])
    _check_normalized(restored)
    _check_normalized(commuted)
    err_involution = _max_dev(restored, states)
    err_commute = _max_dev(commuted[:, 0], commuted[:, 1])

    rhos = _random_densities(mixtures, 50, 2)
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

    draws = entries.reshape(100, 2, 4, 4)
    m = draws[:, 0] + 1j * draws[:, 1]
    hermitians = (m + np.swapaxes(m.conj(), -1, -2)) / 2.0
    err_eig = _max_dev(linalg.hermitian_eigenvalues(hermitians), eigenvalues_by_bisection(hermitians))
    return [err_involution, err_commute, err_pt_involution, err_trace, err_eig]


# The function that computes each group's results; GROUP_ORDER, taken from _LAWS, sets the run order.
_GROUPS = {
    "prep": _prep_results,
    "basis": _basis_results,
    "fidelity": _fidelity_results,
    "scaling": _scaling_results,
    "distance": _distance_results,
    "original": _original_results,
    "ppt": _ppt_results,
    "trip-prep": _trip_prep_results,
    "trip-real": _trip_real_results,
    "trip-complex": _trip_complex_results,
    "bound": _bound_results,
    "angles": _angles_results,
    "properties": _property_results,
}


def _check_request(groups, tolerance: float | None) -> list[str]:
    """The requested group names; ValueError for an unknown group or a tolerance that is not finite and non-negative."""
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    requested = list(GROUP_ORDER if groups is None else groups)
    unknown = set(requested) - set(GROUP_ORDER)
    if unknown:
        raise ValueError(f"unknown check groups: {sorted(unknown)}")
    return requested


def run_verification(groups=None, tolerance: float | None = None) -> list[VerifyCheck]:
    """Run the selected check groups (all by default) in canonical order.

    ``tolerance`` overrides every check's pinned tolerance, which is mainly
    useful for demonstrating where the numerics saturate; it must be finite
    and non-negative.  Raises ValueError for an unknown group or a bad
    tolerance, before any check runs, and when a group's results do not
    match its rows of the table one for one.  A group that raises fails its
    checks instead, with error inf and ``observed`` "<Type>: <message>".
    """
    requested = _check_request(groups, tolerance)
    suite = _Suite()
    checks: list[VerifyCheck] = []
    for group in (g for g in GROUP_ORDER if g in requested):
        laws = [law for law in _LAWS if law[0].startswith(group + ".")]
        try:
            results = _GROUPS[group](suite)
        except Exception as exc:  # a computation that raised fails each of its group's checks
            results = [(math.inf, f"{type(exc).__name__}: {exc}")] * len(laws)
        for (check_id, description, expected, pinned), result in zip(laws, results, strict=True):
            error, observed = result if isinstance(result, tuple) else (result, f"max deviation {result:.3e}")
            limit, error = pinned if tolerance is None else tolerance, float(error)
            checks.append(VerifyCheck(check_id=check_id, group=group, description=description, expected=expected,
                                      observed=observed, tolerance=limit, error=error, passed=error <= limit))
    return checks


def render_human(document: dict) -> str:
    lines = []
    for row in document["rows"]:
        verdict = "PASS" if row["passed"] else "FAIL"
        lines.append(
            f"{verdict}  {row['check_id']:<34} expected {row['expected']}; "
            f"observed {row['observed']} (tol {row['tolerance']:g})"
        )
        lines.append(f"      {row['description']}")
    summary = document["summary"]
    lines.append(f"{summary['total']} checks: {summary['passed']} passed, {summary['failed']} failed")
    return "\n".join(lines) + "\n"


def verification_document(checks, tolerance: float | None = None) -> dict:
    rows = [{**vars(c), "error": c.error if math.isfinite(c.error) else None} for c in checks]
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
    at once inside [-|H|_inf, |H|_inf], in 64 halvings; a pivot smaller than
    pivmin is replaced by -pivmin, as in ``dstebz``.  Unpivoted LDL^H of the
    dense H - xI is not used: a tiny leading pivot makes its count wrong.
    No LAPACK routine and no code from ``linalg`` is involved, so the oracle
    cross-checks ``linalg.hermitian_eigenvalues`` independently.

    The halvings run on buffers allocated once per call, and each step
    writes into them.  A pivot is negative after the guard exactly where it
    was below pivmin before it, so one mask both counts it and marks where
    the guard replaces it; the last pivot is counted but never divided by,
    so it is not guarded.  The arithmetic is that of the plain per-step
    loop, so every midpoint, and the result, is the same bit for bit;
    ``tests/test_verify.py`` keeps that loop as a frozen reference.

    Raises ValueError for a non-square or 0x0 matrix, a non-finite entry, or
    a matrix whose Hermiticity deviation max|H - H^H| exceeds 1e-10 * max(1,
    max|H|).  An empty stack, such as shape (0, 4, 4), gives an empty
    result, shape (0, 4).
    """
    a = np.array(h, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    if n == 0:
        raise ValueError(f"expected at least one row and column, got shape {a.shape}")
    if not np.isfinite(a).all():  # a complex entry is finite when both its parts are
        raise ValueError("matrix has non-finite entries")
    deviation = np.max(np.abs(a - np.swapaxes(a, -1, -2).conj()), axis=(-2, -1))
    if not np.all(deviation <= _ORACLE_HERMITICITY_TOL * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))):
        raise ValueError(f"matrix is not Hermitian (max deviation {float(np.max(deviation)):.3e})")
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
    e2 = np.abs(np.diagonal(a, offset=-1, axis1=-2, axis2=-1)) ** 2
    pivmin = np.finfo(float).tiny * np.maximum(1.0, np.max(e2, axis=-1, keepdims=True, initial=0.0))
    # Operands broadcast once to the (..., n) shape of the n bisected indices k:
    # diag[i] is T[i, i] and sub[i] is |T[i + 1, i]|^2.
    shape = hi.shape
    diag = np.ascontiguousarray(np.broadcast_to(np.moveaxis(d, -1, 0)[..., None], (n, *shape)))
    sub = np.ascontiguousarray(np.broadcast_to(np.moveaxis(e2, -1, 0)[..., None], (n - 1, *shape)))
    pivmin = np.ascontiguousarray(np.broadcast_to(pivmin, shape))
    floor = -pivmin
    rank = np.ascontiguousarray(np.broadcast_to(np.arange(n), shape))
    mid, ratio, guarded = np.empty(shape), np.empty(shape), np.empty(shape)
    pivots = np.empty((n, *shape))
    low = np.empty((n, *shape), dtype=bool)
    below = np.empty(shape, dtype=np.intp)
    lower = np.empty(shape, dtype=bool)
    steps = [(pivots[i], low[i], sub[i], pivots[i + 1]) for i in range(n - 1)]
    for _ in range(_BISECTION_STEPS):
        np.add(lo, hi, out=mid)
        np.multiply(mid, 0.5, out=mid)
        # pivots[i] starts as T[i, i] - x and becomes T[i, i] - x - |T[i, i - 1]|^2 / (guarded pivot i - 1)
        np.subtract(diag, mid, out=pivots)
        for pivot, is_low, e2_next, pivot_next in steps:
            np.less(pivot, pivmin, out=is_low)
            np.minimum(pivot, floor, out=guarded)
            np.putmask(pivot, is_low, guarded)
            np.divide(e2_next, pivot, out=ratio)
            np.subtract(pivot_next, ratio, out=pivot_next)
        np.less(pivots[-1], pivmin, out=low[-1])
        np.add.reduce(low, axis=0, dtype=np.intp, out=below)
        np.greater(below, rank, out=lower)
        np.putmask(hi, lower, mid)
        np.logical_not(lower, out=lower)
        np.putmask(lo, lower, mid)
    return 0.5 * (lo + hi)
