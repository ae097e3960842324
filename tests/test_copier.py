import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcopynet import (
    CopyVariant,
    InputQubit,
    PreparationAngles,
    amplitudes_from_angles,
    copy_stage_network,
    evaluate_grid,
    full_network,
    ppt_verdict,
    preparation_amplitudes,
    preparation_angles,
    preparation_network,
    run_copier,
    solve_preparation_angles,
)
from qcopynet.copier import (
    PAIR_LABELS,
    _DEGENERATE_GAP,
    _PAULI,
    _PHASE_CUTOFF,
    _fidelity,
    _scaling,
)
from qcopynet.gates import PureState, run_network as run

THETA2 = math.asin(math.sqrt(0.5 - math.sqrt(2.0) / 3.0))

THETAS = np.linspace(0.0, math.pi / 2.0, 8)
PHIS = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)


def input_state(qubit: InputQubit) -> PureState:
    return PureState(np.array([qubit.alpha, qubit.beta]))


def input_density(qubit: InputQubit) -> np.ndarray:
    amps = input_state(qubit).amplitudes
    return np.outer(amps, amps.conj())


def pauli(*matrices) -> np.ndarray:
    """Pauli coordinates Tr[m sigma_mu] of 2x2 matrices, a column per matrix (4, k)."""
    return np.einsum("kij,mji->mk", np.array(matrices, dtype=complex), _PAULI).real


@pytest.fixture(scope="module")
def dup_reports():
    return [
        (InputQubit(float(t), float(p)), run_copier(InputQubit(float(t), float(p)), CopyVariant.DUPLICATOR))
        for t in THETAS
        for p in PHIS
    ]


@pytest.fixture(scope="module")
def trip_reports():
    return [
        (InputQubit(float(t), float(p)), run_copier(InputQubit(float(t), float(p)), CopyVariant.TRIPLICATOR))
        for t in THETAS
        for p in PHIS
    ]


# ------------------------------------------------------------ input qubit

def test_input_qubit_amplitudes():
    q = InputQubit(math.pi / 3.0, math.pi / 2.0)
    assert abs(q.alpha - math.sin(math.pi / 3.0) * 1j) < 1e-15
    assert abs(q.beta - 0.5) < 1e-15
    perp = np.array([np.conj(q.beta), -np.conj(q.alpha)])
    assert abs(np.vdot(input_state(q).amplitudes, perp)) < 1e-15


def test_input_qubit_from_amplitudes_basis_case():
    q = InputQubit.from_amplitudes(1.0, 0.0)
    assert abs(q.theta - math.pi / 2.0) < 1e-15
    assert abs(q.phi) < 1e-15


def test_input_qubit_from_amplitudes_strips_global_phase():
    raw_alpha = 0.6 * np.exp(1j * 0.9)
    raw_beta = 0.8 * np.exp(1j * 0.9)
    q = InputQubit.from_amplitudes(raw_alpha, raw_beta)
    assert q.beta >= 0.0
    expected = np.outer([raw_alpha, raw_beta], np.conj([raw_alpha, raw_beta]))
    assert np.max(np.abs(input_density(q) - expected)) < 1e-12


def test_input_qubit_from_amplitudes_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        InputQubit.from_amplitudes(1.0, 1.0)


@pytest.mark.parametrize("part", [1e200, 1e-200, 1e-160, 0.0, 1e-320])
def test_input_qubit_from_amplitudes_names_the_true_norm_at_extreme_amplitudes(part):
    # the squares of these parts overflow (1e200) or underflow (1e-200, 1e-160 to a subnormal); 1e-320 is itself
    # subnormal, so its norm is exact only to the subnormal grid, and it used to read NaN
    with pytest.raises(ValueError, match="normalized") as excinfo:
        InputQubit.from_amplitudes(part, part)
    norm = float(re.search(r"norm (\S+)\)", str(excinfo.value)).group(1))
    grid = np.finfo(float).smallest_subnormal if 0.0 < part < np.finfo(float).tiny else 0.0
    assert norm == pytest.approx(math.sqrt(2.0) * part, rel=1e-15, abs=grid)
    if part == 1e200:
        assert "norm 1.414213562373095e+200" in str(excinfo.value)


@pytest.mark.parametrize("part", [float("nan"), float("inf")])
def test_input_qubit_from_amplitudes_rejects_non_finite(part):
    with pytest.raises(ValueError, match="normalized"):
        InputQubit.from_amplitudes(part, 0.5)


def test_input_qubit_norm_tolerance_is_1e_9():
    assert InputQubit.from_amplitudes(0.0, 1.0 + 0.9e-9) == InputQubit(0.0, 0.0)
    with pytest.raises(ValueError, match="normalized"):
        InputQubit.from_amplitudes(0.0, 1.0 + 1.1e-9)


def test_input_qubit_phase_cutoffs_are_1e_15():
    # a modulus at or below 1e-15 carries no phase: beta's is not factored out, and alpha's is not read
    assert InputQubit.from_amplitudes(1.0, 0.9e-15j).phi == 0.0
    assert InputQubit.from_amplitudes(1.0, 1.1e-15j).phi == -math.pi / 2.0
    assert InputQubit.from_amplitudes(0.9e-15j, 1.0).phi == 0.0
    assert InputQubit.from_amplitudes(1.1e-15j, 1.0).phi == math.pi / 2.0


@pytest.mark.parametrize("beta", [-0.9e-15, 0.9e-15j, -0.9e-15j], ids=["negative", "imaginary", "negative-imaginary"])
def test_input_qubit_beta_below_the_phase_cutoff_is_taken_as_its_modulus(beta):
    q = InputQubit.from_amplitudes(1.0, beta)
    assert q.beta >= 0.0 and q.theta <= math.pi / 2.0
    assert q == InputQubit.from_amplitudes(1.0, abs(beta))


def phased_pair(k: float, a: float, chi: float, swap: bool) -> tuple[complex, complex]:
    """A unit pair, one amplitude 10^k e^{ia} and the other real, in either order, times the phase e^{i chi}."""
    small, large = 10.0**k * cmath.exp(1j * a), math.sqrt(1.0 - 10.0 ** (2.0 * k))
    alpha, beta = (large, small) if swap else (small, large)
    return alpha * cmath.exp(1j * chi), beta * cmath.exp(1j * chi)


def bloch(alpha: complex, beta: complex) -> np.ndarray:
    """(r_x, r_y, r_z) of alpha|0> + beta|1>, with r_x + i r_y = 2 conj(alpha) beta."""
    xy = 2.0 * alpha.conjugate() * beta
    return np.array([xy.real, xy.imag, abs(alpha) ** 2 - abs(beta) ** 2])


PHASES = st.floats(-math.pi, math.pi)


# moduli from 1e-20 to 1, across the phase cut-off 1e-15
@given(st.builds(phased_pair, st.floats(-20.0, 0.0), PHASES, PHASES, st.booleans()))
# |alpha| = 1e-15, at the cut-off, with phase pi: dropping it moves alpha by 2|alpha|, and r_x + i r_y by 4e-15
@example(phased_pair(-15.0, math.pi, 0.0, False))
@settings(derandomize=True, deadline=None)
def test_input_qubit_from_amplitudes_keeps_the_bloch_vector_of_any_phased_pair(pair):
    q = InputQubit.from_amplitudes(*pair)
    assert q.beta >= 0.0 and 0.0 <= q.theta <= math.pi / 2.0 and -math.pi < q.phi <= math.pi
    # a modulus at or below the cut-off loses its phase, which moves its amplitude by at most twice the cut-off
    assert np.max(np.abs(bloch(q.alpha, complex(q.beta)) - bloch(*pair))) <= 4.0 * _PHASE_CUTOFF + 1e-15


# ------------------------------------------------------------ angle solver

def test_solver_duplicator_target():
    angles = solve_preparation_angles(preparation_amplitudes(CopyVariant.DUPLICATOR))
    expected = np.array([math.pi / 8.0, -THETA2, math.pi / 8.0])
    assert np.max(np.abs(angles.as_array() - expected)) < 1e-9


def test_solver_triplicator_target():
    angles = solve_preparation_angles(preparation_amplitudes(CopyVariant.TRIPLICATOR))
    expected = np.array([math.pi / 8.0, THETA2, math.pi / 8.0])
    assert np.max(np.abs(angles.as_array() - expected)) < 1e-9


def test_solver_trivial_target_gives_zero_angles():
    angles = solve_preparation_angles(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.max(np.abs(angles.as_array())) < 1e-9


def test_solver_random_targets(rng):
    for _ in range(100):
        c = rng.normal(size=4)
        c /= np.linalg.norm(c)
        angles = solve_preparation_angles(c)
        assert np.max(np.abs(amplitudes_from_angles(angles) - c)) <= 1e-10


def test_solver_rejects_unnormalized_target():
    with pytest.raises(ValueError, match="not normalized"):
        solve_preparation_angles(np.array([1.0, 1.0, 0.0, 0.0]))


def test_solver_unit_norm_tolerance_is_1e_12():
    # the solver holds its targets to gates.NORM_TOL on the sum of squares, as it does a state
    assert solve_preparation_angles([math.sqrt(1.0 + 0.9e-12), 0.0, 0.0, 0.0]) == PreparationAngles(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="not normalized"):
        solve_preparation_angles([math.sqrt(1.0 + 1.1e-12), 0.0, 0.0, 0.0])


# Normalized normal draws 271, 324, 933, 1022 and 1124 of default_rng(0):
# reachable targets on which a 16-start Gauss-Newton search found no solution.
SEARCH_FAILURES = [
    [-0.6334260970058752, 0.22520128876980577, 0.2300465632607164, 0.7036578272855746],
    [-0.018030541753775726, 0.7128245263443033, 0.7007552841074571, -0.022318736558370075],
    [0.6801081320523091, -0.016158812112537134, -0.020436152447308783, -0.7326487461127474],
    [-0.6766242930955572, -0.43066118954559285, 0.5927119326183484, -0.07350558308002889],
    [-0.7579722052567669, -0.15350764864557917, 0.5692561870072654, -0.279035717103471],
]


@pytest.mark.parametrize("target", SEARCH_FAILURES)
def test_solver_solves_targets_a_local_search_missed(target):
    angles = solve_preparation_angles(np.array(target))
    assert np.max(np.abs(amplitudes_from_angles(angles) - target)) <= 1e-10


def test_solver_returns_the_minimum_norm_preimage():
    rng = np.random.default_rng(20261018)
    for _ in range(500):
        t = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=3)
        wrapped = np.remainder(t + math.pi, 2.0 * math.pi) - math.pi
        solved = solve_preparation_angles(amplitudes_from_angles(PreparationAngles(*t)))
        assert np.linalg.norm(solved.as_array()) <= np.linalg.norm(wrapped) + 1e-12


@pytest.mark.parametrize(
    ("target", "expected"),
    [
        ([1.0, 0.0, 0.0, 1.0], (0.0, math.pi / 4.0, 0.0)),
        ([0.0, 1.0, -1.0, 0.0], (math.pi / 4.0, math.pi / 4.0, -math.pi / 4.0)),
        # a reflection whose norm ties between two branches: the smaller tuple wins
        ([-1.0, 0.0, 0.0, 1.0], (-math.pi / 2.0, -math.pi / 4.0, -math.pi / 2.0)),
    ],
)
def test_solver_degenerate_targets_split_evenly(target, expected):
    solved = solve_preparation_angles(np.array(target) / math.sqrt(2.0))
    assert (solved.theta1, solved.theta2, solved.theta3) == expected
    assert all(math.copysign(1.0, t) > 0 for t in solved.as_array() if t == 0.0)


def test_solver_rejects_a_nan_target():
    # NaN once slipped past the unit-norm test into the factorization ("SVD did not converge")
    with pytest.raises(ValueError, match="finite"):
        solve_preparation_angles([math.nan, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        solve_preparation_angles([[1.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 1.0]])


def test_solver_rejects_an_imaginary_part_and_reads_a_zero_one_as_real():
    # a complex list once raised TypeError from float(), and a complex array lost its imaginary part to a
    # ComplexWarning (an error under tier-1's filters) before failing the norm test on what was left; an object
    # array raised TypeError from float() whatever its imaginary parts
    for target in ([1j, 0, 0, 0], np.array([0.6 + 0.8j, 0, 0, 0]), np.array([1j, 0, 0, 0], dtype=object)):
        with pytest.raises(ValueError, match="non-zero imaginary part"):
            solve_preparation_angles(target)
    for target in (np.array([1, 0, 0, 0], dtype=complex), np.array([1 + 0j, 0, 0, 0], dtype=object)):
        assert solve_preparation_angles(target) == PreparationAngles(0.0, 0.0, 0.0)


def test_solver_rejects_shapes_other_than_a_target_or_a_stack():
    for shape in [(3,), (2, 2), (1, 2, 4)]:
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            solve_preparation_angles(np.full(shape, 0.5))


def test_solver_maps_an_empty_stack_to_empty_angles():
    # an empty stack once failed inside NumPy ("attempt to get argmax of an empty sequence"), though the forward
    # map takes three empty angle arrays to (0, 4)
    solved = solve_preparation_angles(np.zeros((0, 4)))
    assert [np.shape(t) for t in solved.as_array()] == [(0,)] * 3
    assert amplitudes_from_angles(solved).shape == (0, 4)


def scalar_solver(c) -> tuple[float, float, float]:
    """The one-target SVD solver as it stood before the stacked one, kept as an independent reference.

    Near degeneracy its singular vectors carry errors of about eps / gap, so there it is no reference for
    the angles; at and inside the gap the even split decides, and it is one.
    """

    def wrap(x):
        r = math.remainder(x, 2.0 * math.pi)
        return (r + 2.0 * math.pi if r == -math.pi else r) + 0.0

    flips = ((0.0, 0.0, 0.0), (math.pi, math.pi, 0.0), (0.0, math.pi, math.pi), (math.pi, 0.0, math.pi))
    m = np.asarray(c, dtype=float).reshape(2, 2)
    u, s, vt = np.linalg.svd(m)
    if s[0] - s[1] <= 1e-11:
        sign = 1.0 if np.linalg.det(m) >= 0.0 else -1.0
        fixed = math.atan2(m[1, 0] - sign * m[0, 1], m[0, 0] + sign * m[1, 1])
        candidates = []
        for theta2, shift in ((sign * math.pi / 4.0, 0.0), (-sign * 3.0 * math.pi / 4.0, math.pi)):
            w = wrap(fixed + shift)
            candidates += [(-sign * f / 2.0, theta2, f / 2.0) for f in (w, w - 2.0 * math.pi)]
    else:
        theta1 = math.atan2(vt[0, 1], vt[0, 0])
        theta2 = math.atan2(math.copysign(s[1], np.linalg.det(u) * np.linalg.det(vt)), s[0])
        theta3 = math.atan2(u[1, 0], u[0, 0])
        half = math.pi / 2.0
        candidates = [
            (t1 + f1, t2 + f2, t3 + f3)
            for t1, t2, t3 in ((theta1, theta2, theta3), (theta1 + half, half - theta2, theta3 + half))
            for f1, f2, f3 in flips
        ]
    wrapped = (tuple(wrap(t) for t in member) for member in candidates)
    return min(wrapped, key=lambda t: (math.hypot(*t), t))


def rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def gap_target(gap: float, a: float, b: float, reflection: bool) -> np.ndarray:
    """R(a) diag(s0, +-s1) R(b)^T, singular values about ``gap`` apart: near a rotation (+s1) or a reflection (-s1)."""
    s0, s1 = math.sqrt(0.5) + gap / 2.0, math.sqrt(0.5) - gap / 2.0
    return (rotation(a) @ np.diag([s0, -s1 if reflection else s1]) @ rotation(b).T).reshape(4)


def gap_targets(gap: float, count: int = 20) -> np.ndarray:
    """Targets whose singular values differ by about ``gap``, alternately near a reflection and a rotation."""
    rng = np.random.default_rng(7)
    return np.array([gap_target(gap, *rng.uniform(-math.pi, math.pi, size=2), k % 2 == 0) for k in range(count)])


def near_rotation_targets() -> np.ndarray:
    """c_k = (1/2 + vx, vy - 1/2, 1/2 + vy, 1/2 - vx) with (vx, vy) = 2^-k (-3, 5), for k = 30..38.

    The rotation part (1/2, 1/2) and the reflection part (vx, vy) come back exactly, so the exact
    smallest-norm theta1 and theta3 do not depend on k, while the singular-value gap 2 |(vx, vy)|
    falls from 1.1e-8 to 4.2e-11, every one above ``_DEGENERATE_GAP``.
    """
    k = np.arange(30, 39)
    vx, vy = -3.0 * 2.0**-k, 5.0 * 2.0**-k
    return np.stack([0.5 + vx, vy - 0.5, 0.5 + vy, 0.5 - vx], axis=1)


SOLVER_TARGETS = {
    "random": np.array([c / np.linalg.norm(c) for c in np.random.default_rng(20261019).normal(size=(1000, 4))]),
    "search-failures": np.array(SEARCH_FAILURES),
    "degenerate": np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0], [-1.0, 0.0, 0.0, 1.0]]) / math.sqrt(2.0),
    "gap-above": gap_targets(1.01 * _DEGENERATE_GAP),
    "gap-below": gap_targets(0.99 * _DEGENERATE_GAP),
    "near-rotation": near_rotation_targets(),
}


def test_gap_targets_straddle_the_degenerate_gap():
    for name, degenerate in (("gap-above", False), ("gap-below", True)):
        s = np.linalg.svd(SOLVER_TARGETS[name].reshape(-1, 2, 2), compute_uv=False)
        assert np.all((s[:, 0] - s[:, 1] <= _DEGENERATE_GAP) == degenerate)


def test_solver_angles_do_not_drift_near_a_rotation():
    targets = SOLVER_TARGETS["near-rotation"]
    s = np.linalg.svd(targets.reshape(-1, 2, 2), compute_uv=False)
    assert np.all(s[:, 0] - s[:, 1] > _DEGENERATE_GAP)
    assert [np.linalg.norm(c) for c in targets] == [1.0] * len(targets)
    solved = [solve_preparation_angles(c) for c in targets]
    assert len({t.theta1 for t in solved}) == 1
    assert len({t.theta3 for t in solved}) == 1


def assert_same_angles(got, expected):
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("name", SOLVER_TARGETS)
def test_stacked_solver_matches_the_scalar_reference(name):
    targets = SOLVER_TARGETS[name]
    angles = solve_preparation_angles(targets)
    solved = angles.as_array().T
    assert_same_angles(np.array([solve_preparation_angles(c).as_array() for c in targets]), solved)
    expected = np.array([scalar_solver(c) for c in targets])
    if name in ("degenerate", "gap-below"):
        assert_same_angles(solved, expected)
    elif name in ("random", "search-failures"):
        assert np.max(np.abs(solved - expected)) <= 1e-14
    else:
        # near degeneracy the reference is the less accurate one; the drift test above holds accuracy
        assert np.max(np.abs(amplitudes_from_angles(angles) - targets)) <= 1e-15


def product_formula(cos, sin) -> np.ndarray:
    """The stage's image of |00> expanded by hand, a frozen reference: (3,) or (3, N) cosines and sines."""
    (c1, c2, c3), (s1, s2, s3) = cos, sin
    return np.array(
        [
            c1 * c2 * c3 + s1 * s2 * s3,
            -c1 * s2 * s3 + s1 * c2 * c3,
            c1 * c2 * s3 - s1 * s2 * c3,
            c1 * s2 * c3 + s1 * c2 * s3,
        ]
    ).T


def test_stacked_amplitudes_match_the_one_point_view():
    # the network's fold takes np.cos/np.sin for an angle stack and math.cos/math.sin for one angle
    angles = np.random.default_rng(3).uniform(-2.0 * math.pi, 2.0 * math.pi, size=(10_000, 3))
    stacked = amplitudes_from_angles(PreparationAngles(*angles.T))
    assert stacked.shape == (10_000, 4)
    assert stacked.tobytes() == product_formula(np.cos(angles).T, np.sin(angles).T).tobytes()
    for row in angles[:200].tolist():
        one = amplitudes_from_angles(PreparationAngles(*row))
        assert one.shape == (4,)
        assert one.tobytes() == product_formula([math.cos(t) for t in row], [math.sin(t) for t in row]).tobytes()


@pytest.mark.parametrize("field", range(3))
def test_forward_map_batches_as_its_three_angles_broadcast(field):
    # an array in any one angle field, floats in the other two: once a shape error at gate 3
    floats, column = [0.1, -0.7, 0.4], [0.3, 2.9]

    def forward_map(value):
        return amplitudes_from_angles(PreparationAngles(*(value if i == field else f for i, f in enumerate(floats))))

    got = forward_map(np.array(column))
    assert got.shape == (2, 4)
    for row, t in zip(got, column):
        assert row.tobytes() == forward_map(t).tobytes()


@pytest.mark.parametrize("angles", [(np.zeros(2), np.zeros(3), 0.4), (np.zeros(3), 0.1, np.zeros(2))])
def test_forward_map_rejects_angle_lengths_that_do_not_broadcast(angles):
    with pytest.raises(ValueError):
        amplitudes_from_angles(PreparationAngles(*angles))


def unit(c) -> np.ndarray:
    return np.asarray(c) / math.hypot(*c)


UNIT_TARGETS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda c: math.hypot(*c) > 1e-3).map(unit)
# near a rotation or a reflection, singular values 10^-k apart: the degenerate gap 1e-11 lies inside k = 6..16
NEAR_DEGENERATE_TARGETS = st.builds(
    lambda k, a, b, reflection: unit(gap_target(10.0**-k, a, b, reflection)),
    st.integers(6, 16), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi), st.booleans(),
)


@given(st.lists(st.one_of(UNIT_TARGETS, NEAR_DEGENERATE_TARGETS), min_size=1, max_size=8))
# inside the degenerate band: the even split drops a reflection part of 3.5e-12, more than a flat 1e-12 allows
@example([np.array([1.0, 1e-16, 1e-11, 1.0]) / math.sqrt(2.0)])
@settings(derandomize=True, deadline=None)
def test_solved_angles_round_trip_through_the_forward_map(targets):
    c = np.array(targets)
    solved = solve_preparation_angles(c)
    angles = solved.as_array()
    assert np.all((-math.pi < angles) & (angles <= math.pi))
    stacked = amplitudes_from_angles(solved)
    for row, triple in zip(stacked, angles.T.tolist()):
        assert row.tobytes() == amplitudes_from_angles(PreparationAngles(*triple)).tobytes()
    # the parts the solver splits M into (see solve_preparation_angles); inside the band it drops the smaller one
    m00, m01, m10, m11 = c.T
    smaller = np.minimum(np.hypot(m00 + m11, m10 - m01), np.hypot(m00 - m11, m01 + m10)) / 2.0
    bound = np.where(2.0 * smaller > _DEGENERATE_GAP, 0.0, smaller) + 1e-12
    assert np.all(np.max(np.abs(stacked - c), axis=1) <= bound)


# ---------------------------------------------------------------- networks

def test_preparation_network_gate_order():
    net = preparation_network(PreparationAngles(0.1, 0.2, 0.3), qubits=(1, 2))
    kinds = [type(g).__name__ for g in net]
    assert kinds == ["Rotation", "CNOT", "Rotation", "CNOT", "Rotation"]
    rotations = [g for g in net if type(g).__name__ == "Rotation"]
    assert [g.target for g in rotations] == [1, 2, 1]
    assert [g.theta for g in rotations] == [0.1, 0.2, 0.3]


def test_preparation_network_zero_angles_is_identity():
    net = preparation_network(PreparationAngles(0.0, 0.0, 0.0))
    out = run(PureState.computational(2, 0), net)
    assert np.max(np.abs(out.amplitudes - PureState.computational(2, 0).amplitudes)) < 1e-15


def test_preparation_network_triplicator_state():
    net = preparation_network(preparation_angles(CopyVariant.TRIPLICATOR))
    out = run(PureState.computational(2, 0), net)
    expected = np.array([3.0, 1.0, 1.0, 1.0]) / math.sqrt(12.0)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_copy_stage_order_and_involution_on_blank():
    net = copy_stage_network()
    pairs = [(g.control, g.target) for g in net]
    assert pairs == [(0, 1), (0, 2), (1, 0), (2, 0)]
    out = run(PureState.computational(3, 0), net)
    assert np.array_equal(out.amplitudes, PureState.computational(3, 0).amplitudes)


# Each machine's target amplitudes and middle preparation angle, stated apart from the copier's table.
MACHINE_CONSTANTS = {
    CopyVariant.DUPLICATOR: (np.array([2.0, 1.0, 1.0, 0.0]) / math.sqrt(6.0), -THETA2),
    CopyVariant.TRIPLICATOR: (np.array([3.0, 1.0, 1.0, 1.0]) / math.sqrt(12.0), THETA2),
}


@pytest.mark.parametrize("variant", list(CopyVariant))
def test_machine_constants_are_bit_identical(variant):
    amplitudes, theta2 = MACHINE_CONSTANTS[variant]
    assert preparation_amplitudes(variant).tobytes() == amplitudes.tobytes()
    angles = np.array([math.pi / 8.0, theta2, math.pi / 8.0])
    assert preparation_angles(variant).as_array().tobytes() == angles.tobytes()
    # each call hands out its own copy of the table's amplitudes
    preparation_amplitudes(variant)[0] = 0.0
    assert preparation_amplitudes(variant).tobytes() == amplitudes.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_copier(InputQubit(0.3), "duplicator"),
        lambda: evaluate_grid("triplicator", [0.1], [0.0]),
        lambda: evaluate_grid(["triplicator"], [0.1], [0.0]),
        lambda: full_network("duplicator"),
        lambda: preparation_angles("duplicator"),
        lambda: preparation_amplitudes(None),
    ],
    ids=[
        "run_copier-str", "evaluate_grid-str", "evaluate_grid-list",
        "full_network-str", "angles-str", "amplitudes-None",
    ],
)
def test_a_value_that_is_not_a_variant_member_raises(call):
    # a string or None used to fall into the triplicator branch, and a list into a TypeError
    with pytest.raises(ValueError, match="variant must be a CopyVariant member"):
        call()


def test_an_empty_grid_is_rejected():
    with pytest.raises(ValueError, match="^the grid needs at least one theta and one phi$"):
        evaluate_grid(CopyVariant.DUPLICATOR, [], [0.0])


# ------------------------------------------------------------- run_copier

def test_duplicator_uniform_input_report():
    report = run_copier(InputQubit(math.pi / 4.0, 0.0), CopyVariant.DUPLICATOR)
    assert abs(report.d1["a2"] - 1.0 / 18.0) < 1e-12
    assert abs(report.d1["a3"] - 1.0 / 18.0) < 1e-12
    assert abs(report.d2["a2a3"] - 2.0 / 9.0) < 1e-12
    assert report.scaling["a2"] is not None and abs(report.scaling["a2"] - 2.0 / 3.0) < 1e-12
    assert abs(report.fidelity["a2"][0] - 5.0 / 6.0) < 1e-12
    assert report.d3 is None


@pytest.mark.parametrize("variant", list(CopyVariant))
def test_report_verdicts_each_pair_as_ppt_verdict_does(variant):
    # the kernel's Gram route skips only the positivity eigensolve, so the verdicts agree exactly
    rng = np.random.default_rng(19)
    for theta, phi in rng.uniform((0.0, -math.pi), (math.pi / 2.0, math.pi), size=(20, 2)):
        report = run_copier(InputQubit(theta, phi), variant)
        assert list(report.ppt) == list(PAIR_LABELS)
        for label, pair in report.pair_reductions.items():
            assert report.ppt[label] == ppt_verdict(pair), (theta, phi, label)


def test_duplicator_copies_identical_over_grid(dup_reports):
    for _, report in dup_reports:
        dev = np.max(np.abs(report.qubit_reductions["a2"] - report.qubit_reductions["a3"]))
        assert dev < 1e-12


def test_duplicator_distances_constant_over_grid(dup_reports):
    for _, report in dup_reports:
        assert abs(report.d1["a2"] - 1.0 / 18.0) < 1e-10
        assert abs(report.d1["a3"] - 1.0 / 18.0) < 1e-10
        assert abs(report.d2["a2a3"] - 2.0 / 9.0) < 1e-10


def test_duplicator_fidelity_split_over_grid(dup_reports):
    for _, report in dup_reports:
        for label in ("a2", "a3"):
            p_ideal, p_orth = report.fidelity[label]
            assert abs(p_ideal - 5.0 / 6.0) < 1e-10
            assert abs(p_orth - 1.0 / 6.0) < 1e-10
            assert abs(p_ideal + p_orth - 1.0) < 1e-12


def test_duplicator_original_distance_formula(dup_reports):
    for qubit, report in dup_reports:
        weight = abs(qubit.alpha) ** 2 * qubit.beta**2 * math.sin(qubit.phi) ** 2
        assert abs(report.d1["a1"] - (2.0 / 9.0) * (1.0 + 12.0 * weight)) < 1e-10


def test_triplicator_basis_input_output_state():
    report = run_copier(InputQubit(0.0, 0.0), CopyVariant.TRIPLICATOR)
    expected = np.zeros(8)
    expected[0b111] = 3.0 / math.sqrt(12.0)
    expected[0b001] = expected[0b010] = expected[0b100] = 1.0 / math.sqrt(12.0)
    assert np.max(np.abs(report.output_state.amplitudes - expected)) < 1e-12


def test_triplicator_phase_dependent_distance():
    # |alpha|^2 = 3/4, quarter phase: d1 = (1/18)(1 + 12 * (3/16)) = 13/72
    report = run_copier(InputQubit(math.pi / 3.0, math.pi / 2.0), CopyVariant.TRIPLICATOR)
    assert abs(report.d1["a2"] - 13.0 / 72.0) < 1e-12


def test_triplicator_equal_reductions_any_input(trip_reports):
    for _, report in trip_reports:
        for label in ("a2", "a3"):
            dev = np.max(np.abs(report.qubit_reductions["a1"] - report.qubit_reductions[label]))
            assert dev < 1e-12


def test_triplicator_distance_formulas(trip_reports):
    for qubit, report in trip_reports:
        weight = abs(qubit.alpha) ** 2 * qubit.beta**2 * math.sin(qubit.phi) ** 2
        factor = 1.0 + 12.0 * weight
        for label in ("a1", "a2", "a3"):
            assert abs(report.d1[label] - factor / 18.0) < 1e-10
        for label in ("a2a3", "a1a2", "a1a3"):
            assert abs(report.d2[label] - (2.0 / 9.0) * factor) < 1e-10
        assert abs(report.d3 - 0.5 * factor) < 1e-10


def test_triplicator_output_pure(trip_reports):
    for _, report in trip_reports:
        norm = float(np.sum(np.abs(report.output_state.amplitudes) ** 2))
        assert abs(norm - 1.0) < 1e-12


# --------------------------------------------------------- scaling & split

def test_scaling_decompose_identity_cases():
    rho_id = input_density(InputQubit(0.7, 1.1))
    s = _scaling(pauli(rho_id, np.eye(2) / 2.0), pauli(rho_id))
    assert np.max(np.abs(s - [1.0, 0.0])) < 1e-12


def test_scaling_decompose_duplicator_copy():
    report = run_copier(InputQubit(0.4, 5.0), CopyVariant.DUPLICATOR)
    s = _scaling(pauli(report.qubit_reductions["a2"]), pauli(input_density(report.input)))
    assert abs(s[0] - 2.0 / 3.0) < 1e-10


def test_scaling_decompose_returns_none_off_form():
    # triplicator copy with a complex amplitude has no scaled form
    report = run_copier(InputQubit(0.8, 1.0), CopyVariant.TRIPLICATOR)
    rho_id = input_density(report.input)
    # and a matrix off the form by its trace alone: 2 rho has v = 2r, so s = 2, but q0 = 2
    s = _scaling(pauli(report.qubit_reductions["a2"], 2.0 * rho_id), pauli(rho_id, rho_id))
    assert np.isnan(s).all()
    # SCALING_RESIDUAL_TOL = 1e-10 on the residual (q0 - 1)^2 / 2 of q = (q0, r): 10% inside fits, 10% outside does not
    r = np.array([[1.0], [0.0], [0.0]])
    q0 = 1.0 + np.sqrt(2.0 * np.array([0.9e-10, 1.1e-10]))
    s = _scaling(np.concatenate([q0[None], np.repeat(r, 2, axis=1)]), np.concatenate([[[1.0]], r]))
    assert s[0] == 1.0 and np.isnan(s[1])


def test_scaling_decompose_rejects_impure_reference():
    with pytest.raises(ValueError, match="pure"):
        _scaling(pauli(np.eye(2) / 2.0), pauli(np.eye(2) / 2.0))
    # _PURITY_TOL = 1e-10 on Tr rho^2 = (1 + |r|^2)/2: 10% inside passes, 10% outside raises
    inside, outside = (np.array([[1.0], [math.sqrt(1.0 - 2.0 * gap)], [0.0], [0.0]]) for gap in (0.9e-10, 1.1e-10))
    assert _scaling(inside, inside).shape == (1,)
    with pytest.raises(ValueError, match="pure"):
        _scaling(outside, outside)


def test_fidelity_split_pure_and_mixed():
    rho_id = input_density(InputQubit(1.1, 0.3))
    # the complement's weight is Tr M less the input's, so twice the input puts 2 on it and 0 on the rest
    for rho, expected in ((rho_id, (1.0, 0.0)), (np.eye(2) / 2.0, (0.5, 0.5)), (2.0 * rho_id, (2.0, 0.0))):
        split = _fidelity(pauli(rho), pauli(rho_id))
        assert np.allclose(split, [expected], atol=1e-12)


# ------------------------------------------------------ original-qubit law

def test_original_transpose_check_real_input(dup_reports):
    for qubit, report in dup_reports:
        expected = input_density(qubit).T / 3.0 + np.eye(2) / 3.0
        residual = float(np.max(np.abs(report.qubit_reductions["a1"] - expected)))
        assert residual <= 1e-10, f"residual {residual} at theta={qubit.theta}, phi={qubit.phi}"


def test_original_off_diagonal_conjugated_at_quarter_phase():
    # with alpha imaginary the transpose flips the off-diagonal sign
    qubit = InputQubit(math.pi / 4.0, math.pi / 2.0)
    report = run_copier(qubit, CopyVariant.DUPLICATOR)
    rho_in = input_density(qubit)
    observed = report.qubit_reductions["a1"][0, 1]
    assert abs(observed - rho_in[1, 0] / 3.0) < 1e-12
    assert abs(observed - rho_in[0, 1] / 3.0) > 0.1


def test_original_reduction_unit_trace(dup_reports):
    for _, report in dup_reports:
        assert abs(complex(np.trace(report.qubit_reductions["a1"])) - 1.0) < 1e-12


# ------------------------------------------------------- scaled-form gates

def test_scaling_present_only_for_real_phase(trip_reports):
    for qubit, report in trip_reports:
        weight = abs(qubit.alpha) ** 2 * qubit.beta**2 * math.sin(qubit.phi) ** 2
        if weight > 1e-6:
            assert report.scaling["a2"] is None
        elif weight == 0.0:
            assert report.scaling["a2"] is not None
            assert abs(report.scaling["a2"] - 2.0 / 3.0) < 1e-10
