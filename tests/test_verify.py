import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcopynet import gates, linalg, separability, verify
from qcopynet.gates import CNOT
from qcopynet.report import render_json
from qcopynet.verify import eigenvalues_by_bisection

from conftest import random_hermitian

DUPLICATOR_PAIR_SPECTRUM = np.array([(2 - math.sqrt(5)) / 6, 1 / 6, 1 / 6, (2 + math.sqrt(5)) / 6])


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_oracle_on_a_stack_matches_lapack(rng):
    stack = np.array([random_hermitian(rng, 4) for _ in range(200)])
    oracle = eigenvalues_by_bisection(stack)
    assert oracle.shape == (200, 4)
    assert np.max(np.abs(oracle - np.linalg.eigvalsh(stack))) < 1e-12


@pytest.mark.parametrize(
    "spectrum",
    [DUPLICATOR_PAIR_SPECTRUM, np.full(4, 0.25), np.zeros(4)],
    ids=["duplicator-pair-transpose", "quarter-identity", "zero"],
)
def test_oracle_resolves_repeated_roots(rng, spectrum):
    assert np.max(np.abs(eigenvalues_by_bisection(np.diag(spectrum)) - spectrum)) < 1e-14
    u = random_unitary(rng, 4)
    rotated = u @ np.diag(spectrum) @ u.conj().T
    assert np.max(np.abs(eigenvalues_by_bisection(rotated) - spectrum)) < 1e-14


def test_oracle_needs_no_lapack_eigensolver(rng, monkeypatch):
    h = random_hermitian(rng, 4)
    expected = np.linalg.eigvalsh(h)

    def unavailable(*args, **kwargs):
        raise AssertionError("the oracle must not call a LAPACK eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", unavailable)
    monkeypatch.setattr(np.linalg, "eigh", unavailable)
    assert np.max(np.abs(eigenvalues_by_bisection(h) - expected)) < 1e-12
    assert np.max(np.abs(eigenvalues_by_bisection(np.diag(DUPLICATOR_PAIR_SPECTRUM)) - DUPLICATOR_PAIR_SPECTRUM)) < 1e-14


def test_oracle_rejects_non_square_input():
    with pytest.raises(ValueError, match="square"):
        eigenvalues_by_bisection(np.zeros((4, 3)))


def reference_bisection(h):
    """The oracle as a plain loop that allocates every step: the frozen reference for bit-identity."""
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
    for _ in range(64):
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


def property_check_hermitians():
    """The 100 Hermitian matrices of ``properties.eigenvalue-oracle``: the last 3200 of seed 1234's 6250 draws.

    Before them come the 100 states (1600), the 100 rotation angles and the
    50 densities (150 weights and 1200 state parts).
    """
    draws = verify._uniforms(1234, 6250)[1600 + 100 + 150 + 1200 :].reshape(100, 2, 4, 4)
    m = draws[:, 0] + 1j * draws[:, 1]
    return (m + np.swapaxes(m.conj(), -1, -2)) / 2.0


def hermitian_stack(rng, count, n):
    return np.array([random_hermitian(rng, n) for _ in range(count)])


def test_oracle_draw_is_the_property_checks_draw():
    hermitians = property_check_hermitians()
    check = verify.run_verification(["properties"])[-1]
    assert check.check_id == "properties.eigenvalue-oracle"
    expected = np.max(np.abs(linalg.hermitian_eigenvalues(hermitians) - eigenvalues_by_bisection(hermitians)))
    assert check.error == float(expected)


def bit_identity_cases():
    rng = np.random.default_rng(2024)
    diagonals = np.array([[1.0, 2.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0], [0.5, -2.0, 0.5, 7.0]])
    yield "property-draw", property_check_hermitians()
    yield "zero-stack", np.zeros((3, 4, 4))
    yield "diagonal-repeated", diagonals[:, :, None] * np.eye(4)
    yield "duplicator-pair", np.diag(DUPLICATOR_PAIR_SPECTRUM)
    yield "integer-valued", np.round(3.0 * hermitian_stack(rng, 50, 4))
    yield "scaled-1e-150", 1e-150 * hermitian_stack(rng, 50, 4)
    for n in (1, 2, 3, 5, 8):
        yield f"n={n}", hermitian_stack(rng, 20, n)
    yield "two-leading-axes", hermitian_stack(rng, 21, 4).reshape(3, 7, 4, 4)


@pytest.mark.parametrize("h", [pytest.param(h, id=name) for name, h in bit_identity_cases()])
def test_oracle_is_bit_identical_to_the_plain_loop(h):
    expected = reference_bisection(h)
    got = eigenvalues_by_bisection(h)
    assert got.shape == expected.shape == h.shape[:-1]
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "h, message",
    [
        ([[math.nan, 0.0], [0.0, 1.0]], "non-finite"),
        ([[math.inf, 0.0], [0.0, 1.0]], "non-finite"),
        (np.zeros((0, 0)), "at least one row"),
        ([[0.0, 1.0], [0.0, 0.0]], "not Hermitian"),
    ],
    ids=["nan", "inf", "0x0", "non-hermitian"],
)
def test_oracle_rejects_inputs_outside_its_contract(h, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the oracle's own error, not a NumPy warning on the way
        with pytest.raises(ValueError, match=message):
            eigenvalues_by_bisection(h)


def test_oracle_accepts_an_empty_stack():
    # and so do the LAPACK route and the density checks, which raised NumPy's
    # "zero-size array to reduction operation maximum"
    empty = np.zeros((0, 4, 4))
    assert eigenvalues_by_bisection(empty).shape == (0, 4)
    assert linalg.hermitian_eigenvalues(empty).shape == (0, 4)
    assert linalg.validate_density(empty).shape == (0, 4, 4)
    assert separability.ppt_spectrum(empty).shape == (0, 4)


def test_oracle_hermiticity_tolerance_is_1e_10():
    # max|H| <= 1, so the bound is exactly 1e-10
    nearly = np.diag([0.125, 0.25]).astype(complex)
    nearly[0, 1] = 0.5e-10
    assert eigenvalues_by_bisection(nearly).shape == (2,)
    nearly[0, 1] = 2e-10
    with pytest.raises(ValueError, match="not Hermitian"):
        eigenvalues_by_bisection(nearly)


@pytest.mark.parametrize("eigensolver", [linalg.hermitian_eigenvalues, eigenvalues_by_bisection],
                         ids=["lapack", "oracle"])
def test_hermiticity_bound_scales_with_the_matrix(rng, eigensolver):
    # Q (1e6 diag(1, 2, 3, 4)) Q^H is Hermitian up to rounding; both routes rejected it under a flat 1e-10
    spectrum = 1e6 * np.array([1.0, 2.0, 3.0, 4.0])
    q = random_unitary(rng, 4)
    large = q @ np.diag(spectrum) @ q.conj().T
    assert np.max(np.abs(large - large.conj().T)) > 1e-10
    assert np.max(np.abs(eigensolver(large) - spectrum)) < 1e-8
    # in a stack, each matrix is held to its own scale, 1e-10 * max(1, max|H|) (linalg._EIG_HERMITICITY_TOL):
    # 10% inside passes and 10% outside raises, for max|H| <= 1 and for max|H| = 1e3
    for top in (0.25, 1e3):
        small = np.diag([top, 0.25, 0.25, 0.25]).astype(complex)
        small[0, 1] = 0.9e-10 * max(1.0, top)
        assert eigensolver(np.stack([large, small])).shape == (2, 4)
        small[0, 1] = 1.1e-10 * max(1.0, top)
        with pytest.raises(ValueError, match="not Hermitian"):
            eigensolver(np.stack([large, small]))
    skewed = large.copy()
    skewed[0, 1] += 1e-3  # max|H| <= ||H||_2 = 4e6, so the bound is at most 4e-4
    with pytest.raises(ValueError, match="not Hermitian"):
        eigensolver(skewed)


def test_each_group_alone_matches_its_rows_of_the_full_run():
    # the shared grids are built lazily and evaluate only what their checks read
    full = verify.run_verification()
    for group in verify.GROUP_ORDER:
        alone = verify.run_verification([group])
        rows = [c for c in full if c.group == group]
        assert alone == rows
        assert [c.error.hex() for c in alone] == [c.error.hex() for c in rows]


def test_random_targets_count_only_the_solved_rows(monkeypatch):
    solve = verify.solve_preparation_angles

    def one_row_off(targets):
        angles = solve(targets)
        angles.theta1[40] += 0.5  # row 40 is one of the 100 random targets
        return angles

    monkeypatch.setattr(verify, "solve_preparation_angles", one_row_off)
    check = next(c for c in verify.run_verification(["angles"]) if c.check_id == "angles.random-targets")
    assert check.observed.startswith("99/100 solved, worst residual ")
    assert not check.passed


def test_random_densities_are_a_stack_of_valid_densities():
    rhos = verify._random_densities(verify._uniforms(1234, 6250)[1700:3050], 50, 2)  # the property checks' slice
    assert rhos.shape == (50, 4, 4)
    linalg.validate_density(rhos)  # Hermitian, unit trace and positive semidefinite, every matrix


def splitmix64(seed, count):
    """SplitMix64 as a plain loop over Python ints: the reference for ``verify._uniforms``."""
    state, outputs = seed % 2**64, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        outputs.append(z ^ (z >> 31))
    return outputs


def test_uniforms_are_the_splitmix64_stream():
    # the generator's usual test vector: the first outputs for seed 1234567
    assert splitmix64(1234567, 3) == [6457827717110365317, 3203168211198807973, 9817491932198370423]
    for seed in (0, 1234, 20260810, 2**64 - 1, -1):
        expected = [(z >> 11) * 2.0**-52 - 1.0 for z in splitmix64(seed, 500)]
        assert verify._uniforms(seed, 500).tolist() == expected


def test_uniforms_are_pinned_and_repeatable():
    draws = verify._uniforms(1234, 6250)
    assert [x.hex() for x in draws[:4].tolist()] == [
        "0x1.d867b0d978c0cp-2", "0x1.7c7a1364df060p-3", "-0x1.3104146d90ff8p-1", "-0x1.8cedf06d697b0p-2",
    ]
    assert draws.dtype == np.float64 and np.all((draws >= -1.0) & (draws < 1.0))
    assert np.array_equal(draws, verify._uniforms(1234, 6250))


def test_verify_never_imports_numpy_random():
    # a fresh interpreter: this one has imported numpy.random for the tests' own draws
    package_root = str(Path(verify.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    code = "; ".join([
        "import sys", "from qcopynet import cli", "status = cli.main(['verify'])",
        "print(status, 'numpy.random' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert proc.stderr == ""


def test_commutation_checks_every_cnot_orientation(monkeypatch):
    # a CNOT(1, 0) that also applies Z to qubit 2 is still an involution, but fails to commute with R on qubit 2
    apply_gate = gates._apply_gate  # the binding gates._run folds
    z2 = np.array([1, -1, 1, -1, 1, -1, 1, -1])

    def signed_cnot(amps, num_qubits, gate):
        out = apply_gate(amps, num_qubits, gate)
        return out * z2 if gate == CNOT(1, 0) else out

    monkeypatch.setattr(gates, "_apply_gate", signed_cnot)
    checks = {c.check_id: c for c in verify.run_verification(["properties"])}
    assert checks["properties.gate-involution"].passed
    assert not checks["properties.gate-commutation"].passed


# The 39 checks and their pinned tolerances, in canonical verify order.
PINNED = [
    ("prep.duplicator-state", 1e-12),
    ("basis.zero-input", 1e-12),
    ("basis.one-input", 1e-12),
    ("fidelity.copies-identical", 1e-12),
    ("fidelity.ideal-weight", 1e-10),
    ("fidelity.orthogonal-weight", 1e-10),
    ("scaling.factor", 1e-10),
    ("distance.single-copy", 1e-10),
    ("distance.copy-pair", 1e-10),
    ("original.transpose-law", 1e-10),
    ("original.distance-formula", 1e-10),
    ("ppt.duplicator-spectrum", 1e-10),
    ("ppt.duplicator-verdict", 0.5),
    ("trip-prep.blank-state", 1e-12),
    ("trip-prep.output-pattern", 1e-12),
    ("trip-real.equal-reductions", 1e-12),
    ("trip-real.scaling", 1e-10),
    ("trip-real.pair-matrix", 1e-10),
    ("trip-real.d1", 1e-10),
    ("trip-real.d2", 1e-10),
    ("trip-real.d3", 1e-10),
    ("trip-real.pair-spectrum", 1e-10),
    ("trip-complex.single-matrix", 1e-10),
    ("trip-complex.d1", 1e-10),
    ("trip-complex.d2", 1e-10),
    ("trip-complex.d3", 1e-10),
    ("trip-complex.no-scaled-form", 0.5),
    ("bound.inequality", 1e-9),
    ("bound.tight-at-zero", 1e-9),
    ("bound.real-phase-eigenvalue", 1e-10),
    ("bound.minimum-at-quarter-phase", 0.5),
    ("angles.duplicator-recovery", 1e-9),
    ("angles.triplicator-recovery", 1e-9),
    ("angles.random-targets", 1e-10),
    ("properties.gate-involution", 1e-12),
    ("properties.gate-commutation", 1e-12),
    ("properties.transpose-involution", 1e-12),
    ("properties.trace-preservation", 1e-10),
    ("properties.eigenvalue-oracle", 1e-9),
]


def test_checks_keep_their_order_and_pinned_tolerances():
    assert [(c.check_id, c.tolerance) for c in verify.run_verification()] == PINNED


def test_a_group_short_of_one_result_raises(monkeypatch):
    distance = verify._GROUPS["distance"]
    monkeypatch.setitem(verify._GROUPS, "distance", lambda suite: distance(suite)[:-1])
    with pytest.raises(ValueError, match="shorter"):
        verify.run_verification(["distance"])


@pytest.mark.parametrize(
    "group, grid_name, check_id",
    [("scaling", "duplicator_grid", "scaling.factor"), ("trip-real", "triplicator_real_grid", "trip-real.scaling")],
)
def test_a_copy_without_a_scaling_fit_is_counted(monkeypatch, group, grid_name, check_id):
    grid = getattr(verify._Suite(), grid_name)
    unfit = np.arange(grid.theta.size) == 7
    vars(grid)["scaling"] = dict(grid.scaling, a2=np.where(unfit, np.nan, grid.scaling["a2"]))
    monkeypatch.setattr(verify._Suite, grid_name, grid)
    check = next(c for c in verify.run_verification([group]) if c.check_id == check_id)
    assert check.observed == "1 copies without a scaling fit"
    assert check.error == math.inf
    assert not check.passed


@pytest.mark.parametrize("tolerance", [None, 1e-15], ids=["default", "strict"])
def test_human_report_reads_only_the_document(tolerance):
    doc = verify.verification_document(verify.run_verification(tolerance=tolerance), tolerance=tolerance)
    human = verify.render_human(doc)
    assert verify.render_human(json.loads(render_json(doc))) == human
    assert human.endswith(f"39 checks: {doc['summary']['passed']} passed, {doc['summary']['failed']} failed\n")
