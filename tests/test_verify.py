import json
import math

import numpy as np
import pytest

from qcopynet import linalg, verify
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


def test_each_group_alone_matches_its_rows_of_the_full_run():
    # the shared grids are built lazily and evaluate only what their checks read
    full = verify.run_verification()
    for group in verify.GROUP_ORDER:
        alone = verify.run_verification([group])
        rows = [c for c in full if c.group == group]
        assert alone == rows
        assert [c.error.hex() for c in alone] == [c.error.hex() for c in rows]


def test_random_targets_count_only_the_solved_rows(monkeypatch):
    solve = verify._solve_angles

    def one_row_off(targets):
        angles = solve(targets)
        angles[40] += 0.5  # row 40 is one of the 100 random targets
        return angles

    monkeypatch.setattr(verify, "_solve_angles", one_row_off)
    check = next(c for c in verify.run_verification(["angles"]) if c.check_id == "angles.random-targets")
    assert check.observed.startswith("99/100 solved, worst residual ")
    assert not check.passed


def test_random_densities_are_a_stack_of_valid_densities():
    rhos = verify._random_densities(np.random.default_rng(1234), 50, 2)
    assert rhos.shape == (50, 4, 4)
    linalg.validate_density(rhos)  # Hermitian, unit trace and positive semidefinite, every matrix


def test_commutation_checks_every_cnot_orientation(monkeypatch):
    # a CNOT(1, 0) that also applies Z to qubit 2 is still an involution, but fails to commute with R on qubit 2
    apply_gate = verify._apply_gate
    z2 = np.array([1, -1, 1, -1, 1, -1, 1, -1])

    def signed_cnot(amps, num_qubits, gate):
        out = apply_gate(amps, num_qubits, gate)
        return out * z2 if gate == CNOT(1, 0) else out

    monkeypatch.setattr(verify, "_apply_gate", signed_cnot)
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
