import math

import numpy as np
import pytest

from qcopynet import verify
from qcopynet.verify import eigenvalues_by_bisection

from conftest import random_density, random_hermitian

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


def test_stacked_densities_draw_the_per_density_stream():
    stacked_rng, loop_rng = np.random.default_rng(1234), np.random.default_rng(1234)
    stacked = verify._random_densities(stacked_rng, 50, 2)
    looped = np.array([random_density(loop_rng, 2) for _ in range(50)])
    assert np.array_equal(stacked, looped)
    assert stacked_rng.normal() == loop_rng.normal()
