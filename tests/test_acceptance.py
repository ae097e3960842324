"""Acceptance suite: every pinned closed-form law at its stated tolerance.

Each criterion runs the corresponding group of the built-in verification
engine (fixed 20x20 grids, fixed seeds) and prints one pass/fail line.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines, or
``qcopynet verify`` for the standalone equivalent.
"""

import math

import numpy as np
import pytest

from qcopynet import verify


@pytest.fixture(scope="module")
def all_checks():
    return verify.run_verification()


def by_group(checks, group):
    return [c for c in checks if c.group == group]


def report_criterion(checks, number, group, title):
    group_checks = by_group(checks, group)
    assert group_checks, f"no checks ran for group {group!r}"
    ok = all(c.passed for c in group_checks)
    worst = max(group_checks, key=lambda c: (not math.isfinite(c.error), c.error / c.tolerance))
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {title} "
        f"({len(group_checks)} checks, worst {worst.check_id}: "
        f"error {worst.error:.3e} vs tol {worst.tolerance:g})"
    )
    print(line)
    assert ok, line
    return group_checks


def test_criterion_01_preparation_state(all_checks):
    checks = report_criterion(all_checks, 1, "prep", "duplicator preparation state")
    assert all(c.tolerance == 1e-12 for c in checks)


def test_criterion_02_basis_copying(all_checks):
    checks = report_criterion(all_checks, 2, "basis", "basis-state copying transformation")
    assert all(c.tolerance == 1e-12 for c in checks)
    assert {c.check_id for c in checks} == {"basis.zero-input", "basis.one-input"}


def test_criterion_03_copy_fidelity(all_checks):
    checks = report_criterion(all_checks, 3, "fidelity", "copy fidelity split (5/6, 1/6)")
    assert "fidelity.copies-identical" in {c.check_id for c in checks}
    assert all(c.error <= c.tolerance for c in checks)


def test_criterion_04_scaling(all_checks):
    checks = report_criterion(all_checks, 4, "scaling", "scaled-form factor s = 2/3")
    assert all(c.error <= 1e-10 for c in checks)


def test_criterion_05_constant_distances(all_checks):
    checks = report_criterion(all_checks, 5, "distance", "constant distances 1/18 and 2/9")
    assert {c.check_id for c in checks} == {"distance.single-copy", "distance.copy-pair"}
    assert all(c.error <= 1e-10 for c in checks)


def test_criterion_06_original_qubit_law(all_checks):
    report_criterion(all_checks, 6, "original", "original-qubit transpose law and distance")


def test_criterion_07_duplicator_ppt(all_checks):
    checks = report_criterion(all_checks, 7, "ppt", "duplicator pair spectrum and verdict")
    spectrum_check = next(c for c in checks if c.check_id == "ppt.duplicator-spectrum")
    assert spectrum_check.error <= 1e-10


def test_criterion_08_triplicator_preparation(all_checks):
    checks = report_criterion(all_checks, 8, "trip-prep", "triplicator preparation and output pattern")
    assert all(c.tolerance == 1e-12 for c in checks)


def test_criterion_09_triplicator_real(all_checks):
    checks = report_criterion(all_checks, 9, "trip-real", "triplicator on real amplitudes")
    ids = {c.check_id for c in checks}
    assert {
        "trip-real.equal-reductions",
        "trip-real.scaling",
        "trip-real.pair-matrix",
        "trip-real.d1",
        "trip-real.d2",
        "trip-real.d3",
        "trip-real.pair-spectrum",
    } <= ids


def test_criterion_10_triplicator_complex(all_checks):
    checks = report_criterion(all_checks, 10, "trip-complex", "triplicator on complex amplitudes")
    ids = {c.check_id for c in checks}
    assert "trip-complex.no-scaled-form" in ids
    for c in checks:
        if c.check_id.startswith("trip-complex.d"):
            assert c.error <= 1e-10


def test_criterion_11_negativity_bound(all_checks):
    checks = report_criterion(all_checks, 11, "bound", "quarter-phase bound, its tightness, and E across phase")
    inequality = next(c for c in checks if c.check_id == "bound.inequality")
    assert inequality.tolerance == 1e-9
    tight = next(c for c in checks if c.check_id == "bound.tight-at-zero")
    assert tight.error <= 1e-9


def test_criterion_12_angle_solver(all_checks):
    checks = report_criterion(all_checks, 12, "angles", "preparation-angle solver")
    random_check = next(c for c in checks if c.check_id == "angles.random-targets")
    assert random_check.tolerance == 1e-10
    assert "100/100 solved" in random_check.observed


def test_criterion_13_property_suites(all_checks):
    checks = report_criterion(all_checks, 13, "properties", "gate/transpose/trace/eigen properties")
    oracle = next(c for c in checks if c.check_id == "properties.eigenvalue-oracle")
    assert oracle.tolerance == 1e-9


def test_engine_is_not_vacuous(all_checks):
    # an over-tight tolerance must surface failures, proving checks can fail
    strict = verify.run_verification(groups=["prep", "fidelity"], tolerance=1e-18)
    assert any(not c.passed for c in strict)
    # and the full default run covers every group exactly once each, in canonical order
    assert {c.group for c in all_checks} == set(verify.GROUP_ORDER)
    ran = [c.group for c in all_checks]
    assert ran == sorted(ran, key=verify.GROUP_ORDER.index)
    assert all(c.check_id.startswith(c.group + ".") for c in all_checks)


def test_grid_checks_take_batched_spectra(monkeypatch):
    # trip-real and bound take their spectra from whole grids: per point, they made 346 calls
    calls = []
    original = verify.linalg.hermitian_eigenvalues
    monkeypatch.setattr(verify.linalg, "hermitian_eigenvalues", lambda h: calls.append(1) or original(h))
    checks = verify.run_verification(["trip-real", "bound"])
    assert all(c.passed for c in checks)
    assert len(calls) < 40


def test_grid_shapes_match_stated_coverage(all_checks):
    # criteria 3-7 run on a 20x20 grid; the fidelity description records it
    fid = by_group(all_checks, "fidelity")[0]
    assert "400 grid points" in fid.description


def test_full_suite_summary(all_checks):
    passed = sum(1 for c in all_checks if c.passed)
    print(f"[PASS] full verification: {passed}/{len(all_checks)} checks green")
    assert passed == len(all_checks)


def test_numeric_spot_values(all_checks):
    # independent re-computation of two pinned values underlying the suite
    from qcopynet import CopyVariant, InputQubit, run_copier
    from qcopynet.linalg import hermitian_eigenvalues, partial_transpose

    report = run_copier(InputQubit(math.pi / 4.0, 0.0), CopyVariant.DUPLICATOR)
    assert report.d1["a2"] == pytest.approx(1.0 / 18.0, abs=1e-12)
    eigs = hermitian_eigenvalues(partial_transpose(report.pair_reductions["a2a3"], 1))
    assert eigs[0] == pytest.approx((2.0 - math.sqrt(5.0)) / 6.0, abs=1e-12)
    expected = np.sort([(2 - math.sqrt(5)) / 6, 1 / 6, 1 / 6, (2 + math.sqrt(5)) / 6])
    assert np.max(np.abs(eigs - expected)) < 1e-12
