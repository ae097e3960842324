import math

import numpy as np
import pytest

from qcopynet import (
    CopyVariant,
    InputQubit,
    evaluate_grid,
    kron,
    ppt_verdict,
    run_copier,
)
from qcopynet.separability import ppt_spectrum
from qcopynet.verify import _negativity_bound

from conftest import random_density

SQRT5 = math.sqrt(5.0)
SQRT17 = math.sqrt(17.0)

DUP_SPECTRUM = np.sort([(2 - SQRT5) / 6, 1 / 6, 1 / 6, (2 + SQRT5) / 6])
TRIP_SPECTRUM = np.sort([-1 / 6, (5 - SQRT17) / 12, 1 / 3, (5 + SQRT17) / 12])


def test_product_state_is_separable():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    verdict = ppt_verdict(rho)
    assert not verdict.inseparable
    assert not verdict.indeterminate
    assert np.max(np.abs(np.array(verdict.spectrum) - np.array([0.0, 0.0, 0.0, 1.0]))) < 1e-12


def test_random_product_states_are_separable(rng):
    for _ in range(20):
        rho = kron(random_density(rng, 1), random_density(rng, 1))
        assert not ppt_verdict(rho).inseparable


def test_duplicator_pair_spectrum_input_independent():
    for theta, phi in [(0.0, 0.0), (0.5, 1.0), (math.pi / 4, math.pi / 2), (1.4, 5.9)]:
        report = run_copier(InputQubit(theta, phi), CopyVariant.DUPLICATOR)
        verdict = ppt_verdict(report.pair_reductions["a2a3"])
        assert verdict.inseparable
        assert np.max(np.abs(np.array(verdict.spectrum) - DUP_SPECTRUM)) < 1e-12


def test_triplicator_pair_spectrum_real_input():
    for theta in np.linspace(0.0, math.pi / 2.0, 9):
        report = run_copier(InputQubit(float(theta), 0.0), CopyVariant.TRIPLICATOR)
        for label in ("a2a3", "a1a2", "a1a3"):
            verdict = ppt_verdict(report.pair_reductions[label])
            assert verdict.inseparable
            assert np.max(np.abs(np.array(verdict.spectrum) - TRIP_SPECTRUM)) < 1e-12


def test_triplicator_pairs_inseparable_for_complex_inputs(rng):
    for _ in range(25):
        qubit = InputQubit(float(rng.uniform(0, math.pi / 2)), float(rng.uniform(0, 2 * math.pi)))
        report = run_copier(qubit, CopyVariant.TRIPLICATOR)
        assert ppt_verdict(report.pair_reductions["a2a3"]).inseparable


def test_spectrum_sums_to_one(rng):
    for _ in range(10):
        verdict = ppt_verdict(random_density(rng, 2))
        assert abs(sum(verdict.spectrum) - 1.0) < 1e-10


def test_indeterminate_band_close_to_zero():
    # Werner-like family: min PT eigenvalue is (1 - 3p)/4, tuned into (-1e-10, 0)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    bell_rho = np.outer(bell, bell.conj())
    p = 1.0 / 3.0 + 2e-10 / 3.0
    rho = p * bell_rho + (1.0 - p) * np.eye(4) / 4.0
    verdict = ppt_verdict(rho)
    assert not verdict.inseparable
    assert verdict.indeterminate


def test_ppt_verdict_rejects_invalid_density():
    with pytest.raises(ValueError):
        ppt_verdict(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        ppt_verdict(np.eye(2) / 2.0)  # one qubit


def test_ppt_spectrum_and_verdict_reject_a_hermitian_unit_trace_matrix_that_is_not_psd():
    # its partial transpose is itself, so without the check it would read as entangled
    not_psd = np.diag([0.75, 0.5, -0.25, 0.0])
    for check in (ppt_spectrum, ppt_verdict):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            check(not_psd)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        ppt_spectrum(np.stack([np.eye(4) / 4.0, not_psd]))


def test_ppt_spectrum_of_a_stack_matches_each_verdict(rng):
    stack = np.array([random_density(rng, 2) for _ in range(12)])
    spectra = ppt_spectrum(stack)
    assert spectra.shape == (12, 4)
    for rho, spectrum in zip(stack, spectra):
        assert tuple(spectrum.tolist()) == ppt_verdict(rho).spectrum


def test_ppt_spectrum_rejects_one_qubit_stack_and_verdict_rejects_a_stack(rng):
    with pytest.raises(ValueError, match="two-qubit"):
        ppt_spectrum(np.array([np.eye(2) / 2.0] * 3))
    with pytest.raises(ValueError, match="one matrix"):
        ppt_verdict(np.array([random_density(rng, 2) for _ in range(4)]))


# ------------------------------------------------------------------ bound

def bound_and_eigenvalue(thetas, phi=math.pi / 2.0):
    """The closed-form bound and the measured E of the triplicator's a2a3 pair, per theta."""
    grid = evaluate_grid(CopyVariant.TRIPLICATOR, thetas, [phi])
    return _negativity_bound(grid), grid.ppt_spectrum[:, 0]


def test_bound_at_basis_input():
    (bound,), (e,) = bound_and_eigenvalue([0.0])
    assert abs(bound + 1.0 / 6.0) < 1e-15
    assert abs(e + 1.0 / 6.0) < 1e-12
    assert abs(bound - e) < 1e-12


def test_bound_value_at_balanced_input():
    # |alpha|^2 = 1/2: bound = -(1 + (sqrt(5) - 2))/6 = -(sqrt(5) - 1)/6
    (bound,), (e,) = bound_and_eigenvalue([math.pi / 4.0])
    assert abs(bound + (SQRT5 - 1.0) / 6.0) < 1e-12
    assert e <= bound + 1e-9


def test_bound_holds_over_amplitude_grid():
    bound, e = bound_and_eigenvalue(np.linspace(0.0, math.pi / 2.0, 50))
    assert bound.shape == e.shape == (50,)
    assert np.all(e <= bound + 1e-9)


def test_bound_holds_at_three_quarter_phase():
    # 3*pi/2 has the same physics as pi/2
    bound, e = bound_and_eigenvalue([0.3], 3.0 * math.pi / 2.0)
    assert e[0] <= bound[0] + 1e-9


# ------------------------------------------------------------ correlation

CORRELATION_PHIS = [0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi]


@pytest.fixture(scope="module")
def correlation():
    """The triplicator's copy distance d1 and pair eigenvalue E on a (theta, phi) grid, shape (6, 5) each."""
    grid = evaluate_grid(CopyVariant.TRIPLICATOR, np.linspace(0.0, math.pi / 2.0, 6), CORRELATION_PHIS)
    return grid.d1["a2"].reshape(6, 5), grid.ppt_spectrum[:, 0].reshape(6, 5)


def test_correlation_real_phase_rows(correlation):
    d1, e = correlation
    real = [0, 4]  # phi = 0 and pi
    assert np.max(np.abs(e[:, real] + 1.0 / 6.0)) < 1e-10
    assert np.max(np.abs(d1[:, real] - 1.0 / 18.0)) < 1e-10


def test_correlation_minimum_at_quarter_phase(correlation):
    _, e = correlation
    assert np.all(e[:, 2] <= e.min(axis=1) + 1e-12)  # phi = pi/2


def test_correlation_distance_tracks_eigenvalue(correlation):
    # at fixed theta, a larger d1 never carries a higher (less negative) eigenvalue
    for d1, e in zip(*correlation):
        eigs = e[np.argsort(d1, kind="stable")]
        assert np.all(eigs[1:] <= eigs[:-1] + 1e-10)


def test_eigenvalue_phase_profile_dense_grid():
    # 100-point phase grid at fixed amplitude: maximum -1/6 at phi in {0, pi},
    # minimum at phi = pi/2 (and its mirror 3*pi/2)
    phis = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    eigs = evaluate_grid(CopyVariant.TRIPLICATOR, [0.6], phis).ppt_spectrum[:, 0]
    top = eigs.max()
    assert abs(top + 1.0 / 6.0) < 1e-10
    assert abs(eigs[0] - top) < 1e-12
    assert abs(eigs[50] - top) < 1e-12  # phi = pi
    bottom = eigs.min()
    assert abs(eigs[25] - bottom) < 1e-12  # phi = pi/2
    assert abs(eigs[75] - bottom) < 1e-12  # phi = 3*pi/2
    assert bottom < top - 1e-3


@pytest.mark.parametrize(("depth", "inseparable"), [(0.9e-10, False), (1.1e-10, True)])
def test_inseparability_tolerance_is_1e_10(depth, inseparable):
    # a Werner state p |Phi+><Phi+| + (1 - p) I/4: its partial transpose has least eigenvalue (1 - 3p)/4 = -depth
    p = (1.0 + 4.0 * depth) / 3.0
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    verdict = ppt_verdict(p * np.outer(bell, bell) + (1.0 - p) * np.eye(4) / 4.0)
    assert verdict.min_eigenvalue == pytest.approx(-depth, rel=1e-4)
    assert (verdict.inseparable, verdict.indeterminate) == (inseparable, not inseparable)
