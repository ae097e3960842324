import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcopynet import linalg
from qcopynet.separability import _pair_spectra, ppt_spectrum
from qcopynet.verify import eigenvalues_by_bisection

from conftest import hs_distance, kron, random_density, random_hermitian

I2 = np.eye(2)
BELL = np.zeros(4, dtype=complex)
BELL[0b00] = BELL[0b11] = 1.0 / math.sqrt(2.0)
BELL_RHO = np.outer(BELL, BELL.conj())


# ------------------------------------------------------ test references
# conftest's kron and hs_distance, which the kernel, separability and
# partial-transpose tests compare against.

def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_projectors():
    p0 = np.diag([1.0, 0.0])
    assert np.array_equal(kron(p0, p0), np.diag([1.0, 0.0, 0.0, 0.0]))


def test_kron_uniform_superposition():
    # (|00>+|01>+|10>+|11>)/2 expanded by hand: every outer-product entry 1/4
    rho = np.full((2, 2), 0.5)
    assert np.max(np.abs(kron(rho, rho) - 0.25)) < 1e-15


# ---------------------------------------------------------- partial trace

def test_partial_trace_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    reduced = linalg.partial_trace(rho, (0,))
    assert np.max(np.abs(reduced - np.diag([1.0, 0.0]))) < 1e-15


def test_partial_trace_bell_state_is_maximally_mixed():
    for keep in ((0,), (1,)):
        reduced = linalg.partial_trace(BELL_RHO, keep)
        assert np.max(np.abs(reduced - I2 / 2.0)) < 1e-14


def test_partial_trace_duplicator_copy_scaled_form():
    # One copy of the uniform input is 2/3 * ideal + 1/6 * I = [[1/2, 1/3], [1/3, 1/2]]
    from qcopynet import CopyVariant, InputQubit, run_copier

    amps = run_copier(InputQubit(math.pi / 4.0, 0.0), CopyVariant.DUPLICATOR).output_state.amplitudes
    copy = linalg.partial_trace(np.outer(amps, amps.conj()), (1,))
    expected = np.array([[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.5]])
    assert np.max(np.abs(copy - expected)) < 1e-14


def test_partial_trace_keep_order_swaps_subsystems():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    swapped = linalg.partial_trace(rho, (1, 0))
    direct = rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert np.max(np.abs(swapped - direct)) < 1e-15
    # a stack (..., n, n) is reduced matrix by matrix, bit for bit
    stack = np.array([random_density(rng, 3) for _ in range(6)]).reshape(2, 3, 8, 8)
    for keep in ((0,), (2, 0), (1, 2, 0)):
        reduced = linalg.partial_trace(stack, keep)
        assert reduced.shape == (2, 3) + (1 << len(keep),) * 2
        for index in np.ndindex(2, 3):
            assert np.array_equal(reduced[index], linalg.partial_trace(stack[index], keep))


def test_partial_trace_rejects_bad_keep():
    rho = np.eye(4) / 4.0
    with pytest.raises(ValueError, match="^keep must name at least one qubit$"):
        linalg.partial_trace(rho, ())
    with pytest.raises(ValueError, match="^kept qubit 2 out of range for a 2-qubit state$"):
        linalg.partial_trace(rho, (2,))
    with pytest.raises(ValueError, match=r"^keep contains duplicate qubit indices: \(0, 0\)$"):
        linalg.partial_trace(rho, (0, 0))
    with pytest.raises(ValueError, match="^keep must hold integer qubit indices, got 5$"):
        linalg.partial_trace(rho, 5)


def test_partial_trace_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match=r"^expected a square matrix or a stack of them, got shape \(4, 2\)$"):
        linalg.partial_trace(np.zeros((4, 2)), (0,))


@pytest.mark.parametrize("keep", [(1.9,), (0, 1.0), ("1",), (True,), (0, np.True_)])
def test_partial_trace_rejects_a_non_integer_qubit(keep):
    # (1.9,) used to be truncated to qubit 1, and True read as qubit 1
    with pytest.raises(ValueError, match="^kept qubit must be an integer, got "):
        linalg.partial_trace(np.eye(4) / 4.0, keep)


def test_a_float_keep_is_rejected_right_after_its_integer_twin():
    # (0, 1.0) hashes equal to (0, 1), so a cache keyed on the unchecked tuple would let it through
    rho = np.eye(4) / 4.0
    linalg.partial_trace(rho, (0, 1))
    with pytest.raises(ValueError, match="^kept qubit must be an integer, got "):
        linalg.partial_trace(rho, (0, 1.0))


@pytest.mark.parametrize("scalar", [np.float64(1.0), np.array(2.0 + 1.0j), np.int64(4)])
def test_num_qubits_of_rejects_a_scalar(scalar):
    # a 0-d input used to fail with IndexError from its empty shape
    with pytest.raises(ValueError, match="got a scalar"):
        linalg.num_qubits_of(scalar)


# ------------------------------------------------------ partial transpose

def test_partial_transpose_product_state_stays_positive():
    rng = np.random.default_rng(5)
    a = random_density(rng, 1)
    b = random_density(rng, 1)
    pt = linalg.partial_transpose(kron(a, b), 1)
    expected = kron(a, b.T)
    assert np.max(np.abs(pt - expected)) < 1e-15
    assert linalg.hermitian_eigenvalues(pt)[0] > -1e-12


def test_partial_transpose_bell_state_min_eigenvalue():
    pt = linalg.partial_transpose(BELL_RHO, 1)
    eigs = linalg.hermitian_eigenvalues(pt)
    assert abs(eigs[0] + 0.5) < 1e-14
    assert np.max(np.abs(eigs[1:] - 0.5)) < 1e-14


def test_partial_transpose_matches_pair_pattern_real_input():
    # For the duplicator pair with real amplitudes, the transposed matrix
    # (descending basis) is the pinned pattern with corners 1 and diagonal 0.
    from qcopynet import CopyVariant, InputQubit, run_copier

    qubit = InputQubit(0.6, 0.0)
    report = run_copier(qubit, CopyVariant.DUPLICATOR)
    pt_desc = linalg.partial_transpose(report.pair_reductions["a2a3"], 1)[::-1, ::-1]
    a, b = qubit.alpha.real, qubit.beta
    expected = np.array(
        [
            [4 * b * b, 2 * a * b, 2 * a * b, 1.0],
            [2 * a * b, 1.0, 0.0, 2 * a * b],
            [2 * a * b, 0.0, 1.0, 2 * a * b],
            [1.0, 2 * a * b, 2 * a * b, 4 * a * a],
        ]
    ) / 6.0
    assert np.max(np.abs(pt_desc - expected)) < 1e-14


def test_partial_transpose_involution_exact(rng):
    rho = random_density(rng, 2)
    for subsystem in (0, 1):
        assert np.array_equal(linalg.partial_transpose(linalg.partial_transpose(rho, subsystem), subsystem), rho)


def test_spectrum_invariant_under_transposed_subsystem(rng):
    for _ in range(10):
        rho = random_density(rng, 2)
        s0 = linalg.hermitian_eigenvalues(linalg.partial_transpose(rho, 0))
        s1 = linalg.hermitian_eigenvalues(linalg.partial_transpose(rho, 1))
        assert np.max(np.abs(s0 - s1)) < 1e-10


def test_partial_transpose_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        linalg.partial_transpose(np.eye(8) / 8.0)
    with pytest.raises(ValueError):
        linalg.partial_transpose(np.eye(4) / 4.0, 2)


@pytest.mark.parametrize(
    "subsystem", [True, np.True_, 1.0, 0.0, np.float64(0.0)], ids=["True", "np.True_", "1.0", "0.0", "np.float64(0.0)"]
)
def test_partial_transpose_rejects_a_bool_or_float_subsystem(subsystem):
    # each of these used to transpose a qubit, as partial_trace's keep no longer lets a bool or float do
    with pytest.raises(ValueError, match="^transposed qubit must be an integer, got "):
        linalg.partial_transpose(np.eye(4) / 4.0, subsystem)


def test_partial_transpose_takes_a_numpy_integer_subsystem(rng):
    rho = random_density(rng, 2)
    assert np.array_equal(linalg.partial_transpose(rho, np.int64(1)), linalg.partial_transpose(rho, 1))


# ------------------------------------------------ loop references
# Reductions and transposes written as loops over basis bits, sharing no index
# arithmetic with linalg's einsum letters; qubit q is bit n-1-q of a basis index.

def loop_partial_trace(rho, keep):
    n = (rho.shape[-1] - 1).bit_length()
    traced = [q for q in range(n) if q not in keep]
    out = np.zeros(rho.shape[:-2] + (1 << len(keep),) * 2, dtype=complex)

    def index(kept_bits, traced_bits):
        bits = dict(zip(keep, kept_bits)) | dict(zip(traced, traced_bits))
        return sum(bit << (n - 1 - q) for q, bit in bits.items())

    for i, j in itertools.product(itertools.product((0, 1), repeat=len(keep)), repeat=2):
        row = int("".join(map(str, i)), 2)
        col = int("".join(map(str, j)), 2)
        for t in itertools.product((0, 1), repeat=len(traced)):
            out[..., row, col] += rho[..., index(i, t), index(j, t)]
    return out


def loop_partial_transpose(rho, subsystem):
    out = np.empty_like(rho)
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        # <ab|rho|cd> moves to <cb|.|ad> (qubit 0 transposed) or <ad|.|cb> (qubit 1)
        row, col = (2 * c + b, 2 * a + d) if subsystem == 0 else (2 * a + d, 2 * c + b)
        out[..., row, col] = rho[..., 2 * a + b, 2 * c + d]
    return out


def same_bits(got, want):
    """Equal entry for entry, the sign of every zero included."""
    return (
        got.shape == want.shape
        and np.array_equal(got, want)
        and all(np.array_equal(np.signbit(part(got)), np.signbit(part(want))) for part in (np.real, np.imag))
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reductions_match_the_loop_partial_trace(n, rng):
    d = 1 << n
    mixed = np.array([random_density(rng, n) for _ in range(6)]).reshape(2, 3, d, d)
    for size in range(1, n + 1):
        for keep in itertools.permutations(range(n), size):
            # two batch axes, then a single matrix
            for rho in (mixed, mixed[1, 2]):
                assert np.max(np.abs(linalg.partial_trace(rho, keep) - loop_partial_trace(rho, keep))) <= 1e-15


def test_partial_transpose_matches_the_loop_transpose(rng):
    stack = (rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4)))
    stack[0, 0, 1, 2] = complex(-0.0, 0.5)
    stack[1, 2, 3, 0] = complex(0.25, -0.0)
    for subsystem in (0, 1):
        for rho in (stack, stack[0, 0], stack[1, 2]):
            assert same_bits(linalg.partial_transpose(rho, subsystem), loop_partial_transpose(rho, subsystem))


# ------------------------------------------------------------ eigenvalues

def test_eigenvalues_diagonal():
    eigs = linalg.hermitian_eigenvalues(np.diag([4.0, 1.0, 1.0, 0.0]) / 6.0)
    assert np.max(np.abs(eigs - np.array([0.0, 1 / 6, 1 / 6, 2 / 3]))) < 1e-14


def test_eigenvalues_duplicator_pair_transpose_any_input():
    from qcopynet import CopyVariant, InputQubit, run_copier

    expected = np.sort([(2 - math.sqrt(5)) / 6, 1 / 6, 1 / 6, (2 + math.sqrt(5)) / 6])
    for theta, phi in [(0.3, 0.9), (1.1, 4.0), (math.pi / 4, math.pi / 2)]:
        report = run_copier(InputQubit(theta, phi), CopyVariant.DUPLICATOR)
        eigs = linalg.hermitian_eigenvalues(linalg.partial_transpose(report.pair_reductions["a2a3"], 1))
        assert np.max(np.abs(eigs - expected)) < 1e-12


def test_eigenvalues_match_inertia_bisection_oracle(rng):
    worst = 0.0
    for _ in range(100):
        h = random_hermitian(rng, 4)
        worst = max(worst, float(np.max(np.abs(linalg.hermitian_eigenvalues(h) - eigenvalues_by_bisection(h)))))
    assert worst < 1e-9


def test_eigenvalues_keep_degenerate_entries():
    eigs = linalg.hermitian_eigenvalues(np.eye(4) * 0.25)
    assert eigs.shape == (4,)
    assert np.max(np.abs(eigs - 0.25)) < 1e-14


def test_eigenvalues_reject_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.hermitian_eigenvalues(m)


def test_eigenvalues_reject_a_nan_matrix():
    # the deviation test was NaN-blind: this input returned a NaN spectrum
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.hermitian_eigenvalues(np.full((2, 2), np.nan))


def test_eigenvalues_of_a_matrix_near_the_float_limit():
    # the Hermitian part was taken as (H + H^H)/2, whose sum overflowed here to a NaN spectrum
    h = np.array([[1e308, 1e300 + 1e292j], [1e300, 1.5e308]])
    h.flags.writeable = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eigs = linalg.hermitian_eigenvalues(h)
    assert eigs.tolist() == [1e308, 1.5e308]


def test_eigenvalues_are_those_of_the_halves_first_hermitian_part_bit_for_bit(rng):
    # a deviation of 1e-13 is within the bound, and makes H differ from its Hermitian part
    h = np.array([random_hermitian(rng, 4) for _ in range(50)])
    h += 1e-13 * (rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape))
    want = np.linalg.eigvalsh(h / 2.0 + h.swapaxes(-1, -2).conj() / 2.0)
    assert linalg.hermitian_eigenvalues(h).tobytes() == want.tobytes()


@pytest.mark.parametrize("route", [linalg.hermitian_eigenvalues, linalg.validate_density, ppt_spectrum, _pair_spectra])
@pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
def test_eigen_and_density_routes_never_write_to_the_callers_stack(route, writeable, rng):
    # each route forms its Hermiticity deviation and Hermitian part in buffers of its own
    stack = np.array([random_density(rng, 2) for _ in range(50)])
    stack[0] += 1e-13j * rng.normal(size=(4, 4))  # Hermitian within 1e-12, but not bit for bit
    before = stack.copy()
    stack.flags.writeable = writeable
    route(stack)
    assert stack.tobytes() == before.tobytes()


def test_eigenvalues_reject_an_infinite_entry():
    # an infinite deviation is not covered by an infinite scale; where the deviation is inf - inf,
    # NaN, the ValueError comes with no RuntimeWarning, which pytest turns into an error
    inf = math.inf
    for m in ([[0.0, inf], [0.0, 0.0]], [[0.0, inf], [inf, 0.0]], [[inf, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.hermitian_eigenvalues(np.array(m))


# -------------------------------------------------------------- distance

def test_hs_distance_zero_on_equal():
    rho = random_density(np.random.default_rng(11), 2)
    assert hs_distance(rho, rho) == 0.0


def test_hs_distance_orthogonal_pure_states():
    assert abs(hs_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 2.0) < 1e-15


def test_hs_distance_duplicator_copy():
    from qcopynet import CopyVariant, InputQubit, run_copier

    qubit = InputQubit(0.8, 2.1)
    report = run_copier(qubit, CopyVariant.DUPLICATOR)
    psi = np.array([qubit.alpha, qubit.beta])
    d = hs_distance(report.qubit_reductions["a2"], np.outer(psi, psi.conj()))
    assert abs(d - 1.0 / 18.0) < 1e-12


# ----------------------------------------------------------- validation

def test_validate_density_accepts_valid(rng):
    rho = random_density(rng, 2)
    assert linalg.validate_density(rho) is not None


def test_validate_density_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        linalg.validate_density(np.eye(2))


def test_validate_density_rejects_a_non_finite_entry():
    with pytest.raises(ValueError, match="^density matrix has non-finite entries$"):
        linalg.validate_density([[math.nan, 0.0], [0.0, 1.0]])


def test_validate_density_rejects_negative():
    with pytest.raises(ValueError, match="positive"):
        linalg.validate_density(np.diag([1.5, -0.5]))


def test_validate_density_hermiticity_tolerance_is_1e_12():
    m = np.array([[0.5, 0.9e-12], [0.0, 0.5]])
    assert linalg.validate_density(m) is not None
    m[0, 1] = 1.1e-12
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.validate_density(m)


def test_validate_density_trace_tolerance_is_1e_12():
    assert linalg.validate_density(np.diag([0.5, 0.5 + 0.9e-12])) is not None
    with pytest.raises(ValueError, match="trace"):
        linalg.validate_density(np.diag([0.5, 0.5 + 1.1e-12]))


def test_validate_density_psd_tolerance_is_1e_10():
    assert linalg.validate_density(np.diag([1.0 + 0.9e-10, -0.9e-10])) is not None
    with pytest.raises(ValueError, match="positive semidefinite"):
        linalg.validate_density(np.diag([1.0 + 1.1e-10, -1.1e-10]))


def test_validate_density_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.validate_density(m)


# ------------------------------------------------------- property suite

@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_partial_trace_yields_valid_density(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 3)
    for keep in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2)):
        reduced = linalg.partial_trace(rho, keep)
        linalg.validate_density(reduced)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_partial_transpose_spectrum_sums_to_one(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 2)
    eigs = linalg.hermitian_eigenvalues(linalg.partial_transpose(rho, 1))
    assert abs(float(np.sum(eigs)) - 1.0) < 1e-10


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_kron_associative_and_trace_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = random_density(rng, 1)
    b = random_density(rng, 1)
    c = random_density(rng, 1)
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert np.max(np.abs(left - right)) < 1e-15
    ab = kron(a, b)
    assert abs(complex(np.trace(ab)) - complex(np.trace(a)) * complex(np.trace(b))) < 1e-12


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_hs_distance_two_routes_agree(seed):
    rng = np.random.default_rng(seed)
    rho1 = random_density(rng, 2)
    rho2 = random_density(rng, 2)
    via_trace = hs_distance(rho1, rho2)
    delta = rho1 - rho2
    via_entries = float(np.sum(np.abs(delta) ** 2))
    assert abs(via_trace - via_entries) < 1e-12
    assert abs(hs_distance(rho2, rho1) - via_trace) < 1e-15
