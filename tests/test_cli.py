import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qcopynet
from qcopynet import CopyVariant, InputQubit, cli, copier, linalg, run_copier, verify
from qcopynet.cli import main
from qcopynet.gates import PureState
from qcopynet.report import CSV_COLUMNS, MAX_GRID_POINTS, GridSpec, SweepSpec, render_csv, render_json, sweep_document, sweep_rows
from qcopynet.separability import PptReport, ppt_verdict
from qcopynet.verify import run_verification, verification_document

from conftest import random_pure


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Amplitudes whose squares overflow or underflow, and zero, with the norm the
# error line must report for two of them; each case is asserted inside the one
# test per command, so the test ids stay those of the overflow-only tests.
# 1e-320 is itself subnormal: dividing complex amplitudes by it gave NaN and a traceback.
EXTREME_AMPLITUDES = (
    ("1e200", "1.414213562373095e+200"),
    ("1e-200", "1.414213562373095e-200"),
    ("1e-160", "1.4142135623730952e-160"),
    ("0", "0.0"),
    ("1e-320", "1.414e-320"),
)


def not_normalizable(what: str, norm: str) -> str:
    return f"error: {what} are not normalizable: norm {norm} deviates by more than 1e-6\n"


# ------------------------------------------------------------------- copy

# Copy reports pinned byte for byte; the duplicator's 1e-16 entries are the reductions' rounding.
EXPECTED = Path(__file__).parent / "expected"


def test_copy_human_output(capsys):
    # the README command, then a phased triplicator input, in human text and in JSON
    phased = ("--theta", "0.7853981633974483", "--phi", "0.3", "--variant", "triplicator")
    cases = [
        ("copy-duplicator-readme.txt", "--theta", "0.7853981633974483", "--phi", "0", "--variant", "duplicator"),
        ("copy-triplicator-phased.txt", *phased),
        ("copy-triplicator-phased.json", *phased, "--format", "json"),
    ]
    for expected, *argv in cases:
        code, out, err = run_cli(capsys, "copy", *argv)
        assert (code, err) == (0, "")
        assert out == (EXPECTED / expected).read_text(), expected


def reference_reduction_lines(label: str, m: np.ndarray) -> list[str]:
    """The two-pass form the renderer replaced: ``m[::-1, ::-1]``, then every entry of both blocks formatted."""
    n = linalg.num_qubits_of(m)
    kets = [f"|{i:0{n}b}>" for i in range(1 << n)]

    def block(matrix):
        return ["    [ " + "  ".join(f"{z.real:.6g}{z.imag:+.6g}j".rjust(22) for z in row) + " ]" for row in matrix]

    return [
        f"{label} reduction ({', '.join(kets)}):",
        *block(m),
        f"{label} reduction, reversed order ({', '.join(reversed(kets))}):",
        *block(m[::-1, ::-1]),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduction_lines_match_the_two_pass_reference(n, rng):
    for _ in range(20):
        dim = 1 << n
        m = rng.normal(size=(dim, dim)) * 10.0 ** rng.integers(-8, 8, (dim, dim)) + 1j * rng.normal(size=(dim, dim))
        signed = rng.integers(0, 4, (dim, dim))
        m.real[signed == 1], m.imag[signed == 2] = -0.0, -0.0
        m[signed == 3] = complex(0.0, -0.0)
        assert cli._reduction_lines("pair", m) == reference_reduction_lines("pair", m)


THREE_QUBIT_NETWORK = "R 0 0.7\nCNOT 0 1\nR 2 1.1\nCNOT 2 0\nR 1 -0.4\nCNOT 1 2\n"
COPY_ARGV = ["copy", "--alpha", "0.6", "--beta", "0.8", "--variant", "triplicator", "--format"]


@pytest.mark.parametrize("argv, network, shape", [
    pytest.param([*COPY_ARGV, "human"], None, (3, 4, 4), id="copy-human"),
    pytest.param([*COPY_ARGV, "json"], None, (3, 4, 4), id="copy-json"),
    pytest.param(["--state", "0.6,0,0.48j,0,0,0,0,0.64"], THREE_QUBIT_NETWORK, (3, 4, 4), id="network-three-qubits"),
    pytest.param(["--state", "0.6,0.48j,0,0.64"], "R 0 0.3\nCNOT 0 1\n", (1, 4, 4), id="network-two-qubits"),
])
def test_copy_and_network_requests_make_one_eigensolve(argv, network, shape, tmp_path, monkeypatch, capsys):
    # every pair of a request is verdicted from one stacked spectrum, and the program's
    # own pairs skip the positivity eigensolve
    if network is not None:
        net_file = tmp_path / "net.txt"
        net_file.write_text(network)
        argv = ["network", str(net_file), *argv]
    calls = []
    eigensolve = linalg.hermitian_eigenvalues
    monkeypatch.setattr(linalg, "hermitian_eigenvalues", lambda h: calls.append(np.shape(h)) or eigensolve(h))
    code, _, err = run_cli(capsys, *argv)
    assert (code, err, calls) == (0, "", [shape])


def test_copy_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "copy", "--theta", "0.6", "--phi", "2.0", "--variant", "triplicator",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    report = run_copier(InputQubit(0.6, 2.0), CopyVariant.TRIPLICATOR)
    assert doc["meta"]["variant"] == "triplicator"
    assert abs(doc["metrics"]["d1"]["a2"] - report.d1["a2"]) < 1e-15
    assert abs(doc["metrics"]["d3"] - report.d3) < 1e-15
    assert doc["metrics"]["scaling"]["a2"] is None
    re_a2 = np.array(doc["reductions"]["a2"]["re"]) + 1j * np.array(doc["reductions"]["a2"]["im"])
    assert np.max(np.abs(re_a2 - report.qubit_reductions["a2"])) < 1e-15
    assert doc["ppt"]["a2a3"]["inseparable"] is True


@pytest.mark.parametrize("variant", ["duplicator", "triplicator"])
def test_copy_verdicts_equal_one_ppt_verdict_per_pair(capsys, rng, variant):
    for theta, phi in zip(rng.uniform(0.0, math.pi / 2.0, 8).tolist(), rng.uniform(0.0, 2.0 * math.pi, 8).tolist()):
        code, out, _ = run_cli(
            capsys, "copy", "--theta", repr(theta), "--phi", repr(phi), "--variant", variant, "--format", "json"
        )
        assert code == 0
        report = run_copier(InputQubit(theta, phi), CopyVariant(variant))
        entries = json.loads(out)["ppt"]
        assert list(entries) == ["a2a3", "a1a2", "a1a3"]
        for label, entry in entries.items():
            verdict = PptReport(**{**entry, "spectrum": tuple(entry["spectrum"])})
            assert verdict == ppt_verdict(report.pair_reductions[label]), label


def test_copy_amplitude_input_equivalent_to_angles(capsys):
    code, out_amp, _ = run_cli(capsys, "copy", "--alpha", "1", "--beta", "0", "--format", "json")
    assert code == 0
    code, out_ang, _ = run_cli(
        capsys, "copy", "--theta", str(math.pi / 2.0), "--phi", "0", "--format", "json"
    )
    assert code == 0
    amp = json.loads(out_amp)
    ang = json.loads(out_ang)
    assert abs(amp["input"]["theta"] - ang["input"]["theta"]) < 1e-12
    assert amp["metrics"]["d1"] == ang["metrics"]["d1"]


def test_copy_takes_a_negative_beta_below_the_phase_cutoff_as_its_modulus(capsys):
    code, out, _ = run_cli(capsys, "copy", "--alpha", "1", "--beta=-0.9e-15")
    assert code == 0
    assert "beta=9.49411e-16\n" in out


def alpha_for_norm(norm: float) -> str:
    """--alpha that, beside --beta 0.8, gives amplitudes of the given norm."""
    return repr(math.sqrt(norm * norm - 0.64))


def test_copy_renormalizes_with_warning(capsys):
    code, _, err = run_cli(
        capsys, "copy", "--alpha", "0.70710678", "--beta", "0.70710678", "--format", "json"
    )
    assert code == 0
    assert "renormalizing" in err
    # silent up to _NORMALIZATION_WARN_TOL = 1e-12 on the norm, and renormalized with a warning up to
    # _NORMALIZATION_ERROR_TOL = 1e-6: 10% inside and outside the first, 10% inside the second
    for deviation, warns in ((0.9e-12, False), (1.1e-12, True), (0.9e-6, True)):
        code, _, err = run_cli(capsys, "copy", "--alpha", alpha_for_norm(1.0 + deviation), "--beta", "0.8")
        assert code == 0, deviation
        assert ("renormalizing" in err) is warns, deviation


def test_copy_rejects_unnormalizable(capsys):
    code, _, err = run_cli(capsys, "copy", "--alpha", "1", "--beta", "1")
    assert code == 2
    assert "not normalizable" in err
    # 10% outside _NORMALIZATION_ERROR_TOL = 1e-6
    code, out, err = run_cli(capsys, "copy", "--alpha", alpha_for_norm(1.0 + 1.1e-6), "--beta", "0.8")
    assert (code, out) == (2, "")
    assert "not normalizable" in err


def test_copy_rejects_nan_theta(capsys):
    code, out, err = run_cli(capsys, "copy", "--theta", "nan")
    assert code == 2
    assert out == ""
    assert err == "error: --theta and --phi must be finite\n"


def test_copy_rejects_infinite_theta(capsys):
    code, out, err = run_cli(capsys, "copy", "--theta", "inf")
    assert code == 2
    assert out == ""
    assert err == "error: --theta and --phi must be finite\n"


def test_copy_rejects_nan_alpha(capsys):
    code, out, err = run_cli(capsys, "copy", "--alpha", "nan", "--beta", "1")
    assert code == 2
    assert out == ""
    assert err == "error: amplitudes must be finite\n"


def test_copy_rejects_huge_amplitudes_with_one_error_line(capsys):
    for value, norm in EXTREME_AMPLITUDES:
        result = run_cli(capsys, "copy", "--alpha", value, "--beta", value)
        assert result == (2, "", not_normalizable("amplitudes", norm)), value


def test_copy_rejects_mixed_input_styles(capsys):
    code, _, err = run_cli(capsys, "copy", "--theta", "0.5", "--alpha", "1", "--beta", "0")
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--alpha", "1+", "--beta", "0"), "cannot parse --alpha '1+' as a complex number"),
        (("--alpha", "0.6"), "--alpha and --beta must be given together"),
        ((), "an input state is required: --theta [--phi] or --alpha --beta"),
    ],
    ids=["unparsable-alpha", "alpha-without-beta", "no-input"],
)
def test_copy_usage_error_is_one_line(capsys, argv, message):
    assert run_cli(capsys, "copy", *argv) == (2, "", f"error: {message}\n")


# ------------------------------------------------------------------ sweep

def test_sweep_csv_header_and_row_order(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--variant", "duplicator",
        "--theta", "0", "1.5707963267948966", "3", "--phi", "0", "3.14", "2",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 6
    thetas = [float(line.split(",")[0]) for line in lines[1:]]
    assert thetas == sorted(thetas)


def test_sweep_duplicator_d1_constant(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    run_cli(
        capsys, "sweep", "--variant", "duplicator",
        "--theta", "0", "1.5707963267948966", "5", "--phi", "0", "6.2", "5",
        "--out", str(out_file),
    )
    lines = out_file.read_text().strip().splitlines()[1:]
    idx = CSV_COLUMNS.index("d1_a2")
    for line in lines:
        assert abs(float(line.split(",")[idx]) - 1.0 / 18.0) < 1e-10


def test_sweep_triplicator_phase_dependence(tmp_path, capsys):
    out_file = tmp_path / "trip.csv"
    run_cli(
        capsys, "sweep", "--variant", "triplicator",
        "--theta", "0.7853981633974483", "0.7853981633974483", "1",
        "--phi", "0", "6.283185307179586", "13",
        "--out", str(out_file),
    )
    lines = out_file.read_text().strip().splitlines()[1:]
    phi_idx = CSV_COLUMNS.index("phi")
    d1_idx = CSV_COLUMNS.index("d1_a2")
    for line in lines:
        cells = line.split(",")
        phi = float(cells[phi_idx])
        expected = (1.0 + 3.0 * math.sin(phi) ** 2) / 18.0
        assert abs(float(cells[d1_idx]) - expected) < 1e-10


def test_sweep_csv_json_identical_numbers(tmp_path, capsys):
    args = ["sweep", "--variant", "triplicator",
            "--theta", "0", "1.2", "3", "--phi", "0", "5.9", "3"]
    csv_file = tmp_path / "s.csv"
    json_file = tmp_path / "s.json"
    assert run_cli(capsys, *args, "--out", str(csv_file), "--format", "csv")[0] == 0
    assert run_cli(capsys, *args, "--out", str(json_file), "--format", "json")[0] == 0
    csv_lines = csv_file.read_text().strip().splitlines()
    doc = json.loads(json_file.read_text())
    assert doc["meta"]["schema_version"] == "1"
    assert doc["summary"]["row_count"] == 9
    for line, row in zip(csv_lines[1:], doc["rows"]):
        cells = line.split(",")
        for column, cell in zip(CSV_COLUMNS, cells):
            value = row[column]
            if value is None:
                assert cell == ""
            elif isinstance(value, str):
                assert cell == value
            else:
                assert cell == format(value, ".17g")
    # the JSON text itself carries the same decimal strings
    json_text = json_file.read_text()
    for line in csv_lines[1:]:
        for cell in line.split(","):
            if cell and cell not in ("duplicator", "triplicator"):
                assert cell in json_text


def test_sweep_single_point_matches_copy(tmp_path, capsys):
    out_file = tmp_path / "point.csv"
    run_cli(
        capsys, "sweep", "--variant", "duplicator",
        "--theta", "0.9", "0.9", "1", "--phi", "1.3", "1.3", "1",
        "--out", str(out_file),
    )
    line = out_file.read_text().strip().splitlines()[1].split(",")
    report = run_copier(InputQubit(0.9, 1.3), CopyVariant.DUPLICATOR)
    assert float(line[CSV_COLUMNS.index("d1_a1")]) == pytest.approx(report.d1["a1"], abs=1e-15)
    assert float(line[CSV_COLUMNS.index("d2_a2a3")]) == pytest.approx(report.d2["a2a3"], abs=1e-15)
    assert float(line[CSV_COLUMNS.index("fid_a2")]) == pytest.approx(report.fidelity["a2"][0], abs=1e-15)
    assert line[CSV_COLUMNS.index("d3")] == ""


def test_sweep_metric_selection_blanks_columns(tmp_path, capsys):
    out_file = tmp_path / "metrics.csv"
    run_cli(
        capsys, "sweep", "--variant", "duplicator",
        "--theta", "0", "1", "2", "--phi", "0", "1", "2",
        "--metrics", "d1,E", "--out", str(out_file),
    )
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    for line in lines[1:]:
        cells = dict(zip(CSV_COLUMNS, line.split(",")))
        assert cells["d1_a2"] != ""
        assert cells["E_a2a3"] != ""
        assert cells["d2_a2a3"] == ""
        assert cells["s_a2"] == ""


def test_sweep_rejects_unknown_metric(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--theta", "0", "1", "2", "--phi", "0", "1", "2",
        "--metrics", "d9", "--out", "-",
    )
    assert code == 2
    assert "unknown metrics" in err


def test_sweep_rejects_grid_outside_range(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--theta", "0", "7.0", "2", "--phi", "0", "1", "2", "--out", "-"
    )
    assert code == 2
    assert "outside" in err


def test_sweep_rejects_grid_over_the_point_cap(capsys):
    # rejected while the spec is built, before any grid is allocated
    side = str(MAX_GRID_POINTS // 10)
    code, out, err = run_cli(
        capsys, "sweep", "--theta", "0", "1", side, "--phi", "0", "1", "11", "--out", "-"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"limit of {MAX_GRID_POINTS}" in err
    code, _, err = run_cli(
        capsys, "sweep", "--theta", "0", "1", "1e300", "--phi", "0", "1", "1", "--out", "-"
    )
    assert code == 2
    assert err.startswith("error: grid count must be between 1 and")


def test_sweep_rejects_infinite_grid_count(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--theta", "0", "1", "inf", "--phi", "0", "1", "2", "--out", "-"
    )
    assert code == 2
    assert out == ""
    assert err == "error: theta grid count must be an integer, got inf\n"


def test_sweep_rejects_unwritable_path(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--theta", "0", "1", "2", "--phi", "0", "1", "2",
        "--out", str(tmp_path / "missing" / "file.csv"),
    )
    assert code == 2
    assert "cannot write" in err


# ----------------------------------------------------------------- verify

def test_verify_subset_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "prep,basis,angles")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_overtight_tolerance_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "prep", "--tolerance", "1e-18")
    assert code == 1
    assert "FAIL" in out


def test_verify_unknown_group(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nope")
    assert code == 2
    assert "unknown check groups" in err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
@pytest.mark.parametrize("fmt", ["human", "json"])
def test_verify_rejects_bad_tolerance(capsys, tolerance, fmt):
    code, out, err = run_cli(capsys, "verify", "--tolerance", tolerance, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tolerance must be finite and non-negative")


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_verify_reports_a_check_that_raised_as_a_failure(capsys, monkeypatch, fmt):
    # a 1e-9 bias on every image of sigma_z/2 makes trip-real's computation raise
    transfer = copier._transfer
    bias = np.array([[1.0], [1.0], [1.0], [1.0 + 1e-9]])
    monkeypatch.setattr(copier, "_transfer", lambda variant, label: transfer(variant, label) * bias)
    code, out, err = run_cli(capsys, "verify", "--format", fmt)
    assert (code, err) == (1, "")
    if fmt == "json":
        doc = json.loads(out)
        assert doc["summary"] == {"total": 39, "passed": 21, "failed": 18}
        # every trip-real row fails with the exception, and the groups after it still ran
        assert {(row["error"], row["passed"], row["observed"]) for row in doc["rows"] if row["group"] == "trip-real"} == {
            (None, False, "ValueError: density matrix is not positive semidefinite (min eigenvalue -2.667e-10)")
        }
        assert doc["rows"][-1]["check_id"] == "properties.eigenvalue-oracle"
    else:
        assert out.endswith("39 checks: 21 passed, 18 failed\n")
        assert "FAIL  trip-real.pair-spectrum" in out and "observed ValueError: density matrix" in out


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_verify_exits_1_when_a_group_is_short_of_one_result(capsys, monkeypatch, fmt):
    # only the arguments are usage errors (exit 2), and they are checked before any group runs
    distance = verify._GROUPS["distance"]
    monkeypatch.setitem(verify._GROUPS, "distance", lambda suite: distance(suite)[:-1])
    code, out, err = run_cli(capsys, "verify", "--only", "prep,distance", "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "shorter" in err
    code, out, err = run_cli(capsys, "verify", "--only", "prep,nosuch", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: unknown check groups: ['nosuch']\n"


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--only", "prep,basis", "--format", "json")
    code2, out2, _ = run_cli(capsys, "verify", "--only", "prep,basis", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["summary"]["failed"] == 0
    assert {row["group"] for row in doc["rows"]} == {"prep", "basis"}


# ---------------------------------------------------------------- network

def test_network_command_runs_file(tmp_path, capsys):
    net_file = tmp_path / "prep.txt"
    net_file.write_text(
        "R 0 0.39269908169872414\n"
        "CNOT 0 1\n"
        "R 1 -0.16991845472706082\n"
        "CNOT 1 0\n"
        "R 0 0.39269908169872414\n"
    )
    code, out, _ = run_cli(capsys, "network", str(net_file))
    assert code == 0
    assert "final state (2 qubits)" in out
    assert "0.816497" in out  # 2/sqrt(6)
    assert "partial-transpose spectrum" in out


def test_network_output_at_one_and_three_qubits(tmp_path, capsys):
    # one qubit: the "1 qubit" header and no pairs; three qubits: three pairs verdicted from one stack.
    # The three-qubit text holds a 2.77556e-17 entry, its reductions' rounding.
    cases = [
        ("network-one-qubit.txt", "R 0 0.5\n", "1"),
        ("network-three-qubits.txt", THREE_QUBIT_NETWORK, "0.6,0,0.48j,0,0,0,0,0.64"),
    ]
    for expected, network, state in cases:
        net_file = tmp_path / "net.txt"
        net_file.write_text(network)
        want = (EXPECTED / expected).read_text()
        assert run_cli(capsys, "network", str(net_file), "--state", state) == (0, want, ""), expected


def test_network_state_options(tmp_path, capsys):
    net_file = tmp_path / "cnot.txt"
    net_file.write_text("CNOT 0 1\n")
    code, out, _ = run_cli(capsys, "network", str(net_file), "--state", "10")
    assert code == 0
    assert "|11>  1+0j" in out
    code, out, _ = run_cli(capsys, "network", str(net_file), "--state", "0.6,0,0,0.8")
    assert code == 0
    assert "|10>  0.8+0j" in out


def test_network_reductions_of_a_complex_state(tmp_path, capsys):
    # every reduction's diagonal prints a zero imaginary part, as in copy; a partial
    # trace of np.outer's projector leaves one of order 1e-18 on this state
    net_file = tmp_path / "entangler.txt"
    net_file.write_text("R 0 0.3\nCNOT 0 1\n")
    expected = """\
network: 2 gates on 2 qubits
final state (2 qubits):
  |00>  0.573202+0j
  |01>  -0.189133+0.458562j
  |10>  0.611415+0.14185j
  |11>  0.177312+0j
qubit 0 reduction (|0>, |1>):
    [             0.57461+0j             0.316929+0j ]
    [            0.316929+0j              0.42539+0j ]
qubit 0 reduction, reversed order (|1>, |0>):
    [             0.42539+0j             0.316929+0j ]
    [            0.316929+0j              0.57461+0j ]
qubit 1 reduction (|0>, |1>):
    [             0.72251+0j             0-0.237697j ]
    [            0+0.237697j              0.27749+0j ]
qubit 1 reduction, reversed order (|1>, |0>):
    [             0.27749+0j             0+0.237697j ]
    [            0-0.237697j              0.72251+0j ]
pair (0,1) partial-transpose spectrum: [-0.379459, 0.174407, 0.379459, 0.825593] -> inseparable
"""
    assert run_cli(capsys, "network", str(net_file), "--state", "0.6,0.48j,0,0.64") == (0, expected, "")


def reference_reduce_pure(amps: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """The pure-state reduction ``network`` used before it read ``partial_trace``: one einsum over the amplitudes.

    Qubit q is ket letter q; a kept qubit gets a fresh bra letter and a traced one repeats its ket letter.
    """
    n = linalg.num_qubits_of(amps)
    ket = "abc"[:n]
    fresh = dict(zip(keep, "def"))
    bra = "".join(fresh.get(q, ket[q]) for q in range(n))
    kept = "".join(ket[q] for q in keep) + "".join(fresh.values())
    t = amps.reshape((-1,) + (2,) * n)
    return np.einsum(f"n{ket},n{bra}->n{kept}", t, t.conj()).reshape(1 << len(keep), 1 << len(keep))


def reference_state_tail(amps: np.ndarray) -> list[str]:
    """The reduction blocks and pair lines of ``network``'s text, built from the reference's reductions."""
    n = linalg.num_qubits_of(amps)
    lines = [line for q in range(n) for line in cli._reduction_lines(f"qubit {q}", reference_reduce_pure(amps, (q,)))]
    for qa in range(n):
        for qb in range(qa + 1, n):
            verdict = ppt_verdict(reference_reduce_pure(amps, (qa, qb)))
            spectrum = ", ".join(cli._h(x) for x in verdict.spectrum)
            word = cli._separability_word(vars(verdict))
            lines.append(f"pair ({qa},{qb}) partial-transpose spectrum: [{spectrum}] -> {word}")
    return lines


SIGNED_ZEROS = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0))
# non-zero entries of unit norm, placed among signed zeros
SIGNED_ENTRIES = (
    (0.6, 0.8), (-0.6, 0.8j), (0.6j, -0.8), (-0.8j, -0.6j), (0.8, -0.6), (0.6, 0.48j, 0.64), (-0.48j, 0.64, -0.6),
)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_network_text_matches_the_frozen_pure_state_reduction(n, rng):
    # the projector's partial traces print what the retired einsum over the amplitudes printed, signed zeros included
    d = 1 << n
    states = [random_pure(rng, n) for _ in range(100)]
    fitting = [entries for entries in SIGNED_ENTRIES if len(entries) <= d]
    for _ in range(100):
        entries = fitting[rng.integers(len(fitting))]
        amps = np.array([SIGNED_ZEROS[i] for i in rng.integers(len(SIGNED_ZEROS), size=d)], dtype=complex)
        amps[rng.choice(d, len(entries), replace=False)] = entries
        states.append(amps)
    for amps in states:
        got = cli._state_lines(PureState(amps))
        assert got[1 + d:] == reference_state_tail(amps), amps


def test_network_parse_error_reports_line(tmp_path, capsys):
    net_file = tmp_path / "bad.txt"
    net_file.write_text("R 0 0.1\nNOPE 1 2\n")
    code, _, err = run_cli(capsys, "network", str(net_file))
    assert code == 2
    assert "line 2" in err


def test_network_index_error_reports_gate_position(tmp_path, capsys):
    net_file = tmp_path / "oob.txt"
    net_file.write_text("R 0 0.1\nCNOT 0 2\n")
    code, _, err = run_cli(capsys, "network", str(net_file), "--state", "00")
    assert code == 2
    assert "gate 2" in err
    assert "out of range" in err


def test_network_rejects_huge_state_amplitudes_with_one_error_line(tmp_path, capsys):
    net_file = tmp_path / "cnot.txt"
    net_file.write_text("CNOT 0 1\n")
    for value, norm in EXTREME_AMPLITUDES:
        result = run_cli(capsys, "network", str(net_file), "--state", f"{value},{value}j,0,0")
        assert result == (2, "", not_normalizable("amplitudes", norm)), value


@pytest.mark.parametrize(
    "state,message",
    [("0000", "at most 3 qubits are supported"), ("1,0,0", "amplitude count 3 is not a power of two within 2..8")],
    ids=["four-bits", "three-amplitudes"],
)
def test_network_rejects_a_state_beyond_the_register(tmp_path, capsys, state, message):
    net_file = tmp_path / "cnot.txt"
    net_file.write_text("CNOT 0 1\n")
    assert run_cli(capsys, "network", str(net_file), "--state", state) == (2, "", f"error: {message}\n")


def test_network_rejects_a_gate_beyond_the_register(tmp_path, capsys):
    net_file = tmp_path / "wide.txt"
    net_file.write_text("R 3 0.1\n")
    expected = f"error: {net_file}: network uses qubit 3; at most 3 qubits are supported\n"
    assert run_cli(capsys, "network", str(net_file)) == (2, "", expected)


def test_network_missing_file(capsys):
    code, _, err = run_cli(capsys, "network", "/nonexistent/net.txt")
    assert code == 2
    assert "cannot read" in err


def test_network_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    net_file = tmp_path / "latin.txt"
    net_file.write_bytes(b"R 0 1\xff\n")
    code, out, err = run_cli(capsys, "network", str(net_file))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {net_file}: ")
    assert err.count("\n") == 1


# ----------------------------------------------------------------- angles

def test_angles_command_duplicator_target(capsys):
    c = 1.0 / math.sqrt(6.0)
    code, out, _ = run_cli(capsys, "angles", str(2 * c), str(c), str(c), "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["angles"]["theta1"] - math.pi / 8.0) < 1e-9
    assert abs(doc["angles"]["theta2"] + math.asin(math.sqrt(0.5 - math.sqrt(2.0) / 3.0))) < 1e-9
    assert doc["residual"] < 1e-10


ANGLES_SEARCH_FAILURE = ["-0.6334260970058752", "0.22520128876980577", "0.2300465632607164", "0.7036578272855746"]


def test_angles_command_solves_target_a_local_search_missed(capsys):
    code, out, err = run_cli(capsys, "angles", "--format", "json", "--", *ANGLES_SEARCH_FAILURE)
    assert (code, err) == (0, "")
    assert json.loads(out)["residual"] <= 1e-10
    code, out, err = run_cli(capsys, "angles", "--", *ANGLES_SEARCH_FAILURE)
    assert (code, err) == (0, "")
    assert float(out.rsplit("max residual: ", 1)[1]) <= 1e-10


def test_angles_output(capsys):
    # README's two commands in human text, and the target a local search missed in JSON, pinned byte for byte; the
    # degenerate target pins its even split as it prints, with theta1 = 0.0 written as the JSON integer 0
    readme = ["0.8164965809277261", "0.4082482904638631", "0.4082482904638631", "0"]
    cases = [
        ("angles-readme.txt", *readme),
        ("angles-readme-negative.txt", "--", *ANGLES_SEARCH_FAILURE),
        ("angles-search-failure.json", "--format", "json", "--", *ANGLES_SEARCH_FAILURE),
        ("angles-degenerate.json", "--format", "json", "0.7071067811865476", "0", "0", "0.7071067811865476"),
    ]
    for expected, *argv in cases:
        code, out, err = run_cli(capsys, "angles", *argv)
        assert (code, err) == (0, "")
        assert out == (EXPECTED / expected).read_text(), expected


ANGLES_TARGETS = [
    ["0.8164965809277261", "0.4082482904638631", "0.4082482904638631", "0"],
    ANGLES_SEARCH_FAILURE,
    [repr(math.sqrt(0.5)), "0", "0", repr(math.sqrt(0.5))],
]


@pytest.mark.parametrize("target", ANGLES_TARGETS, ids=["readme", "readme-negative", "degenerate"])
def test_angles_human_report_reads_only_the_document(capsys, target):
    code, out, _ = run_cli(capsys, "angles", "--format", "json", "--", *target)
    assert code == 0
    code, human, _ = run_cli(capsys, "angles", "--", *target)
    assert code == 0
    assert cli._angles_human(json.loads(out)) == human


def test_angles_command_rejects_nan_target(capsys):
    code, out, err = run_cli(capsys, "angles", "nan", "0", "0", "1")
    assert code == 2
    assert out == ""
    assert err == "error: target amplitudes must be finite\n"


def test_angles_command_rejects_unnormalized(capsys):
    code, _, err = run_cli(capsys, "angles", "1", "1", "0", "0")
    assert code == 2
    assert "not normalizable" in err


def test_angles_command_rejects_huge_target_with_one_error_line(capsys):
    for value, norm in EXTREME_AMPLITUDES:
        result = run_cli(capsys, "angles", "--", value, value, "0", "0")
        assert result == (2, "", not_normalizable("target amplitudes", norm)), value


# ------------------------------------------------------- drawn amplitudes
# Every command that reads typed amplitudes, on drawn parts: NaN, +-inf, +-0, subnormals, 1e+-300 and any float.

SPECIAL_PARTS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-320, -1e-320, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300,
    -1e300, 1.0, -1.0, 0.6, 0.8, 0.7071067811865476, 0.5,
)
PARTS = st.one_of(st.sampled_from(SPECIAL_PARTS), st.floats())
AMPLITUDE_TEXT = st.one_of(PARTS.map(repr), st.builds(complex, PARTS, PARTS).map(repr))
FORMATS = st.sampled_from(["human", "json"])


@st.composite
def unit_amplitudes(draw, count: int, real: bool = False) -> list[str]:
    """``count`` amplitudes of unit 2-norm times 1 + a slack that crosses the warning and error bounds, as text."""
    width = count if real else 2 * count
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=width, max_size=width))
    slack = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-7, 1e-5]))
    scale = (1.0 + slack) / (math.sqrt(sum(p * p for p in parts)) or 1.0)
    parts = [p * scale for p in parts]
    return [repr(p) for p in parts] if real else [repr(complex(re, im)) for re, im in zip(parts[::2], parts[1::2])]


def amplitude_lists(count: int):
    return st.one_of(st.lists(AMPLITUDE_TEXT, min_size=count, max_size=count), unit_amplitudes(count))


AMPLITUDE_COMMANDS = st.one_of(
    st.tuples(st.just("copy"), amplitude_lists(2), FORMATS),
    st.tuples(st.just("network"), st.sampled_from([2, 4, 8]).flatmap(amplitude_lists), st.just("human")),
    st.tuples(
        st.just("angles"), st.one_of(st.lists(PARTS.map(repr), min_size=4, max_size=4), unit_amplitudes(4, real=True)),
        FORMATS,
    ),
)


@pytest.fixture(scope="module")
def rotation_file(tmp_path_factory):
    # one rotation on qubit 0 runs on a register of any size
    path = tmp_path_factory.mktemp("drawn") / "rotation.txt"
    path.write_text("R 0 0.5\n")
    return path


def amplitude_argv(command, net_file) -> list[str]:
    kind, values, fmt = command
    if kind == "copy":
        return ["copy", f"--alpha={values[0]}", f"--beta={values[1]}", "--format", fmt]
    if kind == "network":
        return ["network", str(net_file), f"--state={','.join(values)}"]
    return ["angles", "--format", fmt, "--", *values]


@given(command=AMPLITUDE_COMMANDS)
@example(command=("copy", ["1e-320", "1e-320"], "json"))  # EXTREME_AMPLITUDES covers human copies and 4-amplitude states
@example(command=("network", ["1e-320", "0"], "human"))
@settings(derandomize=True, deadline=None, max_examples=80)
def test_drawn_amplitudes_exit_0_or_2_with_the_promised_streams(rotation_file, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(amplitude_argv(command, rotation_file))
    lines = err.getvalue().splitlines()
    if code == 2:
        assert out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert code == 0
        assert len(lines) <= 1 and all(line.startswith("warning: renormalizing ") for line in lines), lines


# ------------------------------------------------------------- module runs

def run_module(*argv, **streams):
    # the child imports the same qcopynet as this process, installed or not;
    # both output streams are captured unless the caller routes them
    package_root = str(Path(qcopynet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "qcopynet", *argv], text=True, env=env,
                          **(streams or {"capture_output": True}))


def test_module_entry_point_version():
    proc = run_module("--version")
    assert proc.returncode == 0
    assert "qcopynet" in proc.stdout


def test_usage_error_exit_code():
    proc = run_module("copy", "--variant", "bogus")
    assert proc.returncode == 2


@pytest.mark.parametrize("command", ["copy", "network"])
def test_a_reader_that_closed_early_gets_exit_1_and_no_traceback(tmp_path, command):
    net_file = tmp_path / "cnot.txt"
    net_file.write_text("CNOT 0 1\n")
    argv = ["copy", "--theta", "0.3"] if command == "copy" else ["network", str(net_file), "--state", "10"]
    reader, writer = os.pipe()
    os.close(reader)  # before the child writes a byte
    try:
        proc = run_module(*argv, stdout=writer, stderr=subprocess.PIPE)
    finally:
        os.close(writer)
    assert (proc.returncode, proc.stderr) == (1, "")  # no traceback


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_calls_the_current_handler(monkeypatch, capsys):
    # the cached parser must not pin the handler bound when it was built
    target = ["0.8164965809277261", "0.4082482904638631", "0.4082482904638631", "0"]
    assert run_cli(capsys, "angles", *target)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_angles", lambda args: seen.append(args.amplitudes) or 0)
    assert run_cli(capsys, "angles", *target) == (0, "", "")
    assert seen == [[float(x) for x in target]]


# ----------------------------------------------------------- report layer

def test_gridspec_validation():
    with pytest.raises(ValueError, match="count"):
        GridSpec(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="outside"):
        GridSpec(-0.1, 1.0, 2)
    assert list(GridSpec(0.5, 0.5, 1).values()) == [0.5]


def test_gridspec_edge_slack_is_1e_12_above_two_pi():
    assert GridSpec(0.0, 2.0 * math.pi + 0.9e-12, 2).stop == 2.0 * math.pi + 0.9e-12
    with pytest.raises(ValueError, match="outside"):
        GridSpec(0.0, 2.0 * math.pi + 1.1e-12, 2)
    with pytest.raises(ValueError, match="outside"):
        GridSpec(-1e-13, 1.0, 2)  # no slack below 0


@pytest.mark.parametrize("count", [2.5, 3.0, True])
def test_gridspec_rejects_a_non_integer_count(count):
    with pytest.raises(ValueError, match="grid count must be an integer"):
        GridSpec(0.0, 1.0, count)


def test_sweepspec_rejects_unknown_metric():
    with pytest.raises(ValueError, match="unknown metrics"):
        SweepSpec(
            variant=CopyVariant.DUPLICATOR,
            theta_grid=GridSpec(0, 1, 2),
            phi_grid=GridSpec(0, 1, 2),
            metrics=frozenset({"d1", "zzz"}),
        )


@pytest.mark.parametrize("variant", ["duplicator", None])
def test_sweepspec_rejects_a_variant_that_is_not_a_member(variant):
    # a string used to pass here and fail later in sweep_rows with an AttributeError
    with pytest.raises(ValueError, match="variant must be a CopyVariant member"):
        SweepSpec(variant, GridSpec(0, 1, 2), GridSpec(0, 1, 2))


def test_format_float_17_digits_round_trip():
    values = [1.0 / 18.0, 2.0 / 9.0, math.pi, 5.0 / 6.0, 1e-300]
    spec = SweepSpec(CopyVariant.DUPLICATOR, GridSpec(0.0, 1.0, len(values)), GridSpec(0.0, 0.0, 1))
    doc = sweep_document(spec, sweep_rows(spec))
    for row, v in zip(doc["rows"], values):
        row["d1_a2"] = v
    column = CSV_COLUMNS.index("d1_a2")
    assert [float(line.split(",")[column]) for line in render_csv(doc).splitlines()[1:]] == values
    doc["rows"][0]["d1_a2"] = float("nan")
    with pytest.raises(ValueError):
        render_csv(doc)


def test_float64_cells_render_as_python_floats():
    spec = SweepSpec(CopyVariant.TRIPLICATOR, GridSpec(0.0, 1.5, 4), GridSpec(0.0, 6.0, 3))
    doc = sweep_document(spec, sweep_rows(spec))
    doc["rows"][0]["s_a2"] = math.nan  # a blank among s_a2's cells, next to columns with none
    # the same cells as float64 and None records, which JSON writes item by item, as the reference does
    rows64 = [{k: np.float64(v) if type(v) is float else v for k, v in row.items()} for row in reference_rows(doc)]
    doc64 = {**doc, "rows": rows64}
    doc["list"], doc64["list"] = [0.1, 2.5, -1e-300], [np.float64(0.1), 2.5, np.float64(-1e-300)]
    assert any(isinstance(v, np.float64) for v in doc64["rows"][1].values())
    assert render_csv(doc) == reference_csv(doc64)
    assert render_json(doc64) == render_json(doc) == reference_render_json(doc64)
    with pytest.raises(TypeError, match="typed table of sweep_rows"):
        render_csv(doc64)


def test_render_json_parses_and_matches_rows():
    spec = SweepSpec(
        variant=CopyVariant.DUPLICATOR,
        theta_grid=GridSpec(0.0, 1.0, 2),
        phi_grid=GridSpec(0.0, 1.0, 2),
    )
    rows = sweep_rows(spec)
    doc = sweep_document(spec, rows)
    json_text = render_json(doc)
    # floats compare by value, None as null
    assert json.loads(json_text)["rows"] == reference_rows(doc)
    csv_lines = render_csv(doc).splitlines()
    assert csv_lines[0] == ",".join(CSV_COLUMNS)
    # every CSV cell is the JSON decimal string of the same value, or empty for null
    decimals = json.loads(json_text, parse_float=str, parse_int=str)["rows"]
    assert len(decimals) == len(csv_lines) - 1 == 4
    for line, row in zip(csv_lines[1:], decimals):
        assert line.split(",") == ["" if row[column] is None else row[column] for column in CSV_COLUMNS]


@pytest.mark.parametrize(
    "value, re, im",
    [
        (complex(0.6, -0.0), 0.6, -0.0),
        (np.complex128(-2.5 + 1e-300j), -2.5, 1e-300),
        (np.array([0.6 + 0.2j, complex(0.0, -1.0)]), [0.6, 0.0], [0.2, -1.0]),
        (
            np.array([[0.5, 1 / 3 + 1e-17j], [1 / 3 - 1e-17j, 0.5]]),
            [[0.5, 1 / 3], [1 / 3, 0.5]],
            [[0.0, 1e-17], [-1e-17, 0.0]],
        ),
    ],
    ids=["complex", "complex128", "vector", "matrix"],
)
def test_render_json_writes_a_complex_value_as_its_parts(value, re, im):
    parts = {"re": re, "im": im}
    assert render_json({"z": value, "list": [value]}) == reference_render_json({"z": parts, "list": [parts]})


@pytest.mark.parametrize("shape", [(), (0,), (8,), (2, 2), (4, 4)], ids=str)
def test_render_json_writes_each_complex_shape_as_the_reference(shape, rng):
    # signed zeros and subnormal-scale parts, at three depths, so each shape's template serves three indents
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    flat = z.reshape(-1)
    flat[::3] = [complex(x, -0.0) for x in flat[::3].real]
    flat[1::3] = [complex(-0.0, 1e-300)] * len(flat[1::3])
    doc = {"z": z, "list": [z, z], "nested": {"deeper": {"z": z}}}
    assert render_json(doc) == reference_render_json(doc)
    assert json.loads(render_json(doc))["nested"]["deeper"]["z"] == {"re": z.real.tolist(), "im": z.imag.tolist()}


@pytest.mark.parametrize("value", [complex(0.5, math.nan), np.array([[0.5, 1j], [0.25j, complex(1.0, -math.inf)]])])
def test_render_json_rejects_a_non_finite_complex_part_as_the_reference_does(value):
    with pytest.raises(ValueError) as expected:
        reference_render_json({"z": value})
    with pytest.raises(ValueError) as raised:
        render_json({"z": value})
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) in ("non-finite value nan in report", "non-finite value -inf in report")


@pytest.mark.parametrize(
    "argv",
    [
        ("copy", "--theta", "0.7853981633974483", "--phi", "0.3", "--variant", "triplicator"),
        ("copy", "--alpha", "0.6", "--beta", "0.8j", "--variant", "duplicator"),
        ("angles", "0.8164965809277261", "0.4082482904638631", "0.4082482904638631", "0"),
        ("angles", "0.7071067811865476", "0", "0", "0.7071067811865476"),
    ],
    ids=["copy-triplicator", "copy-duplicator", "angles", "angles-degenerate"],
)
def test_render_json_matches_the_reference_on_documents_built_in_process(argv, monkeypatch, capsys):
    # the documents as the commands build them, numpy arrays and all, with no JSON round trip
    documents = []
    monkeypatch.setattr(cli, "render_json", lambda doc: documents.append(doc) or render_json(doc))
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and len(documents) == 1
    assert out == reference_render_json(documents[0])


def test_render_json_rejects_a_real_array():
    with pytest.raises(TypeError, match="cannot serialize ndarray"):
        render_json({"m": np.eye(2)})


def test_render_json_escapes_every_string():
    doc = {
        "line\nbreak": "x\ny",
        "tab\tkey": ["a\tb", 'quo"te'],
        'q"k\\': {"back\\slash": "\\", "100%": "%s"},
        "records": [{"%s": 1.5, 'k"\n': None}, {"%s": "%d", 'k"\n': True}],
    }
    assert json.loads(render_json(doc)) == doc
    assert render_json(doc) == reference_render_json(doc)


# The per-cell renderers that the column renderers replaced, kept here as the
# reference the column renderers must match byte for byte.  They read a
# sweep's typed table as the row dicts the sweep had before it was typed.
def reference_rows(document: dict) -> list[dict]:
    """A sweep document's table as one dict per record over every CSV column, None for a blank cell."""
    table, variant = document["rows"], document["meta"]["variant"]

    def cell(record, column):
        if column == "variant":
            return variant
        if column not in table.dtype.names:
            return None
        value = float(record[column])
        return None if column == "s_a2" and math.isnan(value) else value

    return [{column: cell(record, column) for column in CSV_COLUMNS} for record in table]


def with_reference_rows(document: dict) -> dict:
    return {**document, "rows": reference_rows(document)} if isinstance(document.get("rows"), np.ndarray) else document


def reference_float(value) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} in report")
    return format(float(value), ".17g")


def reference_csv(document: dict) -> str:
    def cell(value):
        if value is None:
            return ""
        return value if isinstance(value, str) else reference_float(value)

    lines = [",".join(CSV_COLUMNS)]
    for row in with_reference_rows(document)["rows"]:
        lines.append(",".join(cell(row[column]) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def reference_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, (complex, np.complexfloating, np.ndarray)) and np.iscomplexobj(value):
        z = np.asarray(value)
        return reference_json({"re": z.real.tolist(), "im": z.imag.tolist()}, indent)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return reference_float(value)
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.encoder.encode_basestring_ascii(key)}: {reference_json(item, indent + 1)}"
            for key, item in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {reference_json(item, indent + 1)}" for item in value)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_render_json(document: dict) -> str:
    return reference_json(with_reference_rows(document)) + "\n"


def assert_same_text(got: str, expected: str) -> None:
    """Equal texts, compared line by line: pytest's diff of two 500 kB strings would run for minutes."""
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    assert len(got_lines) == len(expected_lines)
    for number, (line, expected_line) in enumerate(zip(got_lines, expected_lines), 1):
        assert line == expected_line, f"line {number} differs"


README_THETA = GridSpec(0.0, math.pi / 2.0, 20)
README_PHI = GridSpec(0.0, 2.0 * math.pi, 40)


@pytest.mark.parametrize(
    "spec",
    [
        SweepSpec(CopyVariant.TRIPLICATOR, README_THETA, README_PHI),
        SweepSpec(CopyVariant.TRIPLICATOR, README_THETA, README_PHI, frozenset({"d1", "E"})),
        SweepSpec(CopyVariant.DUPLICATOR, README_THETA, README_PHI),
    ],
    ids=["readme", "d1-E", "duplicator"],
)
def test_column_renderers_match_the_per_cell_reference(spec):
    doc = sweep_document(spec, sweep_rows(spec))
    assert_same_text(render_csv(doc), reference_csv(doc))
    assert_same_text(render_json(doc), reference_render_json(doc))


@pytest.mark.parametrize(
    "groups, tolerance",
    [(["ppt", "bound"], None), (None, None), (None, 1e-15)],
    ids=["ppt-bound", "full", "tolerance-1e-15"],
)
def test_column_renderers_match_the_reference_on_a_verification_document(groups, tolerance):
    # the full suite's document is the one verify-full renders; at 1e-15 some rows fail
    doc = verification_document(run_verification(groups, tolerance), tolerance)
    assert render_json(doc) == reference_render_json(doc)


def test_column_renderers_match_the_reference_on_a_copy_document(capsys):
    # nested dicts and lists of floats; 17 significant digits round-trip, so
    # re-rendering the parsed document must give back the same text
    code, out, _ = run_cli(capsys, "copy", "--alpha", "0.6", "--beta", "0.8j", "--format", "json")
    assert code == 0
    assert reference_render_json(json.loads(out)) == out


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_column_renderers_reject_a_non_finite_cell_as_the_reference_does(bad):
    spec = SweepSpec(CopyVariant.DUPLICATOR, GridSpec(0.0, 1.0, 2), GridSpec(0.0, 1.0, 2))
    doc = sweep_document(spec, sweep_rows(spec))
    doc["rows"][2]["d1_a2"] = bad
    for render, reference in ((render_csv, reference_csv), (render_json, reference_render_json)):
        with pytest.raises(ValueError) as expected:
            reference(doc)
        with pytest.raises(ValueError) as raised:
            render(doc)
        assert str(raised.value) == str(expected.value) == f"non-finite value {bad!r} in report"


@pytest.mark.parametrize(
    "doc",
    [
        {"rows": [{"a": 1.0, "b": math.nan}, {"a": math.inf, "b": 1.0}]},
        {"list": [{"k": math.nan}, "x", math.inf]},
    ],
    ids=["records", "mixed-list"],
)
def test_render_json_names_the_first_non_finite_value_as_the_reference_does(doc):
    # the first non-finite value in document order
    with pytest.raises(ValueError) as expected:
        reference_render_json(doc)
    with pytest.raises(ValueError) as raised:
        render_json(doc)
    assert str(raised.value) == str(expected.value) == "non-finite value nan in report"


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ({1: math.nan}, ValueError, "non-finite value nan in report"),
        ({5: object()}, TypeError, "cannot serialize object"),
        ({"list": [{1: math.nan}]}, ValueError, "non-finite value nan in report"),
        ({"list": [0.5, {5: object()}]}, TypeError, "cannot serialize object"),
        # a dict's keys are encoded when its own values are done, before the values after it
        ({"inner": {5: 1.0}, "after": math.nan}, TypeError, "first argument must be a string, not int"),
    ],
    ids=["nan-under-int-key", "object-under-int-key", "in-a-list", "in-a-list-after-a-float", "inner-key-first"],
)
def test_render_json_raises_a_values_error_before_its_keys(doc, error, message):
    # the reference encodes each key before its value, so it is not the model here
    with pytest.raises(error) as raised:
        render_json(doc)
    assert str(raised.value) == message


def test_an_all_float_column_under_a_key_with_percent_and_newline_matches_the_reference():
    records = [{"50%\nof %s": 1.0 / (i + 3), "%%": -2.0**-i, "%d\t": "%s text"} for i in range(6)]
    doc = {"rows": records, "100%": {"%s": 0.1, "a\nb": [0.5, 1e-300, -3.0]}}
    assert render_json(doc) == reference_render_json(doc)
    assert json.loads(render_json(doc)) == doc


def test_a_column_mixing_float_none_str_and_bool_matches_the_reference():
    # cells equal under == but of another type or sign, each written as its own type and sign:
    # True and 1, 0 and False, (0.0,) and (-0.0,), 0j and -0j
    mixed = [0.25, None, "50%s", True, 1e-300, False, -7.5, "x\ny", 1, True, 1, None, 0, False, "50%s"]
    mixed += [(0.0,), (-0.0,), (True,), (1,), complex(0.0, 0.0), complex(0.0, -0.0), [1.0], [True]]
    doc = {"rows": [{"mixed": v, "x": float(i)} for i, v in enumerate(mixed)], "list": mixed}
    assert render_json(doc) == reference_render_json(doc)


@pytest.mark.parametrize(
    "render, make_doc",
    [
        (render_json, lambda table: {"t": table}),
        (render_json, lambda table: {"meta": {"variant": "duplicator"}, "rows": [1.0], "table": table}),
        (render_json, lambda table: {"rows": table}),
        (render_csv, lambda table: {"rows": table}),
        (render_csv, lambda table: {"meta": {}, "rows": table}),
    ],
    ids=["json-elsewhere", "json-beside-rows", "json-no-meta", "csv-no-meta", "csv-no-variant"],
)
def test_a_typed_table_outside_a_sweep_documents_rows_is_a_type_error(render, make_doc):
    table = sweep_rows(SweepSpec(CopyVariant.DUPLICATOR, GridSpec(0.0, 1.0, 2), GridSpec(0.0, 1.0, 2)))
    with pytest.raises(TypeError, match="read only as a sweep document's rows, beside a meta naming the variant$"):
        render(make_doc(table))


# theta 0, pi/4, pi/2 x phi 0, pi/4, ..., pi: record 5 (pi/4, 0) has a scaled form, record 6 (pi/4, pi/4) has none
SMALL_SWEEP = SweepSpec(CopyVariant.TRIPLICATOR, GridSpec(0.0, math.pi / 2.0, 3), GridSpec(0.0, math.pi, 5))


@pytest.mark.parametrize("column", [name for name in CSV_COLUMNS if name != "variant"])
def test_a_table_cell_edit_changes_its_row_and_nothing_else(column):
    table = sweep_rows(SMALL_SWEEP)
    assert list(table.dtype.names) == [name for name in CSV_COLUMNS if name != "variant"]
    assert math.isfinite(table[5]["s_a2"]) and math.isnan(table[6]["s_a2"])
    doc = sweep_document(SMALL_SWEEP, table)
    csv_before, json_before = render_csv(doc), render_json(doc)
    table[5][column] += 1e-9  # a record is a view: the edit reaches the document
    csv_after, json_after = render_csv(doc), render_json(doc)
    changed = [i for i, (a, b) in enumerate(zip(csv_before.split("\n"), csv_after.split("\n"))) if a != b]
    assert changed == [6] and len(csv_before.split("\n")) == len(csv_after.split("\n"))
    before, after = (json.loads(text, parse_float=str) for text in (json_before, json_after))
    assert [i for i, (a, b) in enumerate(zip(before["rows"], after["rows"])) if a != b] == [5]
    assert [key for key in CSV_COLUMNS if before["rows"][5][key] != after["rows"][5][key]] == [column]
    assert {**before, "rows": None} == {**after, "rows": None}
    assert json_after.count("\n") == json_before.count("\n")
    assert sum(a != b for a, b in zip(json_before.split("\n"), json_after.split("\n"))) == 1
    assert render_csv(doc) == reference_csv(doc) and render_json(doc) == reference_render_json(doc)


def test_a_table_with_no_records_renders_as_the_reference():
    # a filtered table: the CSV header alone, and an empty JSON list as for any other empty list
    doc = sweep_document(SMALL_SWEEP, sweep_rows(SMALL_SWEEP)[:0])
    assert render_csv(doc) == reference_csv(doc) == ",".join(CSV_COLUMNS) + "\n"
    assert render_json(doc) == reference_render_json(doc)
    assert json.loads(render_json(doc))["rows"] == []
    # a table none of whose fields is a CSV column has no cells either
    doc = {"meta": {"variant": "duplicator"}, "rows": np.zeros(2, dtype=[("other", float)])}
    assert render_csv(doc) == ",".join(CSV_COLUMNS) + "\n" and json.loads(render_json(doc))["rows"] == []


def test_an_s_a2_nan_is_blank_and_null_an_infinity_raises_and_a_negative_zero_keeps_its_sign():
    table = sweep_rows(SMALL_SWEEP)
    doc = sweep_document(SMALL_SWEEP, table)
    s_a2, theta = CSV_COLUMNS.index("s_a2"), CSV_COLUMNS.index("theta")
    blank = [line.split(",")[s_a2] == "" for line in render_csv(doc).splitlines()[1:]]
    assert blank == [math.isnan(s) for s in table["s_a2"]] and any(blank) and not all(blank)
    assert [row["s_a2"] is None for row in json.loads(render_json(doc))["rows"]] == blank
    table[0]["theta"] = -0.0  # theta 0.0 is shared by records 0-4: each distinct bit pattern has its own text
    csv_lines = render_csv(doc).splitlines()
    assert [line.split(",")[theta] for line in csv_lines[1:4]] == ["-0", "0", "0"]
    assert render_csv(doc) == reference_csv(doc) and render_json(doc) == reference_render_json(doc)
    table[6]["s_a2"] = -math.inf
    for render in (render_csv, render_json):
        with pytest.raises(ValueError, match=r"^non-finite value -inf in report$"):
            render(doc)


# ---------------------------------------------------------- document keys

def test_verification_rows_are_the_check_fields_copied():
    checks = run_verification(["prep"])
    row = verification_document(checks)["rows"][0]
    assert list(row) == ["check_id", "group", "description", "expected", "observed", "tolerance", "error", "passed"]
    row["observed"] = "edited"
    assert checks[0].observed != "edited"


def test_copy_ppt_entries_carry_the_report_fields(capsys):
    code, out, _ = run_cli(capsys, "copy", "--theta", "0.6", "--format", "json")
    assert code == 0
    for entry in json.loads(out)["ppt"].values():
        assert list(entry) == ["spectrum", "min_eigenvalue", "inseparable", "indeterminate"]


def test_angles_document_carries_the_angle_fields(capsys):
    target = ["0.8164965809277261", "0.4082482904638631", "0.4082482904638631", "0"]
    code, out, _ = run_cli(capsys, "angles", *target, "--format", "json")
    assert code == 0
    assert list(json.loads(out)["angles"]) == ["theta1", "theta2", "theta3"]


def test_sweep_grid_meta_is_the_grid_fields_copied():
    spec = SweepSpec(CopyVariant.DUPLICATOR, GridSpec(0.0, 1.0, 2), GridSpec(0.0, 1.0, 3))
    meta = sweep_document(spec, sweep_rows(spec))["meta"]
    assert meta["theta_grid"] == {"start": 0.0, "stop": 1.0, "count": 2}
    assert list(meta["theta_grid"]) == list(meta["phi_grid"]) == ["start", "stop", "count"]
    meta["theta_grid"]["count"] = 99
    assert spec.theta_grid.count == 2
