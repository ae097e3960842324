"""Independent reference for every output the benchmark checks.

Nothing here calls qcopynet's kernels.  A network is a list of gate tuples
``("R", qubit, theta)`` or ``("CNOT", control, target)``; the oracle builds
its dense unitary from ``np.kron`` products, reduces the output state with
``einsum`` and takes spectra with ``np.linalg.eigvalsh``.  The copier's gate
list is written out here from the paper, not taken from ``copier.py``.

Qubit 0 is the most significant bit, as in the package's README.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

COLUMNS = (
    "theta", "phi", "variant",
    "d1_a1", "d1_a2", "d1_a3",
    "d2_a2a3", "d2_a1a2", "d2_a1a3",
    "d3", "s_a2", "fid_a2", "E_a2a3",
)
QUBITS = ("a1", "a2", "a3")
PAIRS = ("a2a3", "a1a2", "a1a3")

EXACT_TOL = 1e-12       # machine-format numbers (CSV, JSON)
ANGLES_TOL = 1e-10      # a solved angle triple must reproduce its target this closely
HUMAN_REL_TOL = 1e-5    # human output carries 6 significant digits
SCALING_TOL = 1e-10     # README: s is empty when the state has no scaled form
INSEPARABLE_BELOW = -1e-10

_I2 = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_P0 = np.diag([1.0, 0.0])
_P1 = np.diag([0.0, 1.0])
_THETA2 = math.asin(math.sqrt(0.5 - math.sqrt(2.0) / 3.0))


def _embed(ops: dict, n: int) -> np.ndarray:
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, ops.get(q, _I2))
    return out


def gate_matrix(gate, n: int) -> np.ndarray:
    kind, a, b = gate
    if kind == "R":
        c, s = math.cos(b), math.sin(b)
        return _embed({a: np.array([[c, -s], [s, c]])}, n)
    return _embed({a: _P0}, n) + _embed({a: _P1, b: _X}, n)


def network_unitary(gates, n: int) -> np.ndarray:
    u = np.eye(1 << n, dtype=complex)
    for gate in gates:
        u = gate_matrix(gate, n) @ u
    return u


def copier_gates(variant: str) -> list:
    """Preparation stage on the blanks (a2, a3), then the four copying CNOTs."""
    theta2 = -_THETA2 if variant == "duplicator" else _THETA2
    return [
        ("R", 1, math.pi / 8.0), ("CNOT", 1, 2), ("R", 2, theta2), ("CNOT", 2, 1), ("R", 1, math.pi / 8.0),
        ("CNOT", 0, 1), ("CNOT", 0, 2), ("CNOT", 1, 0), ("CNOT", 2, 0),
    ]


def preparation_amplitudes(theta1: float, theta2: float, theta3: float) -> np.ndarray:
    """Two-qubit preparation stage applied to |00>; real amplitudes."""
    gates = [("R", 0, theta1), ("CNOT", 0, 1), ("R", 1, theta2), ("CNOT", 1, 0), ("R", 0, theta3)]
    return network_unitary(gates, 2)[:, 0].real


# ---------------------------------------------------------------- three-qubit analysis

def _reductions(psi: np.ndarray) -> tuple[dict, dict]:
    """Single-qubit and pair reductions of a batch of 3-qubit states, shape (N, 8)."""
    t = psi.reshape(-1, 2, 2, 2)
    c = t.conj()
    singles = {
        "a1": np.einsum("nijk,nljk->nil", t, c),
        "a2": np.einsum("nijk,nilk->njl", t, c),
        "a3": np.einsum("nijk,nijl->nkl", t, c),
    }
    pairs = {
        "a2a3": np.einsum("nijk,nilm->njklm", t, c).reshape(-1, 4, 4),
        "a1a2": np.einsum("nijk,nlmk->nijlm", t, c).reshape(-1, 4, 4),
        "a1a3": np.einsum("nijk,nljm->niklm", t, c).reshape(-1, 4, 4),
    }
    return singles, pairs


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched tensor product of operators, shapes (N, p, p) and (N, q, q)."""
    n, p, q = a.shape[0], a.shape[1], b.shape[1]
    return np.einsum("nij,nkl->nikjl", a, b).reshape(n, p * q, p * q)


def _hs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(a - b) ** 2, axis=(-2, -1))


def ppt_spectrum(pairs: np.ndarray) -> np.ndarray:
    """Ascending spectra of the partial transposes (low-order qubit) of a batch of pairs."""
    pt = pairs.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    return np.linalg.eigvalsh(pt)


def copier_analysis(variant: str, thetas, phis) -> dict:
    """Everything ``run_copier`` and ``ppt_verdict`` report, for a batch of inputs."""
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    alpha = np.sin(thetas) * np.exp(1j * phis)
    beta = np.cos(thetas).astype(complex)
    init = np.zeros((thetas.size, 8), dtype=complex)
    init[:, 0b000] = alpha
    init[:, 0b100] = beta
    psi = init @ network_unitary(copier_gates(variant), 3).T
    singles, pairs = _reductions(psi)

    v = np.stack([alpha, beta], axis=1)
    perp = np.stack([beta.conj(), -alpha.conj()], axis=1)
    ideal1 = np.einsum("ni,nj->nij", v, v.conj())
    ideal2 = _outer(ideal1, ideal1)
    half = _I2 / 2.0
    direction = ideal1 - half

    scaling = {}
    fidelity = {}
    for label, rho in singles.items():
        s = (np.einsum("nij,nji->n", rho - half, direction).real
             / np.einsum("nij,nji->n", direction, direction).real)
        residual = _hs(rho, s[:, None, None] * ideal1 + ((1.0 - s) / 2.0)[:, None, None] * _I2)
        scaling[label] = [float(x) if r <= SCALING_TOL else None for x, r in zip(s, residual)]
        fidelity[label] = (
            np.einsum("ni,nij,nj->n", v.conj(), rho, v).real,
            np.einsum("ni,nij,nj->n", perp.conj(), rho, perp).real,
        )
    d3 = None
    if variant == "triplicator":
        d3 = _hs(np.einsum("na,nb->nab", psi, psi.conj()), _outer(ideal2, ideal1))
    return {
        "alpha": alpha,
        "beta": beta.real,
        "psi": psi,
        "singles": singles,
        "pairs": pairs,
        "d1": {label: _hs(rho, ideal1) for label, rho in singles.items()},
        "d2": {label: _hs(rho, ideal2) for label, rho in pairs.items()},
        "d3": d3,
        "scaling": scaling,
        "fidelity": fidelity,
        "spectra": {label: ppt_spectrum(rho) for label, rho in pairs.items()},
    }


# ---------------------------------------------------------------- sweep

def expected_sweep(variant: str, theta_grid, phi_grid) -> list[dict]:
    """Rows of a sweep over inclusive ``(start, stop, count)`` grids, theta-major, all metrics."""
    tt, pp = np.meshgrid(np.linspace(*theta_grid), np.linspace(*phi_grid), indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    ref = copier_analysis(variant, tt, pp)
    rows = []
    for i in range(tt.size):
        rows.append({
            "theta": float(tt[i]),
            "phi": float(pp[i]),
            "variant": variant,
            **{f"d1_{q}": float(ref["d1"][q][i]) for q in QUBITS},
            **{f"d2_{p}": float(ref["d2"][p][i]) for p in PAIRS},
            "d3": None if ref["d3"] is None else float(ref["d3"][i]),
            "s_a2": ref["scaling"]["a2"][i],
            "fid_a2": float(ref["fidelity"]["a2"][0][i]),
            "E_a2a3": float(ref["spectra"]["a2a3"][i][0]),
        })
    return rows


def _row_matches(decimals: dict, expected: dict) -> bool:
    for column in COLUMNS:
        text, want = decimals[column], expected[column]
        if column == "variant":
            if text != want:
                return False
        elif want is None or text is None:
            if want is not text:
                return False
        elif not abs(float(text) - want) <= EXACT_TOL:
            return False
    return True


def bad_sweep_rows(csv_text: str, json_text: str, expected: list[dict]) -> int:
    """Number of rows that disagree with the oracle or differ between the two formats.

    Cells are compared as decimal strings between CSV and JSON (byte-equal),
    and as numbers against the oracle (within EXACT_TOL).
    """
    lines = csv_text.split("\n")
    if lines[0] != ",".join(COLUMNS) or lines[-1] != "":
        return len(expected)
    csv_rows = [dict(zip(COLUMNS, (cell or None for cell in line.split(",")))) for line in lines[1:-1]]
    try:
        doc = json.loads(json_text, parse_float=str, parse_int=str)
        json_rows = doc["rows"]
    except (ValueError, KeyError, TypeError):
        return len(expected)
    bad = abs(len(expected) - len(csv_rows)) + abs(len(expected) - len(json_rows))
    for want, from_csv, from_json in zip(expected, csv_rows, json_rows):
        if from_csv != from_json or not _row_matches(from_csv, want):
            bad += 1
    return min(bad, len(expected))


# ---------------------------------------------------------------- copy

def _close(got, want, tol: float) -> bool:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


def _verdict_ok(inseparable: bool, indeterminate: bool, low: float) -> bool:
    """The verdict of a spectrum minimum, allowing either side within EXACT_TOL of a threshold."""
    for edge in (INSEPARABLE_BELOW, 0.0):
        if abs(low - edge) <= EXACT_TOL:
            return True
    return inseparable == (low < INSEPARABLE_BELOW) and indeterminate == (INSEPARABLE_BELOW <= low < 0.0)


def _matrix(obj) -> np.ndarray:
    return np.array(obj["re"]) + 1j * np.array(obj["im"])


def copy_json_ok(text: str, variant: str, theta: float, phi: float) -> bool:
    """Every number of a ``copy --format json`` document against the oracle."""
    ref = copier_analysis(variant, [theta], [phi])
    doc = json.loads(text)
    metrics = doc["metrics"]
    checks = [
        doc["meta"]["variant"] == variant,
        _close([doc["input"]["theta"], doc["input"]["phi"]], [theta, phi], EXACT_TOL),
        _close(doc["input"]["alpha"]["re"] + 1j * doc["input"]["alpha"]["im"], ref["alpha"][0], EXACT_TOL),
        _close(doc["input"]["beta"], ref["beta"][0], EXACT_TOL),
        _close(_matrix(doc["output_amplitudes"]), ref["psi"][0], EXACT_TOL),
        (metrics["d3"] is None) == (ref["d3"] is None),
    ]
    if ref["d3"] is not None:
        checks.append(_close(metrics["d3"], ref["d3"][0], EXACT_TOL))
    for q in QUBITS:
        s_ref = ref["scaling"][q][0]
        checks += [
            _close(_matrix(doc["reductions"][q]), ref["singles"][q][0], EXACT_TOL),
            _close(metrics["d1"][q], ref["d1"][q][0], EXACT_TOL),
            _close(metrics["fidelity"][q], [f[0] for f in ref["fidelity"][q]], EXACT_TOL),
            (metrics["scaling"][q] is None) == (s_ref is None),
        ]
        if s_ref is not None and metrics["scaling"][q] is not None:
            checks.append(_close(metrics["scaling"][q], s_ref, EXACT_TOL))
    for p in PAIRS:
        spectrum = ref["spectra"][p][0]
        ppt = doc["ppt"][p]
        checks += [
            _close(_matrix(doc["reductions"][p]), ref["pairs"][p][0], EXACT_TOL),
            _close(metrics["d2"][p], ref["d2"][p][0], EXACT_TOL),
            _close(ppt["spectrum"], spectrum, EXACT_TOL),
            _close(ppt["min_eigenvalue"], spectrum[0], EXACT_TOL),
            _verdict_ok(ppt["inseparable"], ppt["indeterminate"], spectrum[0]),
        ]
    return all(checks)


# ---------------------------------------------------------------- human output

_MATRIX_ROW = re.compile(r"^\s+\[ (.*) \]$")
_NAMED = re.compile(r"(\w+)=(\(.*?\)|\S+)")
_SPECTRUM = re.compile(r"spectrum:? \[(.*?)\]")


def _near(got: complex, want: complex) -> bool:
    got, want = complex(got), complex(want)
    return (abs(got.real - want.real) <= HUMAN_REL_TOL * abs(want.real) + EXACT_TOL
            and abs(got.imag - want.imag) <= HUMAN_REL_TOL * abs(want.imag) + EXACT_TOL)


def _all_near(got, want) -> bool:
    got, want = list(got), list(np.ravel(want))
    return len(got) == len(want) and all(_near(g, w) for g, w in zip(got, want))


def _matrix_rows(lines) -> list[complex]:
    values = []
    for line in lines:
        m = _MATRIX_ROW.match(line)
        if m:
            values.extend(complex(tok) for tok in m.group(1).split())
    return values


def _reduction_blocks(mats) -> list:
    """Each matrix followed by its reversed-basis copy, as the CLI prints them."""
    out = []
    for m in mats:
        out.extend(np.ravel(m))
        out.extend(np.ravel(m[::-1, ::-1]))
    return out


def _word_ok(word: str, low: float) -> bool:
    flags = {"inseparable": (True, False), "indeterminate": (False, True), "separable": (False, False)}
    return word in flags and _verdict_ok(*flags[word], low)


def _spectrum_line_ok(line: str, spectrum) -> bool:
    values = _SPECTRUM.search(line).group(1).split(", ")
    return _all_near([float(x) for x in values], spectrum) and _word_ok(line.rsplit("-> ", 1)[1], spectrum[0])


def copy_human_ok(text: str, variant: str, theta: float, phi: float) -> bool:
    """The human ``copy`` report against the oracle at its printed precision."""
    ref = copier_analysis(variant, [theta], [phi])
    lines = text.splitlines()
    by_prefix = {}
    for line in lines:
        by_prefix.setdefault(line.split(":", 1)[0], line)
    mats = [ref["singles"][q][0] for q in QUBITS] + [ref["pairs"][p][0] for p in PAIRS]
    d1 = dict(_NAMED.findall(by_prefix["distances d1"]))
    d2 = dict(_NAMED.findall(by_prefix["distances d2"]))
    scaling = dict(_NAMED.findall(by_prefix["scaling s"]))
    fidelity = dict(_NAMED.findall(by_prefix["fidelity split (ideal, orthogonal)"]))
    d3_text = by_prefix["distance d3"].split(": ", 1)[1]
    checks = [
        lines[0] == f"variant: {variant}",
        _all_near(_matrix_rows(lines), _reduction_blocks(mats)),
        (d3_text == "-") == (ref["d3"] is None),
    ]
    if ref["d3"] is not None:
        checks.append(_near(float(d3_text), ref["d3"][0]))
    for q in QUBITS:
        s_ref = ref["scaling"][q][0]
        p_ideal, p_orth = (float(x) for x in fidelity[q].strip("()").split(", "))
        checks += [
            _near(float(d1[q]), ref["d1"][q][0]),
            (scaling[q] == "-") == (s_ref is None),
            s_ref is None or scaling[q] == "-" or _near(float(scaling[q]), s_ref),
            _near(p_ideal, ref["fidelity"][q][0][0]),
            _near(p_orth, ref["fidelity"][q][1][0]),
        ]
    for p in PAIRS:
        checks += [
            _near(float(d2[p]), ref["d2"][p][0]),
            _spectrum_line_ok(by_prefix[f"PPT {p}"], ref["spectra"][p][0]),
        ]
    return all(checks)


def network_human_ok(text: str, gates, state) -> bool:
    """The ``network`` report for a 3-qubit state against the dense-unitary reference."""
    psi = network_unitary(gates, 3) @ np.asarray(state, dtype=complex)
    singles, pairs = _reductions(psi[None, :])
    lines = text.splitlines()
    amps = [complex(line.split()[1]) for line in lines if line.startswith("  |")]
    pair_lines = [line for line in lines if line.startswith("pair (")]
    order = [("a1a2", "(0,1)"), ("a1a3", "(0,2)"), ("a2a3", "(1,2)")]
    checks = [
        lines[0] == f"network: {len(gates)} gates on 3 qubits",
        _all_near(amps, psi),
        _all_near(_matrix_rows(lines), _reduction_blocks([singles[q][0] for q in QUBITS])),
        len(pair_lines) == 3,
    ]
    for line, (label, tag) in zip(pair_lines, order):
        checks += [line.startswith(f"pair {tag} "), _spectrum_line_ok(line, ppt_spectrum(pairs[label])[0])]
    return all(checks)


def angles_ok(text: str, fmt: str, target) -> bool:
    """A solved angle triple must reproduce the target amplitudes within ANGLES_TOL."""
    if fmt == "json":
        found = json.loads(text)["angles"]
        angles = [found["theta1"], found["theta2"], found["theta3"]]
    else:
        values = dict(line.split(" = ", 1) for line in text.splitlines() if line.startswith("theta"))
        angles = [float(values[f"theta{i}"]) for i in (1, 2, 3)]
    return bool(np.max(np.abs(preparation_amplitudes(*angles) - np.asarray(target))) <= ANGLES_TOL)
