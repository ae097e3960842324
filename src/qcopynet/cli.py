"""Command-line interface: copy runs, sweeps, custom networks, verification.

Exit codes: 0 success, 1 verification/computation failure or a reader that
closed stdout early (nothing on stderr then), 2 usage or parse errors.
Angles are radians everywhere.  Human output rounds to 6 significant
digits, except that ``angles`` prints each solved angle in full (``repr``)
and its residual at ``.3e``; machine formats carry 17.  ``copy``, ``angles``
and ``verify`` build one document each, which ``--format`` renders.  A
reduced matrix is printed in both basis orders; the reversed block reuses
the ascending block's formatted cells.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, linalg
from .copier import CopyVariant, InputQubit, amplitudes_from_angles, run_copier, solve_preparation_angles
from .gates import MAX_QUBITS, NetworkParseError, PureState, max_qubit, parse_network, run_network
from .report import (
    GridSpec,
    METRICS,
    SweepSpec,
    _document_meta,
    render_csv,
    render_json,
    sweep_document,
    sweep_rows,
)
from .separability import _pair_spectra, _ppt_reports
from .verify import GROUP_ORDER, _check_request, render_human, run_verification, verification_document

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_NORMALIZATION_ERROR_TOL = 1e-6
_NORMALIZATION_WARN_TOL = 1e-12


class UsageError(Exception):
    pass


def _h(x: float | None) -> str:
    return "-" if x is None else "%.6g" % float(x)


def _hc(z: complex) -> str:
    z = complex(z)
    return "%.6g%+.6gj" % (z.real, z.imag)


def _matrix_lines(cells: list[list[str]]) -> list[str]:
    return ["    [ " + "  ".join(row) + " ]" for row in cells]


def _parse_complex(text: str, what: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise UsageError(f"cannot parse {what} {text!r} as a complex number") from None


def _normalized(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise UsageError(f"{what} must be finite")
    norm = linalg._scaled_norm(values, lambda v: float(np.linalg.norm(v)))
    if abs(norm - 1.0) > _NORMALIZATION_ERROR_TOL:
        raise UsageError(f"{what} are not normalizable: norm {norm!r} deviates by more than 1e-6")
    if abs(norm - 1.0) > _NORMALIZATION_WARN_TOL:
        print(f"warning: renormalizing {what} (norm deviated by {abs(norm - 1.0):.3e})", file=sys.stderr)
    return values / norm


def _input_from_args(args) -> InputQubit:
    has_angles = args.theta is not None or args.phi is not None
    has_amps = args.alpha is not None or args.beta is not None
    if has_angles and has_amps:
        raise UsageError("give either --theta/--phi or --alpha/--beta, not both")
    if has_amps:
        if args.alpha is None or args.beta is None:
            raise UsageError("--alpha and --beta must be given together")
        alpha = _parse_complex(args.alpha, "--alpha")
        beta = _parse_complex(args.beta, "--beta")
        amps = _normalized(np.array([alpha, beta], dtype=complex), "amplitudes")
        return InputQubit.from_amplitudes(amps[0], amps[1])
    if args.theta is None:
        raise UsageError("an input state is required: --theta [--phi] or --alpha --beta")
    phi = args.phi if args.phi is not None else 0.0
    if not (math.isfinite(args.theta) and math.isfinite(phi)):
        raise UsageError("--theta and --phi must be finite")
    return InputQubit(theta=args.theta, phi=phi)


def _reduction_lines(label: str, reduced: np.ndarray) -> list[str]:
    """A reduced matrix in both basis orders (ascending, then descending).

    Each entry is formatted once: the descending block is the ascending
    block's cells with rows and columns reversed, as ``reduced[::-1, ::-1]``
    reindexes the matrix.
    """
    n = linalg.num_qubits_of(reduced)
    kets = [f"|{i:0{n}b}>" for i in range(1 << n)]
    cells = [["%22s" % _hc(z) for z in row] for row in reduced.tolist()]
    return [
        f"{label} reduction ({', '.join(kets)}):",
        *_matrix_lines(cells),
        f"{label} reduction, reversed order ({', '.join(reversed(kets))}):",
        *_matrix_lines([row[::-1] for row in reversed(cells)]),
    ]


def _separability_word(verdict: dict) -> str:
    if verdict["inseparable"]:
        return "inseparable"
    return "indeterminate" if verdict["indeterminate"] else "separable"


def _state_lines(state: PureState) -> list[str]:
    n, amps = state.num_qubits, state.amplitudes
    lines = [f"final state ({n} qubit{'s' if n > 1 else ''}):"]
    lines += [f"  |{i:0{n}b}>  {_hc(amp)}" for i, amp in enumerate(amps.tolist())]
    projector = np.einsum("i,j->ij", amps, amps.conj())  # not np.outer, whose diagonal can keep a tiny imaginary part
    for q in range(n):
        lines += _reduction_lines(f"qubit {q}", linalg.partial_trace(projector, (q,)))
    pairs = [(qa, qb) for qa in range(n) for qb in range(qa + 1, n)]
    verdicts = _ppt_reports(_pair_spectra([linalg.partial_trace(projector, p) for p in pairs])) if pairs else []
    for (qa, qb), verdict in zip(pairs, verdicts):
        spectrum = ", ".join(_h(x) for x in verdict.spectrum)
        word = _separability_word(vars(verdict))
        lines.append(f"pair ({qa},{qb}) partial-transpose spectrum: [{spectrum}] -> {word}")
    return lines


def _copy_document(qubit: InputQubit, variant: CopyVariant) -> dict:
    report = run_copier(qubit, variant)
    return {
        "meta": _document_meta("copy", variant=variant.value),
        "input": {"theta": qubit.theta, "phi": qubit.phi, "alpha": qubit.alpha, "beta": qubit.beta},
        "output_amplitudes": report.output_state.amplitudes,
        "reductions": {**report.qubit_reductions, **report.pair_reductions},
        "metrics": {
            "d1": dict(report.d1),
            "d2": dict(report.d2),
            "d3": report.d3,
            "scaling": dict(report.scaling),
            "fidelity": {k: list(v) for k, v in report.fidelity.items()},
        },
        "ppt": {label: dict(vars(verdict)) for label, verdict in report.ppt.items()},
    }


def _copy_human(doc: dict) -> str:
    qubit, metrics = doc["input"], doc["metrics"]
    lines = [
        f"variant: {doc['meta']['variant']}",
        f"input: theta={_h(qubit['theta'])} phi={_h(qubit['phi'])} "
        f"alpha={_hc(qubit['alpha'])} beta={_h(qubit['beta'])}",
    ]
    for label, reduced in doc["reductions"].items():
        lines += _reduction_lines(label, reduced)
    lines += [
        "distances d1: " + "  ".join(f"{k}={_h(v)}" for k, v in metrics["d1"].items()),
        "distances d2: " + "  ".join(f"{k}={_h(v)}" for k, v in metrics["d2"].items()),
        f"distance d3: {_h(metrics['d3'])}",
        "scaling s: " + "  ".join(f"{k}={_h(v)}" for k, v in metrics["scaling"].items()),
        "fidelity split (ideal, orthogonal): "
        + "  ".join(f"{k}=({_h(p)}, {_h(q)})" for k, (p, q) in metrics["fidelity"].items()),
    ]
    for label, verdict in doc["ppt"].items():
        spectrum = ", ".join(_h(x) for x in verdict["spectrum"])
        lines.append(
            f"PPT {label}: spectrum [{spectrum}] min={_h(verdict['min_eigenvalue'])} -> {_separability_word(verdict)}"
        )
    return "\n".join(lines) + "\n"


def cmd_copy(args) -> int:
    doc = _copy_document(_input_from_args(args), CopyVariant(args.variant))
    print((render_json if args.format == "json" else _copy_human)(doc), end="")
    return EXIT_OK


def cmd_sweep(args) -> int:
    metrics = frozenset(m.strip() for m in args.metrics.split(",")) if args.metrics else METRICS
    def grid(values, name: str) -> GridSpec:
        start, stop, count = values
        if not (math.isfinite(count) and count == int(count)):
            raise UsageError(f"{name} grid count must be an integer, got {count!r}")
        return GridSpec(start, stop, int(count))

    try:
        spec = SweepSpec(
            variant=CopyVariant(args.variant),
            theta_grid=grid(args.theta, "theta"),
            phi_grid=grid(args.phi, "phi"),
            metrics=metrics,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = sweep_rows(spec)
    document = sweep_document(spec, rows)
    text = render_csv(document) if args.format == "csv" else render_json(document)
    if args.out == "-":
        print(text, end="")
    else:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from None
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    groups = [g.strip() for g in args.only.split(",")] if args.only else None
    try:
        _check_request(groups, args.tolerance)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        checks = run_verification(groups, tolerance=args.tolerance)
    except ValueError as exc:  # the arguments passed, so a group's results do not match its checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    doc = verification_document(checks, tolerance=args.tolerance)
    print((render_json if args.format == "json" else render_human)(doc), end="")
    return EXIT_OK if doc["summary"]["failed"] == 0 else EXIT_FAILURE


def _state_from_spec(spec: str | None, needed_qubits: int) -> PureState:
    if spec is None:
        return PureState.computational(max(needed_qubits, 1), 0)
    spec = spec.strip()
    if set(spec) <= {"0", "1"} and spec:
        n = len(spec)
        if n > MAX_QUBITS:
            raise UsageError(f"at most {MAX_QUBITS} qubits are supported")
        return PureState.computational(n, int(spec, 2))
    parts = [p for p in spec.split(",")]
    amps = np.array([_parse_complex(p, "amplitude") for p in parts], dtype=complex)
    n = (amps.size - 1).bit_length()
    if amps.size < 2 or 2**n != amps.size or n > MAX_QUBITS:
        raise UsageError(f"amplitude count {amps.size} is not a power of two within 2..{1 << MAX_QUBITS}")
    amps = _normalized(amps, "amplitudes")
    return PureState(amps)


def cmd_network(args) -> int:
    try:
        text = Path(args.file).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.file}: {exc}") from None
    try:
        net = parse_network(text)
    except NetworkParseError as exc:
        raise UsageError(f"{args.file}: {exc}") from None
    needed = max_qubit(net) + 1
    if needed > MAX_QUBITS:
        raise UsageError(f"{args.file}: network uses qubit {needed - 1}; at most {MAX_QUBITS} qubits are supported")
    state = _state_from_spec(args.state, needed)
    try:
        final = run_network(state, net)
    except ValueError as exc:
        raise UsageError(f"{args.file}: {exc}") from None
    print("\n".join([f"network: {len(net)} gates on {state.num_qubits} qubits", *_state_lines(final)]))
    return EXIT_OK


def _angles_human(doc: dict) -> str:
    # float(): JSON writes 0.0 as 0, which parses back as an int
    lines = [f"{name} = {float(angle)!r}" for name, angle in doc["angles"].items()]
    lines.append(f"reproduced amplitudes: {', '.join(_h(x) for x in doc['reproduced'])}")
    lines.append(f"max residual: {doc['residual']:.3e}")
    return "\n".join(lines) + "\n"


def cmd_angles(args) -> int:
    c = np.array(args.amplitudes, dtype=float)
    c = _normalized(c, "target amplitudes")
    angles = solve_preparation_angles(c)
    reproduced = amplitudes_from_angles(angles)
    doc = {
        "meta": _document_meta("angles"),
        "target": [float(x) for x in c],
        "angles": dict(vars(angles)),
        "reproduced": [float(x) for x in reproduced],
        "residual": float(np.max(np.abs(reproduced - c))),
    }
    print((render_json if args.format == "json" else _angles_human)(doc), end="")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qcopynet",
        description="Simulate quantum copying networks and verify their closed-form laws.",
    )
    parser.add_argument("--version", action="version", version=f"qcopynet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_copy = sub.add_parser("copy", help="run one copy job and print the full analysis")
    p_copy.add_argument("--theta", type=float, help="input angle theta in radians")
    p_copy.add_argument("--phi", type=float, help="input phase phi in radians (default 0)")
    p_copy.add_argument("--alpha", help="raw amplitude of |0> (complex, e.g. '0.6+0.2j')")
    p_copy.add_argument("--beta", help="raw amplitude of |1> (complex)")
    p_copy.add_argument("--variant", choices=[v.value for v in CopyVariant], default="duplicator")
    p_copy.add_argument("--format", choices=["human", "json"], default="human")

    p_sweep = sub.add_parser("sweep", help="evaluate metrics over a (theta, phi) grid")
    p_sweep.add_argument("--variant", choices=[v.value for v in CopyVariant], default="duplicator")
    p_sweep.add_argument("--theta", nargs=3, type=float, required=True,
                         metavar=("START", "STOP", "COUNT"), help="theta grid in radians")
    p_sweep.add_argument("--phi", nargs=3, type=float, required=True,
                         metavar=("START", "STOP", "COUNT"), help="phi grid in radians")
    p_sweep.add_argument("--metrics", help=f"comma list from {sorted(METRICS)} (default: all)")
    p_sweep.add_argument("--out", required=True, help="output path, or - for stdout")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("--tolerance", type=float, help="override every check's tolerance")
    p_verify.add_argument("--only", help=f"comma list of check groups from {list(GROUP_ORDER)}")
    p_verify.add_argument("--format", choices=["human", "json"], default="human")

    p_net = sub.add_parser("network", help="run a gate network from a text file")
    p_net.add_argument("file", help="network file: lines 'R <qubit> <theta>' or 'CNOT <c> <t>'")
    p_net.add_argument("--state", help="initial state: basis bits like '010', or comma-separated amplitudes")

    p_angles = sub.add_parser("angles", help="solve preparation angles for target amplitudes")
    p_angles.add_argument("amplitudes", nargs=4, type=float, metavar="C",
                          help="four real target amplitudes (normalized)")
    p_angles.add_argument("--format", choices=["human", "json"], default="human")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, so a rebinding of a cmd_* function is seen.
    handlers = {
        "copy": cmd_copy, "sweep": cmd_sweep, "verify": cmd_verify, "network": cmd_network, "angles": cmd_angles,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed early: stdout goes to the null device, or the flush at exit fails again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAILURE
