"""The work ledger: what each step of a user path computes, pinned by counts and memory peaks, not by times.

Every row counts through the same wrapped entry points (``_count_work``): the
amplitude shape of every ``gates._apply_gate`` call, the batch shape of every
``linalg.hermitian_eigenvalues`` call and of every call of verify's
``eigenvalues_by_bisection`` oracle.  The entry points are wrapped inside the
tests and restored after them.  Counts are exact.

A row of ``LEDGER`` names a step of the README sweep (triplicator, theta
0..pi/2 x20, phi 0..2pi x40, all metrics, 800 points), run warm, and the work
it may do: its eigensolve batch shapes, its gate applications, the reduction
labels its ``CopyGrid`` builds, and an upper bound on its ``tracemalloc``
peak.  A peak bound is the peak measured with NumPy 2.4 on Python 3.11 plus
``PEAK_SLACK``, since NumPy's temporaries vary by version; the slack is below
the 200 KiB of one (800, 4, 4) complex stack, so a full-size copy that returns
to a step fails its row.

A row of ``FORWARD_MAP_LEDGER`` names a reader of the preparation stage's
forward map, ``copier.amplitudes_from_angles``: an ``angles`` request in each
format and verify's ``angles`` and ``prep`` groups.  A row of
``REQUEST_LEDGER`` names a ``copy`` request in each format, the pinned
three-qubit ``network`` request and the whole ``run_verification()``.  Both
are run warm.  The cold row builds the machines' basis rows and transfer
matrices from empty caches, as a process's first request does: one fold of
each nine-gate network over the (2, 8) stack of |000> and |100>.

A row of ``FIELD_LEDGER`` reads one ``CopyGrid`` field alone on a fresh
README-sized grid of each machine, whose tables are warm.  The solver row
solves verify's (102, 4) stack of targets, in closed form.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcopynet import cli, copier, gates, linalg, report, verify
from qcopynet.copier import CopyVariant
from qcopynet.report import GridSpec, SweepSpec, render_csv, render_json, sweep_document, sweep_rows


def _count_work(monkeypatch) -> tuple[list, list, list]:
    """Wrap the counted entry points; the lists of gate-application, eigensolve and bisection shapes they fill."""
    applications, eigensolves, bisections = [], [], []
    apply_gate, eigensolve, bisection = gates._apply_gate, linalg.hermitian_eigenvalues, verify.eigenvalues_by_bisection
    monkeypatch.setattr(gates, "_apply_gate", lambda a, *rest: applications.append(a.shape) or apply_gate(a, *rest))
    monkeypatch.setattr(linalg, "hermitian_eigenvalues", lambda h: eigensolves.append(np.shape(h)) or eigensolve(h))
    monkeypatch.setattr(verify, "eigenvalues_by_bisection", lambda h: bisections.append(np.shape(h)) or bisection(h))
    return applications, eigensolves, bisections


README_SWEEP = SweepSpec(CopyVariant.TRIPLICATOR, GridSpec(0.0, math.pi / 2.0, 20), GridSpec(0.0, 2.0 * math.pi, 40))
PEAK_SLACK_KIB = 128

# step: eigensolve batch shapes, gate applications, reductions built, tracemalloc peak measured (KiB)
LEDGER = {
    "sweep_rows": ([(800, 4, 4)], 0, ["a2a3"], 1366),
    "render_csv": ([], 0, [], 602),
    "render_json": ([], 0, [], 777),
}


@pytest.mark.parametrize("step", LEDGER)
def test_readme_sweep_work_ledger(step, monkeypatch):
    eigensolves, gate_applications, reductions, peak_kib = LEDGER[step]
    document = sweep_document(README_SWEEP, sweep_rows(README_SWEEP))  # warm: the machine's tables are cached
    run = {"sweep_rows": lambda: sweep_rows(README_SWEEP), "render_csv": lambda: render_csv(document),
           "render_json": lambda: render_json(document)}[step]
    applications, shapes, _ = _count_work(monkeypatch)
    grids, evaluate_grid = [], report.evaluate_grid
    monkeypatch.setattr(report, "evaluate_grid", lambda *args: grids.append(evaluate_grid(*args)) or grids[-1])
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    built = [label for grid in grids for label in grid._reductions]
    assert (shapes, len(applications), built) == (eigensolves, gate_applications, reductions)
    assert peak <= (peak_kib + PEAK_SLACK_KIB) * 1024, f"{step} peaked at {peak / 1024:.0f} KiB"


def _run_warm_and_count(run, monkeypatch, capsys) -> tuple[list, list, list]:
    run()  # warm
    counts = _count_work(monkeypatch)
    run()
    capsys.readouterr()
    return counts


ANGLES_TARGET = ("0.8164965809277261", "0.4082482904638631", "0.4082482904638631", "0")
# step: the amplitude shape of each gate application, eigensolve batch shapes, bisection batch shapes
FORWARD_MAP_LEDGER = {
    "angles-human": (lambda: cli.main(["angles", *ANGLES_TARGET]), [(4,)] * 5, [], []),
    "angles-json": (lambda: cli.main(["angles", "--format", "json", *ANGLES_TARGET]), [(4,)] * 5, [], []),
    "verify-angles": (lambda: verify.run_verification(["angles"]), [(102, 4)] * 5, [], []),  # 2 machines + 100 random
    "verify-prep": (lambda: verify.run_verification(["prep"]), [(4,)] * 5, [], []),
}


@pytest.mark.parametrize("step", FORWARD_MAP_LEDGER)
def test_forward_map_work_ledger(step, monkeypatch, capsys):
    run, *work = FORWARD_MAP_LEDGER[step]
    assert list(_run_warm_and_count(run, monkeypatch, capsys)) == work


COPY_ARGV = ("copy", "--theta", "0.7853981633974483", "--phi", "0.3", "--variant", "triplicator", "--format")
# the network and state of the three-qubit pin in tests/test_pins.py
THREE_QUBIT_ARGV = ("network", str(Path(__file__).parent / "networks" / "three-qubits.txt"),
                    "--state", "0.6,0,0.48j,0,0,0,0,0.64")
# prep's and trip-prep's forward maps, 5 each on (4,), angles' 5 on (102, 4), properties' gate laws 42 on (100, 8):
# 6 CNOTs twice, 3 rotations there and back, 6 CNOT-rotation pairs in both orders
VERIFY_APPLICATIONS = [(4,)] * 10 + [(102, 4)] * 5 + [(100, 8)] * 42
VERIFY_EIGENSOLVES = [(400, 4, 4), (3, 40, 4, 4), (3, 40, 4, 4), (50, 4, 4), (30, 4, 4), (2, 50, 4, 4), (100, 4, 4)]
# step: the request; gate applications, eigensolves, bisections
REQUEST_LEDGER = {
    "copy-human": (lambda: cli.main([*COPY_ARGV, "human"]), [], [(3, 4, 4)], []),
    "copy-json": (lambda: cli.main([*COPY_ARGV, "json"]), [], [(3, 4, 4)], []),
    "network-three-qubits": (lambda: cli.main(list(THREE_QUBIT_ARGV)), [(8,)] * 6, [(3, 4, 4)], []),
    "verify": (verify.run_verification, VERIFY_APPLICATIONS, VERIFY_EIGENSOLVES, [(100, 4, 4)]),
}


@pytest.mark.parametrize("step", REQUEST_LEDGER)
def test_request_work_ledger(step, monkeypatch, capsys):
    request, *work = REQUEST_LEDGER[step]
    assert list(_run_warm_and_count(request, monkeypatch, capsys)) == work


def test_cold_kernel_work_ledger(monkeypatch):
    # a process's first grid of each machine: 9 gate applications on (2, 8), and its transfer matrices no more
    copier._basis_outputs.cache_clear()
    copier._transfer.cache_clear()
    counts = _count_work(monkeypatch)
    for variant in CopyVariant:
        copier.evaluate_grid(variant, [0.3], [0.1]).d1
    assert counts == ([(2, 8)] * 18, [], [])


# field: eigensolve batch shapes, reductions built; reading a field alone applies no gate
FIELD_LEDGER = {
    **{field: ([], []) for field in ("d1", "d2", "d3", "scaling", "fidelity")},
    "ppt_spectrum": ([(800, 4, 4)], ["a2a3"]),
    "qubit_reductions": ([], list(copier.QUBIT_LABELS)),
    "pair_reductions": ([], list(copier.PAIR_LABELS)),
}


@pytest.mark.parametrize("variant", CopyVariant, ids=lambda variant: variant.value)
@pytest.mark.parametrize("field", FIELD_LEDGER)
def test_grid_field_work_ledger(field, variant, monkeypatch):
    eigensolves, reductions = FIELD_LEDGER[field]
    for label in (*copier.QUBIT_LABELS, *copier.PAIR_LABELS):
        copier._transfer(variant, label)  # warm
    grid = copier.evaluate_grid(variant, README_SWEEP.theta_grid.values(), README_SWEEP.phi_grid.values())
    counts = _count_work(monkeypatch)
    getattr(grid, field)
    assert (grid.theta.size, counts, list(grid._reductions)) == (800, ([], eigensolves, []), reductions)


def test_solver_work_ledger(monkeypatch):
    stacks, solve = [], verify.solve_preparation_angles
    monkeypatch.setattr(verify, "solve_preparation_angles", lambda c: stacks.append(c) or solve(c))
    verify.run_verification(["angles"])
    counts = _count_work(monkeypatch)
    copier.solve_preparation_angles(*stacks)
    assert (np.shape(*stacks), counts) == ((102, 4), ([], [], []))
