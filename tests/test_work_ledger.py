"""The work ledger: what each step of a user path computes, pinned by counts and memory peaks, not by times.

A row of ``LEDGER`` names a step of the README sweep (triplicator, theta
0..pi/2 x20, phi 0..2pi x40, all metrics, 800 points), run warm, and the work
it may do: the batch shape of every ``linalg.hermitian_eigenvalues`` call, the
number of ``gates.run_network`` calls, the reduction labels its ``CopyGrid``
builds, and an upper bound on its ``tracemalloc`` peak.  Counts are exact.  A
peak bound is the peak measured with NumPy 2.4 on Python 3.11 plus
``PEAK_SLACK``, since NumPy's temporaries vary by version; the slack is below
the 200 KiB of one (800, 4, 4) complex stack, so a full-size copy that returns
to a step fails its row.

A row of ``FORWARD_MAP_LEDGER`` names a reader of the preparation stage's
forward map, ``copier.amplitudes_from_angles``: an ``angles`` request in each
format and verify's ``angles`` and ``prep`` groups, run warm.  It pins the
amplitude shape of every ``gates._apply_gate`` call, so one fold of the
five-gate network over one state or over one stack of targets, and the batch
shape of every eigensolve.  The entry points are wrapped inside the tests and
restored after them.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qcopynet import cli, copier, gates, linalg, report, verify
from qcopynet.copier import CopyVariant
from qcopynet.report import GridSpec, SweepSpec, render_csv, render_json, sweep_document, sweep_rows

README_SWEEP = SweepSpec(CopyVariant.TRIPLICATOR, GridSpec(0.0, math.pi / 2.0, 20), GridSpec(0.0, 2.0 * math.pi, 40))
PEAK_SLACK_KIB = 128

# step: eigensolve batch shapes, run_network calls, reductions built, tracemalloc peak measured (KiB)
LEDGER = {
    "sweep_rows": ([(800, 4, 4)], 0, ["a2a3"], 1366),
    "render_csv": ([], 0, [], 657),
    "render_json": ([], 0, [], 777),
}


@pytest.mark.parametrize("step", LEDGER)
def test_readme_sweep_work_ledger(step, monkeypatch):
    eigensolves, network_runs, reductions, peak_kib = LEDGER[step]
    document = sweep_document(README_SWEEP, sweep_rows(README_SWEEP))  # warm: the machine's tables are cached
    run = {"sweep_rows": lambda: sweep_rows(README_SWEEP), "render_csv": lambda: render_csv(document),
           "render_json": lambda: render_json(document)}[step]
    shapes, runs, grids = [], [], []
    eigensolve, run_network, evaluate_grid = linalg.hermitian_eigenvalues, gates.run_network, report.evaluate_grid
    monkeypatch.setattr(linalg, "hermitian_eigenvalues", lambda h: shapes.append(np.shape(h)) or eigensolve(h))
    for module in (gates, copier):
        monkeypatch.setattr(module, "run_network", lambda *args: runs.append(args) or run_network(*args))
    monkeypatch.setattr(report, "evaluate_grid", lambda *args: grids.append(evaluate_grid(*args)) or grids[-1])
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    built = [label for grid in grids for label in grid._reductions]
    assert (shapes, len(runs), built) == (eigensolves, network_runs, reductions)
    assert peak <= (peak_kib + PEAK_SLACK_KIB) * 1024, f"{step} peaked at {peak / 1024:.0f} KiB"


ANGLES_TARGET = ("0.8164965809277261", "0.4082482904638631", "0.4082482904638631", "0")
# step: the amplitude shape of each gate application, eigensolve batch shapes
FORWARD_MAP_LEDGER = {
    "angles-human": (lambda: cli.main(["angles", *ANGLES_TARGET]), [(4,)] * 5, []),
    "angles-json": (lambda: cli.main(["angles", "--format", "json", *ANGLES_TARGET]), [(4,)] * 5, []),
    "verify-angles": (lambda: verify.run_verification(["angles"]), [(102, 4)] * 5, []),  # 2 machines + 100 random
    "verify-prep": (lambda: verify.run_verification(["prep"]), [(4,)] * 5, []),
}


@pytest.mark.parametrize("step", FORWARD_MAP_LEDGER)
def test_forward_map_work_ledger(step, monkeypatch, capsys):
    run, applications, eigensolves = FORWARD_MAP_LEDGER[step]
    run()  # warm
    gate_shapes, shapes = [], []
    apply_gate, eigensolve = gates._apply_gate, linalg.hermitian_eigenvalues
    monkeypatch.setattr(gates, "_apply_gate", lambda a, *rest: gate_shapes.append(a.shape) or apply_gate(a, *rest))
    monkeypatch.setattr(linalg, "hermitian_eigenvalues", lambda h: shapes.append(np.shape(h)) or eigensolve(h))
    run()
    capsys.readouterr()
    assert (gate_shapes, shapes) == (applications, eigensolves)
