"""The work ledger: what each step of a user path computes, pinned by counts and memory peaks, not by times.

A row names a step of the README sweep (triplicator, theta 0..pi/2 x20, phi
0..2pi x40, all metrics, 800 points), run warm, and the work it may do: the
batch shape of every ``linalg.hermitian_eigenvalues`` call, the number of
``gates.run_network`` calls, the reduction labels its ``CopyGrid`` builds, and
an upper bound on its ``tracemalloc`` peak.  Counts are exact.  A peak bound
is the peak measured with NumPy 2.4 on Python 3.11 plus ``PEAK_SLACK``, since
NumPy's temporaries vary by version; the slack is below the 200 KiB of one
(800, 4, 4) complex stack, so a full-size copy that returns to a step fails
its row.  The entry points are wrapped inside the test and restored after it.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qcopynet import copier, gates, linalg, report
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
