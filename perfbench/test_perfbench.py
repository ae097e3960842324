"""Tests of the benchmark's own machinery: tracer restore, oracle, workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qcopynet import cli, copier, gates, report  # noqa: E402
from qcopynet.copier import CopyVariant  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every loaded qcopynet module, plus PureState.__post_init__."""
    found = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "qcopynet" or name.startswith("qcopynet.")
        for attr, value in vars(module).items()
    }
    found[("PureState", "__post_init__")] = gates.PureState.__dict__["__post_init__"]
    return found


def _copy_request(tmp_path: Path, seed: int = 3) -> workloads.Request:
    shot = workloads.SingleShot(seed, 0, tmp_path)
    return next(r for r in shot.requests() if r.kind == "copy")


def test_untraced_run_after_traced_run_sees_original_functions(tmp_path):
    shot = workloads.SingleShot(3, 0, tmp_path)
    request = _copy_request(tmp_path)
    before = _bindings()
    with tracer.Tracer() as spans:
        assert cli.run_copier is not before[("qcopynet.cli", "run_copier")]
        assert shot.check(request, shot.run(request)).wrong == 0
    assert spans.calls["cli.main"] == 1
    assert spans.calls["copier.run_copier"] == 1
    assert spans.under["separability.ppt_verdict", "linalg.hermitian_eigenvalues"] == 2 * spans.calls[
        "separability.ppt_verdict"]

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    recorded = sum(spans.calls.values())
    assert shot.check(request, shot.run(request)).wrong == 0
    assert sum(spans.calls.values()) == recorded


def test_tracer_restores_bindings_when_the_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []


def _small_sweep(rows_edit=None):
    theta, phi = (0.0, math.pi / 2.0, 3), (0.1, 2.0 * math.pi, 4)
    spec = report.SweepSpec(CopyVariant.TRIPLICATOR, report.GridSpec(*theta), report.GridSpec(*phi))
    rows = report.sweep_rows(spec)
    if rows_edit:
        rows_edit(rows)
    document = report.sweep_document(spec, rows)
    expected = oracle.expected_sweep("triplicator", theta, phi)
    return report.render_csv(document), report.render_json(document), expected


def test_oracle_accepts_the_program_sweep():
    assert oracle.bad_sweep_rows(*_small_sweep()) == 0


@pytest.mark.parametrize("column", ["d1_a2", "d2_a1a3", "d3", "fid_a2", "E_a2a3", "phi"])
def test_oracle_rejects_a_row_with_one_cell_perturbed_by_1e_9(column):
    def perturb(rows):
        rows[5][column] += 1e-9

    assert oracle.bad_sweep_rows(*_small_sweep(perturb)) == 1


def test_oracle_rejects_csv_and_json_decimals_that_differ():
    csv_text, json_text, expected = _small_sweep()
    lines = csv_text.split("\n")
    cells = lines[2].split(",")
    cells[3] += "0"  # the same double, written differently
    lines[2] = ",".join(cells)
    assert oracle.bad_sweep_rows("\n".join(lines), json_text, expected) == 1


def test_oracle_preparation_matches_the_closed_form_angles():
    for variant in CopyVariant:
        angles = copier.preparation_angles(variant).as_array()
        assert np.allclose(oracle.preparation_amplitudes(*angles), copier.preparation_amplitudes(variant), atol=1e-14)


def test_single_shot_requests_pass_the_oracle(tmp_path):
    shot = workloads.SingleShot(7, 0, tmp_path)
    kinds = set()
    for request in itertools.islice(shot.requests(), 40):
        shot.prepare(request)
        outcome = shot.check(request, shot.run(request))
        assert outcome.wrong == 0, outcome.note
        kinds.add((request.kind, request.fmt))
    assert kinds == {("copy", "human"), ("copy", "json"), ("network", "human"),
                     ("angles", "human"), ("angles", "json")}


def test_single_shot_runs_a_fixed_request_count_for_its_budget(tmp_path):
    runs = [worker.measured_run(workloads.SingleShot(5, 0, tmp_path), 0.0, 0.1) for _ in range(2)]
    assert [run["attempted"] for run in runs] == [10, 10]
    assert [s[0] for s in runs[0]["samples"]] == [s[0] for s in runs[1]["samples"]]


def test_oracle_rejects_a_wrong_copy_report(tmp_path):
    shot = workloads.SingleShot(3, 0, tmp_path)
    request = _copy_request(tmp_path)
    code, out, err = shot.run(request)
    variant, theta, phi = request.payload
    assert shot.check(request, (code, out, err)).wrong == 0
    other = workloads.Request(request.kind, request.argv, request.fmt, (variant, theta + 1e-3, phi))
    assert shot.check(other, (code, out, err)).wrong == 1


def test_seed_zero_is_the_readme_grid_and_other_seeds_shift_phi():
    assert workloads.phi_grid(0) == (0.0, 2.0 * math.pi, 40)
    step = 2.0 * math.pi / 39
    starts = [workloads.phi_grid(seed)[0] for seed in range(1, 20)]
    assert all(0.0 < start < step for start in starts)
    assert len(set(starts)) == len(starts)
