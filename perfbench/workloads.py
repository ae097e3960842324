"""The benchmark's workloads: seeded inputs, one timed operation, and its check.

Each workload yields requests from ``requests()``.  ``prepare`` does the
untimed client work for a request (writing a network file), ``run`` is the
timed call into qcopynet, and ``check`` compares the output with the
oracle and returns an ``Outcome``.  A workload whose ``ops_per_s`` is set
runs a fixed number of operations per second of budget instead of filling
its time, so that its ``attempted`` and ``failed`` counts depend only on the
seed and the budget.  Calls go through module attributes
(``report.sweep_rows``, ``cli.main``) so that a ``Tracer`` sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from qcopynet import cli, report, verify
from qcopynet.copier import CopyVariant

# README sweep: triplicator, theta 0..pi/2 x20, phi 0..2pi x40, all metrics.
THETA_GRID = (0.0, math.pi / 2.0, 20)
PHI_COUNT = 40
# The seed moves the phi grid's start by a fraction of one step; seed 0 keeps the README grid.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# single-shot: per block of ten requests, in seeded order.
BLOCK = ("copy",) * 8 + ("network", "angles")
MAX_NETWORK_GATES = 12
SOLVER_FAILURE = "error: no angle solution found"


@dataclass
class Outcome:
    """Checked result of one operation, counted in items (rows, checks or requests)."""

    attempted: int
    failed: int = 0
    wrong: int = 0   # failures that are not the known angle-solver defect
    note: str = ""


def phi_grid(seed: int) -> tuple[float, float, int]:
    step = 2.0 * math.pi / (PHI_COUNT - 1)
    return ((seed * GOLDEN) % 1.0 * step, 2.0 * math.pi, PHI_COUNT)


class SweepReadme:
    """The README triplicator sweep, in-process, as ``qcopynet sweep`` runs it."""

    name = "sweep-readme"
    ops_per_s = None

    def __init__(self, seed: int, stream: int, workdir: Path) -> None:
        self.phi_grid = phi_grid(seed)
        self.spec = report.SweepSpec(
            variant=CopyVariant.TRIPLICATOR,
            theta_grid=report.GridSpec(*THETA_GRID),
            phi_grid=report.GridSpec(*self.phi_grid),
        )
        self.points = THETA_GRID[2] * PHI_COUNT
        self._expected = None

    def requests(self):
        while True:
            yield "sweep"

    def prepare(self, request) -> None:
        pass

    def run(self, request):
        rows = report.sweep_rows(self.spec)
        document = report.sweep_document(self.spec, rows)
        return report.render_csv(document), report.render_json(document)

    def check(self, request, output) -> Outcome:
        if self._expected is None:
            self._expected = oracle.expected_sweep("triplicator", THETA_GRID, self.phi_grid)
        bad = oracle.bad_sweep_rows(*output, self._expected)
        return Outcome(attempted=self.points, failed=bad, wrong=bad)


class VerifyFull:
    """``run_verification()`` over every group, then the JSON document."""

    name = "verify-full"
    ops_per_s = None

    def __init__(self, seed: int, stream: int, workdir: Path) -> None:
        pass

    def requests(self):
        while True:
            yield "verify"

    def prepare(self, request) -> None:
        pass

    def run(self, request):
        checks = verify.run_verification()
        return checks, report.render_json(verify.verification_document(checks))

    def check(self, request, output) -> Outcome:
        checks, text = output
        failed = sum(1 for c in checks if not c.passed)
        summary = json.loads(text)["summary"]
        consistent = summary == {"total": len(checks), "passed": len(checks) - failed, "failed": failed}
        wrong = failed if consistent else len(checks)
        return Outcome(attempted=len(checks), failed=wrong, wrong=wrong)


@dataclass
class Request:
    kind: str
    argv: list
    fmt: str = "human"
    payload: tuple = ()       # what the oracle needs to check the output
    file_text: str = ""


class SingleShot:
    """One closed-loop client sending single requests to ``cli.main``."""

    name = "single-shot"
    # Fixed, not time-filled: the known angle-solver defect fails about one
    # request a run, and the count must not vary with the host's speed.
    # 100 requests per second is about what a 2-vCPU VM makes.
    ops_per_s = 100.0

    def __init__(self, seed: int, stream: int, workdir: Path) -> None:
        self.rng = np.random.default_rng([seed, stream])
        self.network_file = workdir / "network.txt"
        self.count = {"copy": 0, "network": 0, "angles": 0}

    def requests(self):
        while True:
            for kind in self.rng.permutation(BLOCK):
                yield getattr(self, f"_{kind}")()

    def _format(self, kind: str) -> str:
        self.count[kind] += 1
        return "json" if self.count[kind] % 2 == 0 else "human"

    def _copy(self) -> Request:
        theta = float(self.rng.uniform(0.0, math.pi / 2.0))
        phi = float(self.rng.uniform(0.0, 2.0 * math.pi))
        variant = str(self.rng.choice(["duplicator", "triplicator"]))
        fmt = self._format("copy")
        argv = ["copy", f"--theta={theta!r}", f"--phi={phi!r}", "--variant", variant, "--format", fmt]
        return Request("copy", argv, fmt, (variant, theta, phi))

    def _network(self) -> Request:
        gates = []
        for _ in range(int(self.rng.integers(1, MAX_NETWORK_GATES + 1))):
            if self.rng.random() < 0.5:
                gates.append(("R", int(self.rng.integers(3)), float(self.rng.uniform(-math.pi, math.pi))))
            else:
                control, target = (int(q) for q in self.rng.permutation(3)[:2])
                gates.append(("CNOT", control, target))
        text = "".join(f"{kind} {a} {b!r}\n" if kind == "R" else f"{kind} {a} {b}\n" for kind, a, b in gates)
        if self.rng.random() < 0.5:
            index = int(self.rng.integers(8))
            spec = format(index, "03b")
            state = np.eye(8)[index]
        else:
            state = self.rng.normal(size=8) + 1j * self.rng.normal(size=8)
            state /= np.linalg.norm(state)
            spec = ",".join(repr(complex(z)) for z in state)
        argv = ["network", str(self.network_file), f"--state={spec}"]
        return Request("network", argv, "human", (gates, state), text)

    def _angles(self) -> Request:
        target = oracle.preparation_amplitudes(*self.rng.uniform(-math.pi, math.pi, size=3))
        fmt = self._format("angles")
        argv = ["angles", "--format", fmt, "--", *(repr(float(c)) for c in target)]
        return Request("angles", argv, fmt, (target,))

    def prepare(self, request: Request) -> None:
        if request.file_text:
            self.network_file.write_text(request.file_text)

    def run(self, request: Request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(request.argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, request: Request, output) -> Outcome:
        code, out, err = output
        if request.kind == "angles" and code == 1 and err.startswith(SOLVER_FAILURE):
            return Outcome(attempted=1, failed=1, note="angle solver failed on a reachable target")
        try:
            if request.kind == "copy":
                check = oracle.copy_json_ok if request.fmt == "json" else oracle.copy_human_ok
                ok = check(out, *request.payload)
            elif request.kind == "network":
                ok = oracle.network_human_ok(out, *request.payload)
            else:
                ok = oracle.angles_ok(out, request.fmt, *request.payload)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError):
            ok = False
        if code == 0 and not err and ok:
            return Outcome(attempted=1)
        verdict = "matches" if ok else "disagrees with"
        note = f"{request.kind} {request.fmt}: exit {code}, output {verdict} the oracle; stderr {err.strip()[:160]!r}"
        return Outcome(attempted=1, failed=1, wrong=1, note=note)


WORKLOADS = {cls.name: cls for cls in (SweepReadme, VerifyFull, SingleShot)}
