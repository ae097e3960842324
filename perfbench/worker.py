"""One measured process of a benchmark run, started by run.py in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --stream I --seconds S --trace 0|1

With ``--trace 0`` it times the import of qcopynet plus the first operation
(one set-up sample), then runs operations in a closed loop under a
``SpeedProbe`` until the measured time is as close as it gets to
``--seconds``, checking every output.  With ``--trace 1`` it alternates an
untraced and a traced run of a fixed unit of work and reports per-layer
figures.  A workload with ``ops_per_s`` set runs a fixed number of
operations (or unit pairs) for the budget instead.  The last line of stdout
is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Requests in one traced unit of single-shot; sweep and verify units are one operation.
SINGLE_SHOT_UNIT = 100
# A fixed-count run that takes this many times its budget stops early (its counts then vary).
OVERRUN = 4.0
SOLVE = "copier.solve_preparation_angles"
PPT = "separability.ppt_verdict"


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0
        self.notes: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        if outcome.note and len(self.notes) < 10:
            self.notes.append(outcome.note)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong, "notes": self.notes}


class SpeedProbe:
    """Gauges the host's speed while an operation runs.

    On a shared host the same code runs at one speed or at up to twice that,
    and the share of slow time drifts within seconds.  Every INTERVAL_S of
    an operation, a SIGALRM handler times a fixed pure-Python loop.  An
    operation's cost is its time, less the probe's own time, divided by the
    mean probe time over the operation (over at least the last WINDOW
    probes, for short operations; 5% trimmed at each end).  Most of the
    host's drift cancels.
    """

    INTERVAL_S = 0.004
    WINDOW = 50

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(500):
            total += i * i % 7
        self.samples.append(time.perf_counter() - start)

    def measure(self, fn, arg):
        """(seconds fn(arg) took less the probe's time, its cost in probe units, its result)."""
        before = len(self.samples)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(arg)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        elapsed -= sum(self.samples[before:])
        if not self.samples:
            self.sample()
        window = sorted(self.samples[max(0, min(before, len(self.samples) - self.WINDOW)):])
        trim = len(window) // 20  # a probe the host stalled would skew the mean
        return elapsed, elapsed / statistics.mean(window[trim:len(window) - trim]), result


def timed(workload, request, tally: Tally, probe: SpeedProbe | None = None):
    """Prepare, time and check one operation; returns (seconds, cost, output, outcome).

    Without a probe the cost is None.
    """
    workload.prepare(request)
    if probe is None:
        start = time.perf_counter()
        output = workload.run(request)
        elapsed, cost = time.perf_counter() - start, None
    else:
        elapsed, cost, output = probe.measure(workload.run, request)
    outcome = workload.check(request, output)
    tally.add(outcome)
    return elapsed, cost, output, outcome


def measured_run(workload, import_s: float, budget: float) -> dict:
    """First operation as the set-up sample, then the closed loop under the speed probe."""
    tally = Tally()
    requests = workload.requests()
    first = timed(workload, next(requests), tally)[0]
    probe = SpeedProbe()
    if workload.ops_per_s:
        requests = itertools.islice(requests, max(1, round(budget * workload.ops_per_s) - 1))
    samples, measured = [], 0.0
    for request in requests:
        elapsed, cost, _, outcome = timed(workload, request, tally, probe)
        samples.append([getattr(request, "kind", workload.name), elapsed, cost, outcome.attempted])
        measured += elapsed
        if workload.ops_per_s:
            if measured >= OVERRUN * budget:
                tally.notes.append(f"stopped after {len(samples) + 1} operations at {OVERRUN:g}x the budget")
                break
        # stop at the operation count that lands nearest the budget
        elif measured + elapsed / 2.0 >= budget:
            break
    return {
        "setup_s": import_s + first,
        "samples": samples,
        "probe_s": statistics.mean(probe.samples),
        **tally.as_dict(),
    }


def trace_run(workload, budget: float) -> dict:
    from qcopynet import verify
    from workloads import Outcome

    tally = Tally()
    size = SINGLE_SHOT_UNIT if workload.name == "single-shot" else 1
    unit = list(itertools.islice(workload.requests(), size))

    def run_unit() -> tuple[float, int]:
        total, out_chars = 0.0, 0
        for request in unit:
            elapsed, _, output, _ = timed(workload, request, tally)
            total += elapsed
            if workload.name == "single-shot":
                out_chars += len(output[1])
        return total, out_chars

    run_unit()  # warm-up
    group_s = {}
    if workload.name == "verify-full":
        for group in verify.GROUP_ORDER:
            start = time.perf_counter()
            checks = verify.run_verification([group])
            group_s[group] = time.perf_counter() - start
            failed = sum(1 for c in checks if not c.passed)
            tally.add(Outcome(attempted=len(checks), failed=failed, wrong=failed))

    pairs = max(1, round(budget * workload.ops_per_s / (2 * size))) if workload.ops_per_s else None
    plain, traced, tracers = [], [], []
    while True:
        plain.append(run_unit()[0])
        with tracer.Tracer() as spans:
            seconds, out_chars = run_unit()
        traced.append(seconds)
        tracers.append(spans)
        spent = sum(plain) + sum(traced)
        if pairs is not None:
            if len(traced) >= pairs:
                break
            if spent >= OVERRUN * budget:
                tally.notes.append(f"stopped after {len(traced)} unit pairs at {OVERRUN:g}x the budget")
                break
        elif spent + (plain[-1] + traced[-1]) / 2.0 >= budget:
            break

    last = tracers[-1]
    layers = {}
    for name in list(tracer.public_functions()) + [tracer.PURE_STATE]:
        layers[f"{name}.calls"] = last.calls[name]
        layers[f"{name}.self_s"] = statistics.median(t.self_s[name] for t in tracers)
    solves, verdicts = last.calls[SOLVE], last.calls[PPT]
    layers.update({
        "gates.gate_applications": last.calls["gates.apply_rotation"] + last.calls["gates.apply_cnot"],
        "gates.pure_state_validations": last.calls[tracer.PURE_STATE],
        "copier.solver.evals_per_solve":
            last.under[SOLVE, "copier.amplitudes_from_angles"] / solves if solves else 0.0,
        "copier.solver.success_ratio": 1.0 - last.errors[SOLVE] / solves if solves else 0.0,
        "separability.eig_per_ppt": last.under[PPT, "linalg.hermitian_eigenvalues"] / verdicts if verdicts else 0.0,
        "report.bytes_out": sum(last.result_chars.values()),
        "cli.out_bytes": out_chars,
        "trace_overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        **{f"verify.group.{group}.s": seconds for group, seconds in group_s.items()},
    })
    return {"layers": layers, "traced_units": len(traced), **tally.as_dict()}


def versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stream", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qcopynet.cli  # noqa: F401  (the import a user pays, timed as set-up)
    import_s = time.perf_counter() - start
    import qcopynet

    if Path(qcopynet.__file__).resolve().parent != SRC / "qcopynet":
        print(f"qcopynet imported from {qcopynet.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.stream, Path(workdir))
        if args.trace:
            result = trace_run(workload, args.seconds)
        else:
            result = measured_run(workload, import_s, args.seconds)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
