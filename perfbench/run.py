"""qcopynet benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it measures the package under ``src/``.
With ``--trace 0`` it starts WORKERS fresh interpreters one after another;
each gives one set-up sample and measures for ``S / WORKERS`` seconds.  With
``--trace 1`` one interpreter reports the per-layer figures.  Workers run
single-threaded (OPENBLAS_NUM_THREADS=1).  Every output is checked against
the oracle in oracle.py.  Each workload's wall-clock figures and the run's
record (versions, source digest, CPU count and steal share) are printed
first; the last line is the JSON result whose metrics are those
BENCHMARK.json lists.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3
DEADLINE_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcopynet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_worker(args, stream: int, seconds: float, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--stream", str(stream), "--seconds", repr(seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, env={**os.environ, **SINGLE_THREAD}, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker {stream} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quantile(values, q: int) -> tuple[float, int]:
    """The q-th percentile (linear interpolation) and how many samples lie above it."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], 0
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return cut, sum(1 for v in values if v > cut)


def summarize(workload: str, workers: list) -> tuple[dict, dict]:
    """End-to-end metrics (workload-neutral names) and the figures named for this workload."""
    samples = [s for w in workers for s in w["samples"]]  # [kind, seconds, cost, items]
    seconds = [s[1] for s in samples]
    costs = [s[2] for s in samples]
    items = sum(s[3] for s in samples)
    items_per_s = items / sum(seconds)
    attempted = sum(w["attempted"] for w in workers)
    probe_us = statistics.mean(w["probe_s"] for w in workers) * 1e6
    figures = {}
    if workload == "sweep-readme":
        figures["sweep_pts_per_s"] = (items_per_s, "pts/s", f"{len(samples)} sweeps of 800 points")
    elif workload == "verify-full":
        figures["verify_s"] = (statistics.median(seconds), "s", f"median of {len(samples)} runs")
    else:
        for kind, tails in (("copy", (99,)), ("network", ()), ("angles", (90,))):
            ms = [s[1] * 1e3 for s in samples if s[0] == kind]
            figures[f"{kind}_ms_p50"] = (statistics.median(ms), "ms", f"{len(ms)} samples")
            for q in tails:
                cut, beyond = quantile(ms, q)
                figures[f"{kind}_ms_p{q}"] = (cut, "ms", f"{len(ms)} samples, {beyond} beyond")
        figures["requests_per_s"] = (items_per_s, "1/s", f"{len(samples)} requests, closed loop, 1 client")
    figures.update({
        "op_ms_p50": (statistics.median(seconds) * 1e3, "ms", f"{len(samples)} operations"),
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s", f"median of {len(workers)} fresh interpreters"),
        "peak_rss_mb": (max(w["rss_mb"] for w in workers), "MB", "largest worker"),
        "failed_frac": (sum(w["failed"] for w in workers) / attempted, "frac", f"{attempted} attempted"),
        "probe_us": (probe_us, "us", "mean speed-probe time; higher means a slower host"),
    })
    metrics = {
        "setup_s": figures["setup_s"][0],
        "op_cost_p50": statistics.median(costs),
        "items_per_kprobe": 1e3 * items / sum(costs),
        "peak_rss_mb": figures["peak_rss_mb"][0],
    }
    return metrics, figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one qcopynet benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "qcopynet" / "__init__.py").is_file():
        print(f"error: no qcopynet source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    before = cpu_times()
    try:
        if args.trace:
            workers = [run_worker(args, 0, args.seconds, deadline)]
        else:
            workers = [run_worker(args, i, args.seconds / WORKERS, deadline) for i in range(WORKERS)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    after = cpu_times()

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = workers[0]["layers"]
        figures = {}
    else:
        values, figures = summarize(args.workload, workers)
    missing = [m["name"] for m in listed if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}

    wrong = sum(w["wrong"] for w in workers)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **workers[0]["versions"],
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "steal_share": steal_share(before, after), "loadavg": os.getloadavg(),
        "notes": [n for w in workers for n in w["notes"]],
    }
    if args.trace:
        record["traced_units"] = workers[0]["traced_units"]
    if args.workload == "verify-full":
        record["seed_note"] = "the seed is ignored: verify pins its own grids and seeds"
    if missing:
        record["reported_as_zero"] = missing
    for name, (value, unit, detail) in figures.items():
        print(f"{name:<16} {value:>14.6g} {unit:<6} {detail}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
