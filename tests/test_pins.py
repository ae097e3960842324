"""Every pinned ``qcopynet`` run, in one list that tier-1 and CI both read.

A row of ``PINS`` is one run: argv, exit code, stdout (a file under
``tests/expected/``, a sha256 digest, or ``None``) and environment.  Network
inputs are the files under ``tests/networks/``.  ``problems`` also holds every
run to the streams' laws: exit 0 writes nothing on stderr, exit 2 nothing on
stdout and one ``error: `` line on stderr, and ``--format json`` one JSON
document.  Tier-1 runs each distinct argv once through ``cli.main``: the rows
with a file in ``tests/test_cli.py``'s pin tests, the digests in
``tests/test_report.py``, the rest here.  CI runs every row in a fresh
``python -m qcopynet`` under ``PYTHONWARNINGS=error``.

The rule: a new byte pin is one row here, and any other check is not a row.
"""

import hashlib
import json
import re
from pathlib import Path
from typing import NamedTuple

from qcopynet import cli

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "expected"
DIGEST = re.compile(r"[0-9a-f]{64}")


class Pin(NamedTuple):
    argv: tuple[str, ...]
    stdout: str | None = None  # a file under tests/expected/, a sha256 hex digest, or None
    code: int = 0
    env: tuple[tuple[str, str], ...] = ()


def sweep(variant: str, *options: str) -> tuple[str, ...]:
    """README's 20x40 grid over theta in [0, pi/2] and phi in [0, 2pi], written to stdout."""
    grid = ("--theta", "0", "1.5707963267948966", "20", "--phi", "0", "6.283185307179586", "40", "--out", "-")
    return ("sweep", "--variant", variant, *grid, *options)


CSV, JSON = ("--format", "csv"), ("--format", "json")
D1_D2_D3_E = ("--metrics", "d1,d2,d3,E")
README_COPY = ("copy", "--theta", "0.7853981633974483", "--phi", "0", "--variant", "duplicator")
PHASED_COPY = ("copy", "--theta", "0.7853981633974483", "--phi", "0.3", "--variant", "triplicator")
AMPLITUDE_COPY = ("copy", "--alpha", "0.6", "--beta", "0.8", "--variant", "triplicator")
README_TARGET = ("0.8164965809277261", "0.4082482904638631", "0.4082482904638631", "0")
SEARCH_FAILURE = ("--", "-0.6334260970058752", "0.22520128876980577", "0.2300465632607164", "0.7036578272855746")
PREP = ("network", "tests/networks/prep.txt")
SEED_1, SEED_2 = (("PYTHONHASHSEED", "1"),), (("PYTHONHASHSEED", "2"),)

PINS = (
    # verify passes every check, as a whole and by groups, and each JSON document parses
    Pin(("verify",)),
    Pin(("verify", "--only", "ppt,bound", *JSON)),
    Pin(("verify", "--only", "basis,bound", *JSON)),
    Pin(("verify", "--only", "angles,properties", *JSON)),
    Pin(("verify", "--only", "trip-complex,trip-real")),
    # an unknown group is a usage error
    Pin(("verify", "--only", "nosuch"), code=2),
    # README's copy; the duplicator's 1e-16 entries are the reductions' rounding
    Pin(README_COPY, "copy-duplicator-readme.txt"),
    Pin((*README_COPY, *JSON)),
    # a phased triplicator input, in both formats
    Pin(PHASED_COPY, "copy-triplicator-phased.txt"),
    Pin((*PHASED_COPY, *JSON), "copy-triplicator-phased.json"),
    # the only copy request that goes through InputQubit.from_amplitudes
    Pin(AMPLITUDE_COPY, "copy-triplicator-amplitudes.txt"),
    Pin((*AMPLITUDE_COPY, *JSON)),
    # a subnormal amplitude is a usage error, not a NaN norm and a traceback
    Pin(("copy", "--alpha", "1e-320", "--beta", "0"), code=2),
    # the README sweep's bytes under two hash seeds: the writers' output order is deterministic
    Pin(sweep("triplicator", *CSV), "7b23308febd67022c74bd784f5d5f5c654c3290575561988e9eeb30626d824be", env=SEED_1),
    Pin(sweep("triplicator", *CSV), "7b23308febd67022c74bd784f5d5f5c654c3290575561988e9eeb30626d824be", env=SEED_2),
    Pin(sweep("triplicator", *JSON), "7f35b6a0e5fab63e36b369fbe966dc7070ec7efe3bed6145db76324aedd8e213", env=SEED_1),
    Pin(sweep("triplicator", *JSON), "7f35b6a0e5fab63e36b369fbe966dc7070ec7efe3bed6145db76324aedd8e213", env=SEED_2),
    # both variants' sweeps by digest: a formatter change that altered CSV and JSON alike passes their cell agreement
    Pin(sweep("triplicator", *D1_D2_D3_E), "b550e52749399b438320f744c9c0cf6f09572133df9b8ca06cf5a5b377be9e44"),
    Pin(sweep("triplicator", *D1_D2_D3_E, *JSON), "a91c9dce12ede93a6a01c6e403ed6071c15f2a03c2db2271ac86f5f0efaf1c1e"),
    Pin(sweep("duplicator"), "717052b9b5262ca4d16204441ec872f443619c74ae70a6fc705afdcaf53b134f"),
    Pin(sweep("duplicator", *JSON), "f85186116b509e26069c5d3010c4fbbef34b1693f7ccf3734cca36480335e9b4"),
    Pin(sweep("duplicator", *D1_D2_D3_E), "2638e02b231028e417ff5a8738ee55816ee276f48b9ba672af6090937dc294c6"),
    Pin(sweep("duplicator", *D1_D2_D3_E, *JSON), "14fc533df1e96f9bf831373a4956942e47d9bdabc6d34fc8a31855bf2216c3b6"),
    # metric subsets: d1 and E; scaling and fidelity without d1; d2 alone builds no reduction; E alone only a2a3
    Pin(sweep("triplicator", "--metrics", "d1,E", *JSON)),
    Pin(sweep("triplicator", "--metrics", "s,fidelity", *JSON)),
    Pin(sweep("triplicator", "--metrics", "d2", *JSON)),
    Pin(sweep("triplicator", "--metrics", "E", *JSON)),
    # a one-point grid
    Pin(("sweep", "--variant", "duplicator", "--theta", "0.5", "0.5", "1", "--phi", "0", "0", "1", "--out", "-",
         *JSON)),
    # README's two angles commands, and the target a local search missed
    Pin(("angles", *README_TARGET), "angles-readme.txt"),
    Pin(("angles", *JSON, *README_TARGET)),
    Pin(("angles", *SEARCH_FAILURE), "angles-readme-negative.txt"),
    Pin(("angles", *JSON, *SEARCH_FAILURE), "angles-search-failure.json"),
    # the degenerate target's even split as it prints, theta1 = 0.0 written as the JSON integer 0
    Pin(("angles", *JSON, "0.7071067811865476", "0", "0", "0.7071067811865476"), "angles-degenerate.json"),
    # the duplicator's preparation stage, from four states
    Pin((*PREP, "--state", "00"), "network-prep-00.txt"),
    Pin((*PREP, "--state", "0.6,0,0,0.8"), "network-prep-real.txt"),
    Pin(PREP, "network-prep-default.txt"),  # no --state: the network starts from |00>
    Pin((*PREP, "--state", "0.6,0.48j,0,0.64"), "network-prep-complex.txt"),  # +0j on every reduction's diagonal
    Pin((*PREP, "--state", "1e-320,0,0,0"), code=2),  # a subnormal state is a usage error too
    # three qubits: three pairs verdicted from one stacked spectrum; a 2.77556e-17 entry is the reductions' rounding
    Pin(("network", "tests/networks/three-qubits.txt", "--state", "0.6,0,0.48j,0,0,0,0,0.64"),
        "network-three-qubits.txt"),
    # one qubit: the reductions' letter rule at n = 1, and no pairs to verdict
    Pin(("network", "tests/networks/one-qubit.txt", "--state", "1"), "network-one-qubit.txt"),
    # a network file that is not UTF-8 is a usage error
    Pin(("network", "tests/networks/latin1.txt"), code=2),
)


def problems(pin: Pin, code: int, out: bytes, err: bytes) -> list[str]:
    """What is wrong with a run of ``pin`` that exited ``code`` and printed ``out`` and ``err``; empty if nothing."""
    found = []
    if code != pin.code:
        found.append(f"exit {code}, expected {pin.code}")
    if pin.code == 0 and err:
        found.append(f"stderr is not empty: {err[:200]!r}")
    if pin.code == 2 and (out or not re.fullmatch(rb"error: [^\n]*\n", err)):
        found.append(f"exit 2 wants no stdout and one 'error: ' line on stderr, got {out[:200]!r} and {err[:200]!r}")
    if JSON in zip(pin.argv, pin.argv[1:]):
        try:
            json.loads(out)
        except ValueError as error:
            found.append(f"stdout is not one JSON document: {error}")
    if pin.stdout is None:
        return found
    if DIGEST.fullmatch(pin.stdout):
        if hashlib.sha256(out).hexdigest() != pin.stdout:
            found.append(f"stdout's sha256 is {hashlib.sha256(out).hexdigest()}, pinned {pin.stdout}")
    elif out != (EXPECTED / pin.stdout).read_bytes():
        found.append(f"stdout differs from tests/expected/{pin.stdout}")
    return found


def in_process(pins, monkeypatch, capsys) -> list[str]:
    """Run each distinct argv of ``pins`` once through ``cli.main`` from the repo root; every row's problems."""
    monkeypatch.chdir(ROOT)
    found = []
    for argv in dict.fromkeys(pin.argv for pin in pins):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        found += [f"{pin}: {problem}" for pin in pins if pin.argv == argv
                  for problem in problems(pin, code, out.encode(), err.encode())]
    return found


def test_every_run_pinned_by_its_exit_code_and_streams_alone(monkeypatch, capsys):
    # rows with a file or digest run in test_cli.py's copy, angles and network pin tests and test_report.py's sweeps
    found = in_process([pin for pin in PINS if pin.stdout is None], monkeypatch, capsys)
    assert not found, "\n".join(found)


def test_every_expected_file_is_pinned_and_every_row_is_distinct():
    files = {pin.stdout for pin in PINS if pin.stdout is not None and not DIGEST.fullmatch(pin.stdout)}
    assert files == {path.name for path in EXPECTED.iterdir()}
    assert all((ROOT / arg).is_file() for pin in PINS for arg in pin.argv if arg.startswith("tests/"))
    assert len(set(PINS)) == len(PINS)
    # every row with a stdout is one that a pin test of test_cli.py or test_report.py selects
    assert all(pin.argv[0] in ("copy", "angles", "network") if pin.stdout in files else pin.argv[0] == "sweep"
               for pin in PINS if pin.stdout is not None)
