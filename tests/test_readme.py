"""README's code blocks, run as written: the Library block against the values its
comments promise, and every CLI example line against its documented exit code;
and its Tolerances table against the constants it names."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import numpy as np

from qcopynet import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_namespace() -> dict:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1, "README should hold exactly one python block"
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    return namespace


def test_readme_library_block_runs_and_keeps_its_promises():
    ns = library_namespace()
    report, grid = ns["report"], ns["grid"]
    assert abs(report.d1["a2"] - 1.0 / 18.0) < 1e-12
    assert np.max(np.abs(np.array(report.fidelity["a2"]) - [5.0 / 6.0, 1.0 / 6.0])) < 1e-12
    assert abs(report.scaling["a2"] - 2.0 / 3.0) < 1e-12
    assert report.ppt["a2a3"].inseparable is True
    assert ns["ppt_verdict"](report.pair_reductions["a2a3"]).inseparable is True
    assert grid.d1["a2"].shape == (4,)
    assert grid.ppt_spectrum[:, 0].shape == (4,)


def readme_cli_lines() -> list[list[str]]:
    """Every ``qcopynet ...`` line of README's sh blocks, continuations joined, as argv without the program."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["qcopynet"]:
                lines.append(argv[1:])
    return lines


def test_readme_cli_examples_exit_as_documented(tmp_path, monkeypatch, capsys):
    network = re.search(r"## Network file format\n.*?```\n(.*?)```", README.read_text(), flags=re.DOTALL)
    (tmp_path / "prep.txt").write_text(network.group(1))
    monkeypatch.chdir(tmp_path)
    examples = readme_cli_lines()
    assert {argv[0] for argv in examples} == {"verify", "copy", "sweep", "network", "angles"}
    for argv in examples:
        # the override example tightens every tolerance past what the numerics reach
        expected = 1 if argv == ["verify", "--tolerance", "1e-15"] else 0
        assert (cli.main(argv), capsys.readouterr().err) == (expected, ""), argv
    assert (tmp_path / "sweep.csv").read_text().count("\n") == 801


def test_readme_tolerance_table_matches_the_code():
    # each row's `module.NAME` holds the row's value, and every named tolerance in src has a row
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| ([^|]+) \|", README.read_text(), flags=re.MULTILINE)
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"qcopynet.{module}"), name) == float(value), (module, name, value)
    defined = {
        (path.stem, target.id)
        for path in Path(cli.__file__).parent.glob("*.py")
        for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith(("_TOL", "_CUTOFF", "_GAP", "_SLACK"))
    }
    assert defined == {(module, name) for module, name, _ in rows}
