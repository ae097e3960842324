"""README's Library code block, run as written, against the values its comments promise."""

import re
from pathlib import Path

import numpy as np

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
    assert ns["ppt_verdict"](report.pair_reductions["a2a3"]).inseparable is True
    assert grid.d1["a2"].shape == (4,)
    assert grid.ppt_spectrum[:, 0].shape == (4,)
