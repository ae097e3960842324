"""The sweep renderers' byte contract: every float cell is the text of ``%.17g``.

``report._decimal_parts`` writes a metric cell in [1e-4, 1) as a head string
and an int, its exact 17-digit significand, computed in bulk.  These tests
hold it to ``"%.17g" % v`` cell by cell, and pin the README sweep's CSV and
JSON bytes by the sha256 digests in ``tests/expected/readme-sweep.sha256``,
which were taken from the ``qcopynet sweep`` output before the bulk path
existed.  CI checks the same digests against the CLI's output.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qcopynet.copier import CopyVariant
from qcopynet.report import (
    METRICS, GridSpec, SweepSpec, _decimal_parts, render_csv, render_json, sweep_document, sweep_rows,
)

DIGESTS = Path(__file__).resolve().parent / "expected" / "readme-sweep.sha256"


def assert_parts_are_the_17g_texts(values: np.ndarray) -> None:
    before = values.copy()
    heads, tails = _decimal_parts(values)
    assert [h + str(t) for h, t in zip(heads, tails)] == ["%.17g" % v for v in values.tolist()]
    assert np.array_equal(values.view(np.int64), before.view(np.int64))  # the input is left as it was


# any double (subnormals, 0 and -0, NaN and infinities included), and the fast path's range of either sign
CELLS = st.one_of(
    st.floats(width=64),
    st.floats(1e-4, 1.0, exclude_max=True),
    st.floats(-1.0, -1e-4, exclude_min=True),
)


@settings(derandomize=True, deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=CELLS))
def test_decimal_parts_are_the_17g_text_of_every_cell(values):
    assert_parts_are_the_17g_texts(values)
    assert_parts_are_the_17g_texts(values[::-2])  # a strided view, as a table's field is


def edge_values() -> np.ndarray:
    edges = [np.nextafter(edge, toward) for edge in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0) for toward in (0.0, 20.0)]
    edges += [1e-4, 1e-3, 1e-2, 0.1, 0.5, np.nextafter(1.0, 0.0)]  # 0.5's significand has sixteen trailing zeros
    ties = np.arange(26215, 262143, 2) / 2.0**18  # n / 2**18 >= 0.1 for odd n: the 18th digit is a 5, an exact tie
    values = np.concatenate([edges, ties])
    return np.concatenate([values, -values])


def test_decimal_parts_match_17g_at_the_edges_of_the_range_and_on_exact_ties():
    values = edge_values()
    assert values.size == 2 * (20 + 117_964)
    assert_parts_are_the_17g_texts(values)


README_THETA = GridSpec(0.0, math.pi / 2.0, 20)
README_PHI = GridSpec(0.0, 2.0 * math.pi, 40)
# name in the digest file: variant, metrics
README_SWEEPS = {
    "readme": (CopyVariant.TRIPLICATOR, METRICS),
    "readme-d1-d2-d3-E": (CopyVariant.TRIPLICATOR, {"d1", "d2", "d3", "E"}),
    "readme-duplicator": (CopyVariant.DUPLICATOR, METRICS),
    "readme-duplicator-d1-d2-d3-E": (CopyVariant.DUPLICATOR, {"d1", "d2", "d3", "E"}),
}


def pinned_digests() -> dict[str, str]:
    return {name: digest for digest, name in (line.split() for line in DIGESTS.read_text().splitlines())}


def test_the_digest_file_pins_every_readme_sweep_in_both_formats():
    assert set(pinned_digests()) == {f"{name}.{fmt}" for name in README_SWEEPS for fmt in ("csv", "json")}


@pytest.mark.parametrize("name", README_SWEEPS)
def test_readme_sweep_renders_its_pinned_bytes(name):
    variant, metrics = README_SWEEPS[name]
    spec = SweepSpec(variant, README_THETA, README_PHI, frozenset(metrics))
    document = sweep_document(spec, sweep_rows(spec))
    digests = pinned_digests()
    for fmt, render in (("csv", render_csv), ("json", render_json)):
        assert hashlib.sha256(render(document).encode()).hexdigest() == digests[f"{name}.{fmt}"], fmt
