"""The sweep renderers' byte contract: every float cell is the text of ``%.17g``.

``report._decimal_parts`` writes a metric cell in [1e-4, 1) as a head string
and an int, its exact 17-digit significand, computed in bulk.  These tests
hold it to ``"%.17g" % v`` cell by cell.  The README sweep's CSV and JSON
bytes, for both variants, are pinned by sha256 digests in
``tests/test_pins.py`` and checked here through ``cli.main``; the digests
were taken from the ``qcopynet sweep`` output before the bulk path existed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qcopynet.report import _decimal_parts

from test_pins import PINS, in_process


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


# name: variant, --metrics (None for all metrics)
README_SWEEPS = {
    "readme": ("triplicator", None),
    "readme-d1-d2-d3-E": ("triplicator", "d1,d2,d3,E"),
    "readme-duplicator": ("duplicator", None),
    "readme-duplicator-d1-d2-d3-E": ("duplicator", "d1,d2,d3,E"),
}


def variant_and_metrics(argv: tuple[str, ...]) -> tuple[str, str | None]:
    return argv[argv.index("--variant") + 1], argv[argv.index("--metrics") + 1] if "--metrics" in argv else None


SWEEP_PINS = [pin for pin in PINS if pin.argv[0] == "sweep" and pin.stdout]


@pytest.mark.parametrize("name", README_SWEEPS)
def test_readme_sweep_renders_its_pinned_bytes(name, monkeypatch, capsys):
    assert {variant_and_metrics(pin.argv) for pin in SWEEP_PINS} == set(README_SWEEPS.values())
    pins = [pin for pin in SWEEP_PINS if variant_and_metrics(pin.argv) == README_SWEEPS[name]]
    assert len({pin.stdout for pin in pins}) == 2  # one CSV digest, one JSON
    found = in_process(pins, monkeypatch, capsys)
    assert not found, "\n".join(found)
