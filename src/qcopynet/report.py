"""Parameter sweeps and their CSV/JSON serialization.

CSV and JSON read one column formatter, which renders each column's floats
in one pass to 17 significant digits, so the decimal strings of a sweep are
identical in both formats and round-trip to the same doubles.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .copier import PAIR_LABELS, QUBIT_LABELS, CopyVariant, evaluate_grid

__all__ = [
    "CSV_COLUMNS",
    "METRICS",
    "MAX_GRID_POINTS",
    "SCHEMA_VERSION",
    "GridSpec",
    "SweepSpec",
    "sweep_rows",
    "sweep_document",
    "render_csv",
    "render_json",
    "format_float",
]

SCHEMA_VERSION = "1"

CSV_COLUMNS = [
    "theta",
    "phi",
    "variant",
    "d1_a1",
    "d1_a2",
    "d1_a3",
    "d2_a2a3",
    "d2_a1a2",
    "d2_a1a3",
    "d3",
    "s_a2",
    "fid_a2",
    "E_a2a3",
]

# The metric names a sweep selects from; each fills its group of CSV columns.
METRICS = frozenset({"d1", "d2", "d3", "s", "fidelity", "E"})

# A sweep is evaluated as one batch of arrays, a few kilobytes per point
# from evaluation to rendering; the cap keeps a typo from exhausting memory.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class GridSpec:
    """An inclusive linear grid of angles in radians."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        try:
            operator.index(self.count)
        except TypeError:
            raise ValueError(f"grid count must be an integer, got {self.count!r}") from None
        if not 1 <= self.count <= MAX_GRID_POINTS:
            raise ValueError(f"grid count must be between 1 and {MAX_GRID_POINTS}, got {self.count:.6g}")
        for edge in (self.start, self.stop):
            if not 0.0 <= edge <= 2.0 * math.pi + 1e-12:
                raise ValueError(f"grid edge {edge!r} outside [0, 2*pi]")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A (theta, phi) product grid plus the metrics to evaluate on it."""

    variant: CopyVariant
    theta_grid: GridSpec
    phi_grid: GridSpec
    metrics: frozenset = METRICS

    def __post_init__(self) -> None:
        unknown = set(self.metrics) - METRICS
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}; choose from {sorted(METRICS)}")
        object.__setattr__(self, "metrics", frozenset(self.metrics))
        points = self.theta_grid.count * self.phi_grid.count
        if points > MAX_GRID_POINTS:
            raise ValueError(
                f"grid of {self.theta_grid.count} x {self.phi_grid.count} = {points} points "
                f"exceeds the limit of {MAX_GRID_POINTS}"
            )


def sweep_rows(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep, one row dict per grid point, theta-major order.

    Every CSV column is present in every row; deselected metrics and
    inapplicable values (duplicator d3, absent scaling fits) are None.
    """
    grid = evaluate_grid(spec.variant, spec.theta_grid.values(), spec.phi_grid.values())
    metrics, count = spec.metrics, grid.theta.size
    columns = {
        "theta": grid.theta.tolist(),
        "phi": grid.phi.tolist(),
        "variant": [spec.variant.value] * count,
    }
    if "d1" in metrics:
        columns.update({f"d1_{label}": grid.d1[label].tolist() for label in QUBIT_LABELS})
    if "d2" in metrics:
        columns.update({f"d2_{label}": grid.d2[label].tolist() for label in PAIR_LABELS})
    if "d3" in metrics and grid.d3 is not None:
        columns["d3"] = grid.d3.tolist()
    if "s" in metrics:
        columns["s_a2"] = [None if math.isnan(s) else s for s in grid.scaling["a2"].tolist()]
    if "fidelity" in metrics:
        columns["fid_a2"] = grid.fidelity["a2"][:, 0].tolist()
    if "E" in metrics:
        columns["E_a2a3"] = grid.ppt_spectrum[:, 0].tolist()
    blank = [None] * count
    cells = zip(*(columns.get(column, blank) for column in CSV_COLUMNS))
    return [dict(zip(CSV_COLUMNS, row)) for row in cells]


def _document_meta(kind: str, **fields) -> dict:
    """The ``meta`` head of every JSON document: schema, generator, kind, then ``fields`` in order."""
    return {"schema_version": SCHEMA_VERSION, "generator": f"qcopynet {__version__}", "kind": kind, **fields}


def sweep_document(spec: SweepSpec, rows: list[dict]) -> dict:
    return {
        "meta": _document_meta(
            "sweep",
            variant=spec.variant.value,
            theta_grid=dict(vars(spec.theta_grid)),
            phi_grid=dict(vars(spec.phi_grid)),
            metrics=sorted(spec.metrics),
            columns=list(CSV_COLUMNS),
        ),
        "rows": rows,
        "summary": {"row_count": len(rows)},
    }


def _float_texts(values: list) -> list[str]:
    """Floats at 17 significant digits (lossless for doubles), after one finiteness pass."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite value {next(v for v in values if not math.isfinite(v))!r} in report")
    return [f"{v:.17g}" for v in values]


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless for doubles)."""
    return _float_texts([x])[0]


def _column_texts(values: list, other) -> list[str]:
    """One column as text: its floats through ``_float_texts`` in one pass, every other cell through ``other``."""
    floats = [v for v in values if type(v) is float]
    if len(floats) == len(values):
        return _float_texts(floats)
    texts = iter(_float_texts(floats))
    return [next(texts) if type(v) is float else other(v) for v in values]


def _csv_other(value) -> str:
    return "" if value is None else value if isinstance(value, str) else format_float(value)


def render_csv(document: dict) -> str:
    """CSV body for a sweep document; header row first, empty cell for None."""
    rows = document["rows"]
    cells = [_column_texts([row[column] for row in rows], _csv_other) for column in CSV_COLUMNS]
    return "\n".join([",".join(CSV_COLUMNS), *map(",".join, zip(*cells))]) + "\n"


def _json_objects(records: list, indent: int) -> list[str]:
    """Non-empty dicts that share one key sequence as JSON objects: keys escaped once, values by column."""
    pad, keys = "  " * indent, records[0]
    fields = ",\n".join(f"{pad}  {encode_basestring_ascii(key).replace('%', '%%')}: %s" for key in keys)
    cells = [_column_texts([item[key] for item in records], lambda v: _json_value(v, indent + 1)) for key in keys]
    return list(map(f"{{\n{fields}\n{pad}}}".__mod__, zip(*cells)))


def _json_value(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        return _json_objects([value], indent)[0] if value else "{}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        keys = tuple(value[0]) if isinstance(value[0], dict) else ()
        if keys and all(isinstance(item, dict) and tuple(item) == keys for item in value):
            items = _json_objects(value, indent + 1)
        else:
            items = _column_texts(value, lambda v: _json_value(v, indent + 1))
        return "[\n" + ",\n".join(f"{pad}  {item}" for item in items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(document: dict) -> str:
    """JSON text with floats rendered exactly as in the CSV output and strings escaped to ASCII."""
    return _json_value(document, 0) + "\n"
