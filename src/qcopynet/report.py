"""Parameter sweeps and their CSV/JSON serialization.

Every float (``float`` and its subclasses such as ``np.float64``) is written
at ``%.17g``, so the decimal strings of a sweep are identical in both formats
and round-trip to the same doubles.  A sweep's rows are one typed table, a
float64 field per numeric column, and both formats write it by column into
one ``%`` template per row, with the variant and blank columns written into
the template once.  A metric cell in ``[1e-4, 1)`` is written as a head
string and an int, its 17-digit significand, computed exactly in bulk; the
bytes, ``-0`` included, stay those of ``%.17g``.  The table is read only as
a sweep document's ``rows``, beside a ``meta`` that names the variant.  JSON
appends its pieces to one list, joined once: any other dict field by field,
a list item by item, and a complex value by one ``%`` over a template cached
per shape and indent.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .copier import PAIR_LABELS, QUBIT_LABELS, CopyVariant, _machine, evaluate_grid

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
_GRID_EDGE_SLACK = 1e-12  # how far past 2*pi a grid edge may lie, so a decimal 2*pi is accepted


@dataclass(frozen=True)
class GridSpec:
    """An inclusive linear grid of angles in radians."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral):
            raise ValueError(f"grid count must be an integer, got {self.count!r}")
        if not 1 <= self.count <= MAX_GRID_POINTS:
            raise ValueError(f"grid count must be between 1 and {MAX_GRID_POINTS}, got {self.count:.6g}")
        for edge in (self.start, self.stop):
            if not 0.0 <= edge <= 2.0 * math.pi + _GRID_EDGE_SLACK:
                raise ValueError(f"grid edge {edge!r} outside [0, 2*pi]")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A (theta, phi) product grid plus the metrics to evaluate on it."""

    variant: CopyVariant
    theta_grid: GridSpec
    phi_grid: GridSpec
    metrics: frozenset = METRICS

    def __post_init__(self) -> None:
        _machine(self.variant)
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


def sweep_rows(spec: SweepSpec) -> np.ndarray:
    """Evaluate the sweep as one typed table: a record per grid point, theta-major order.

    The table is a NumPy structured array with one float64 field per
    numeric CSV column the sweep fills, in CSV order: theta, phi and the
    selected metrics' columns, without d3 for the duplicator.  ``s_a2`` is
    NaN where the copy has no scaled form.  The variant and every other
    column are not fields; the renderers write them.  A record
    (``table[i]``) is a writable view of the table.
    """
    grid = evaluate_grid(spec.variant, spec.theta_grid.values(), spec.phi_grid.values())
    metrics = spec.metrics
    columns = {"theta": grid.theta, "phi": grid.phi}
    if "d1" in metrics:
        columns.update({f"d1_{label}": grid.d1[label] for label in QUBIT_LABELS})
    if "d2" in metrics:
        columns.update({f"d2_{label}": grid.d2[label] for label in PAIR_LABELS})
    if "d3" in metrics and grid.d3 is not None:
        columns["d3"] = grid.d3
    if "s" in metrics:
        columns["s_a2"] = grid.scaling["a2"]
    if "fidelity" in metrics:
        columns["fid_a2"] = grid.fidelity["a2"][:, 0]
    if "E" in metrics:
        columns["E_a2a3"] = grid.ppt_spectrum[:, 0]
    table = np.empty(grid.theta.size, dtype=[(column, float) for column in columns])
    for column, values in columns.items():
        table[column] = values
    return table


def _document_meta(kind: str, **fields) -> dict:
    """The ``meta`` head of every JSON document: schema, generator, kind, then ``fields`` in order."""
    return {"schema_version": SCHEMA_VERSION, "generator": f"qcopynet {__version__}", "kind": kind, **fields}


def sweep_document(spec: SweepSpec, table: np.ndarray) -> dict:
    """The sweep's JSON document; ``rows`` is ``table`` itself, which the renderers read with ``meta.variant``."""
    return {
        "meta": _document_meta(
            "sweep",
            variant=spec.variant.value,
            theta_grid=dict(vars(spec.theta_grid)),
            phi_grid=dict(vars(spec.phi_grid)),
            metrics=sorted(spec.metrics),
            columns=list(CSV_COLUMNS),
        ),
        "rows": table,
        "summary": {"row_count": len(table)},
    }


def _check_finite(floats: list) -> None:
    """ValueError naming the first non-finite float of the list."""
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"non-finite value {next(v for v in floats if not math.isfinite(v))!r} in report")


_TABLE_CONTRACT = "a 1-D float64 typed table is read only as a sweep document's rows, beside a meta naming the variant"

# Sweep columns written once per distinct value: each grid axis repeats its values, and s_a2's NaN is a blank.
_DISTINCT_COLUMNS = frozenset({"theta", "phi", "s_a2"})


def _distinct_texts(values: np.ndarray, blank: str) -> list[str]:
    """Each cell's ``%.17g`` text, or ``blank`` for NaN, formatted once per distinct bit pattern, so -0 stays -0."""
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = [blank if v != v else "%.17g" % v for v in keys.view(float).tolist()]
    return np.array(texts, dtype=object)[inverse].tolist()


_POWERS_OF_TEN = np.array([float(10**k) for k in range(23)])  # exact doubles: 5**22 < 2**53
_HEADS = np.array(["0.", "0.0", "0.00", "0.000", "-0.", "-0.0", "-0.00", "-0.000"], dtype=object)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of each double into two halves of at most 26 significant bits, ``a == high + low``."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _decimal_parts(values: np.ndarray) -> tuple[list, list]:
    """Heads and tails of a 1-D float64 array's cells: ``head + str(tail)`` is the cell's ``%.17g`` text.

    A cell with ``1e-4 <= |v| < 1`` is a head from ``_HEADS`` and its 17-digit significand, an int without
    trailing zeros, formed in bulk; any other cell is its ``%.17g`` text and an empty tail.
    """
    magnitude = np.abs(values)
    slow = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1.0)))  # 0, -0, NaN, inf, subnormals, other magnitudes
    magnitude[slow] = 0.5  # a stand-in, written over below
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)  # the decimal exponent, or one off near 10**k
    while True:
        scale = _POWERS_OF_TEN[16 - exponent]
        hi = magnitude * scale
        (a1, a2), (b1, b2) = _split(magnitude), _split(scale)
        lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2  # with _split's halves the product is hi + lo exactly
        digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # hi >= 2**53 is even, so ties go to even
        if not (off := (digits >= 10**17).astype(np.int64) - (digits < 10**16)).any():
            break
        exponent += off
    if (zeros := np.flatnonzero(digits % 10 == 0)).size:
        stripped = digits[zeros]
        for k in (16, 8, 4, 2, 1):  # strip trailing zeros, largest power first
            quotient, remainder = np.divmod(stripped, 10**k)
            stripped = np.where(remainder == 0, quotient, stripped)
        digits[zeros] = stripped
    heads, tails = _HEADS[4 * (values < 0) - 1 - exponent].tolist(), digits.tolist()
    for i, v in zip(slow.tolist(), values[slow].tolist()):
        heads[i], tails[i] = "%.17g" % v, ""
    return heads, tails


def _is_table(value) -> bool:
    return isinstance(value, np.ndarray) and value.dtype.names is not None


def _table_columns(document: dict, blank: str, text) -> tuple[list[str], list[list]]:
    """A sweep table's CSV columns as ``%`` conversions and the cell lists of the columns that vary.

    A float field goes to ``%s%s`` through ``_decimal_parts``, or, in
    ``_DISTINCT_COLUMNS``, to ``%s`` through ``_distinct_texts``.  The
    variant column is ``text(meta.variant)`` and every other column
    ``blank``, each written into its conversion.  TypeError unless the
    table is 1-D with only float64 fields and ``meta.variant`` is a string;
    then non-finite values raise, except s_a2's NaN.
    """
    table, meta, specs, cells = document["rows"], document.get("meta"), [], []
    if not (isinstance(meta, dict) and isinstance(meta.get("variant"), str) and table.ndim == 1) or any(
            table.dtype[name] != np.float64 for name in table.dtype.names):
        raise TypeError(_TABLE_CONTRACT)
    for column in CSV_COLUMNS:
        if column not in table.dtype.names:
            constant = text(meta["variant"]) if column == "variant" else blank
            specs.append(constant.replace("%", "%%"))
            continue
        values = table[column]
        ok = np.isfinite(values) | (np.isnan(values) if column == "s_a2" else False)
        if not ok.all():
            _check_finite([float(values[~ok][0])])
        if column in _DISTINCT_COLUMNS:
            specs.append("%s")
            cells.append(_distinct_texts(values, blank))
        else:
            specs.append("%s%s")
            cells.extend(_decimal_parts(values))
    return specs, cells


def render_csv(document: dict) -> str:
    """CSV body for a sweep document; header row first, an empty cell for a blank column or a NaN ``s_a2``.

    Raises TypeError unless the rows are the typed table of ``sweep_rows``, beside a meta naming the variant.
    """
    if not _is_table(document.get("rows")):
        raise TypeError("a sweep document's rows must be the typed table of sweep_rows")
    specs, cells = _table_columns(document, "", str)
    lines = [f"{','.join(CSV_COLUMNS)}\n", *map(f"{','.join(specs)}\n".__mod__, zip(*cells))]
    del cells  # before the join, so the text and the cells are never held at once
    return "".join(lines)


def _write_table(document: dict, indent: int, out: list) -> None:
    """Append a sweep's typed table as a JSON list of objects keyed by the CSV columns, one ``%`` template a row."""
    specs, cells = _table_columns(document, "null", encode_basestring_ascii)
    pad = "  " * (indent + 1)
    keys = (encode_basestring_ascii(column).replace("%", "%%") for column in CSV_COLUMNS)
    fields = ",\n".join(f"{pad}  {k}: {c}" for k, c in zip(keys, specs))
    row, rows = f"{pad}{{\n{fields}\n{pad}}}", zip(*cells)
    if (first := next(rows, None)) is None:  # no records, or no CSV column among the fields: no cells, as in the CSV
        out.append("[]")
        return
    out.append(f"[\n{row}" % first)
    out.extend(map(f",\n{row}".__mod__, rows))
    out.append(f"\n{pad[2:]}]")


@functools.lru_cache(maxsize=64)
def _complex_template(shape: tuple[int, ...], indent: int) -> str:
    """The ``{"re": ..., "im": ...}`` text of a complex value of this shape, one ``%.17g`` per part."""
    def nested(shape: tuple[int, ...], indent: int) -> str:
        if not shape:
            return "%.17g"
        if not shape[0]:
            return "[]"
        pad = "  " * indent
        item = f"{pad}  {nested(shape[1:], indent + 1)}"
        return "[\n" + ",\n".join([item] * shape[0]) + "\n" + pad + "]"

    pad, part = "  " * indent, nested(shape, indent + 1)
    return f'{{\n{pad}  "re": {part},\n{pad}  "im": {part}\n{pad}}}'


def _write_json(value, indent: int, out: list) -> None:
    """Append a value's JSON text to ``out``: a dict field by field, a list item by item, complex by its template."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            _check_finite([value])
        out.append("%.17g" % value)
    elif isinstance(value, dict) and value:
        pad, slots = "  " * indent, []
        for key, item in value.items():
            out.append(",\n" if slots else "{\n")
            slots.append(len(out) - 1)
            if key == "rows" and _is_table(item):  # a sweep's typed table, read with the meta beside it
                _write_table(value, indent + 1, out)
            else:
                _write_json(item, indent + 1, out)
        for slot, key in zip(slots, value):  # keys only after every value, so a value's error comes first
            out[slot] += f"{pad}  {encode_basestring_ascii(key)}: "
        out.append(f"\n{pad}}}")
    elif isinstance(value, (list, tuple)) and value:
        pad = "  " * indent
        for number, item in enumerate(value):
            out.append(f"{',' if number else '['}\n{pad}  ")
            _write_json(item, indent + 1, out)
        out.append(f"\n{pad}]")
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, (dict, list, tuple)):
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, (complex, np.complexfloating, np.ndarray)) and np.iscomplexobj(value):
        z = np.asarray(value)
        parts = z.real.ravel().tolist() + z.imag.ravel().tolist()
        _check_finite(parts)
        out.append(_complex_template(z.shape, indent) % tuple(parts))
    else:
        raise TypeError(_TABLE_CONTRACT if _is_table(value) else f"cannot serialize {type(value).__name__}")


def render_json(document: dict) -> str:
    """JSON text with floats rendered exactly as in the CSV output and strings escaped to ASCII.

    A complex scalar or array becomes ``{"re": ..., "im": ...}``; a real array is rejected.
    """
    out = []
    _write_json(document, 0, out)
    return "".join([*out, "\n"])
