"""CSV and report serialization.

One dialect everywhere: comma separator, ``.`` decimal point, mandatory
header row, UTF-8, LF line endings, floats as their shortest round-trip
``repr`` and integers as plain digits, each distinct value (a float's
magnitude) formatted once.  Field and index maps are written in blocks of
``ROW_BLOCK`` grid rows, so only one block's cell text is held at a time;
every other CSV is written by a single column writer.  Formats:

  * field / index maps:   x_nm,y_nm,value
  * splitting curves:     wavelength_nm,eta
  * delay scans:          delay_ps,stage_um,coincidences
  * power-ratio series:   length_um,ratio
  * fit reports:          flat ``key = value`` text

The stage_um column is left empty when a scan never had stage positions;
fabricating them would bake in a pass-geometry guess.
"""

from __future__ import annotations

import csv

import numpy as np

from .fitting import PowerRatioSeries
from .hom import DelayScan

# Grid rows of a field or index map whose cell text is built at once.  A
# modes run of the 10 nm coupler, which writes three 397k-cell maps,
# peaked at 98.2, 98.8 and 102.3 MB with blocks of 2, 8 and 32 rows, and
# at 110.1 MB with each whole map at once (medians of 4 fresh processes,
# numpy 2.4, x86_64)
ROW_BLOCK = 8


def _open_write(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _cell_text(column):
    """The text of every cell of a column.

    ``tolist()`` turns the values into Python floats, ints or strings, and
    ``str`` of a Python float is its shortest round-trip ``repr``, so floats
    read back exactly.  A numeric column formats each distinct value once
    (an index map holds a handful of distinct values over hundreds of
    thousands of cells, a field each magnitude twice or more): floats by
    magnitude, with a leading ``-`` wherever the sign bit is set and the
    value is not NaN, so ``-0.0`` keeps its sign and NaN's text has none.
    """
    values = np.asarray(column)
    if values.dtype.kind not in "biuf":
        return [str(value) for value in values.tolist()]
    signed = values.dtype.kind == "f"
    distinct, inverse = np.unique(np.abs(values) if signed else values,
                                  return_inverse=True)
    text = np.array([str(value) for value in distinct.tolist()],
                    dtype=object)[inverse]
    if signed:
        negative = np.signbit(values) & ~np.isnan(values)
        text[negative] = "-" + text[negative]
    return text.tolist()


def _write_columns(path, header, *columns):
    """Write equal-length columns under a header row; unequal columns raise
    before the file is opened."""
    columns = [_cell_text(column) for column in columns]
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path}: columns {','.join(header)} have unequal "
                         f"lengths {lengths}")
    with _open_write(path) as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*columns))


def write_field_csv(path, x_nm, y_nm, values):
    """Write a 2D field or index map sampled on the (y, x) grid.

    The value texts are built ``ROW_BLOCK`` grid rows at a time.  Each grid
    row is one ``%`` format: its template holds the row's x and y texts,
    and the row's value texts fill its ``%s`` slots (float texts hold no
    ``%``)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(y_nm), len(x_nm)):
        raise ValueError("values shape must be (len(y_nm), len(x_nm))")
    nx = values.shape[1]
    # joined by ",y,%s\n" these give row y's template, "x_0,y,%s\n" to
    # "x_last,y,%s\n"
    x_pieces = _cell_text(np.asarray(x_nm, dtype=float)) + [""]
    y_text = _cell_text(np.asarray(y_nm, dtype=float))
    with _open_write(path) as handle:
        handle.write("x_nm,y_nm,value\n")
        for first in range(0, len(y_text), ROW_BLOCK):
            # a field's mirror pairs share a row, so each block still
            # formats each of their magnitudes once
            value_text = _cell_text(values[first:first + ROW_BLOCK].ravel())
            for i, y in enumerate(y_text[first:first + ROW_BLOCK]):
                handle.write(f",{y},%s\n".join(x_pieces)
                             % tuple(value_text[i * nx:(i + 1) * nx]))


def write_mode_field_csv(path, index_map, mode):
    write_field_csv(path, index_map.x_nm, index_map.y_nm, mode.field)


def write_splitting_curve_csv(path, wavelength_nm, eta):
    _write_columns(path, ["wavelength_nm", "eta"],
                   np.asarray(wavelength_nm, dtype=float),
                   np.asarray(eta, dtype=float))


def write_delay_scan_csv(path, scan):
    stage = [""] * len(scan.delay_ps) if scan.stage_um is None else scan.stage_um
    _write_columns(path, ["delay_ps", "stage_um", "coincidences"],
                   scan.delay_ps, stage, scan.values)


def read_delay_scan_csv(path):
    """Read a delay scan; integer coincidence columns are treated as raw
    counts, anything else as (unnormalized) probabilities.  Stage positions
    are given on every row or on none."""
    lines, (delays, stages, raw) = _read_columns(
        path, ["delay_ps", "stage_um", "coincidences"])
    delays = _floats(path, lines, "delay_ps", delays)
    given = [stage != "" for stage in stages]
    if any(given) and not all(given):
        raise ValueError(f"{path}:{lines[given.index(not given[0])]}: "
                         "stage_um must be given on every row or on none")
    values = np.array([int(v) for v in raw], dtype=np.int64) \
        if all(_is_integer_literal(v) for v in raw) \
        else _floats(path, lines, "coincidences", raw)
    stage_um = _floats(path, lines, "stage_um", stages) if all(given) else None
    return DelayScan(delay_ps=delays, values=values, stage_um=stage_um)


def write_power_ratio_csv(path, series):
    _write_columns(path, ["length_um", "ratio"],
                   series.interaction_length_um, series.ratio)


def read_power_ratio_csv(path):
    lines, (lengths, ratios) = _read_columns(path, ["length_um", "ratio"])
    return PowerRatioSeries(
        interaction_length_um=_floats(path, lines, "length_um", lengths),
        ratio=_floats(path, lines, "ratio", ratios))


def write_fit_report(path, result):
    """Flat key = value report of a fit: estimates, their 1-sigma
    uncertainties and the residual RMS."""
    sigmas = result.uncertainties
    with _open_write(path) as handle:
        for name, value in result.parameters.items():
            handle.write(f"{name} = {value!r}\n")
            handle.write(f"{name}_sigma = {sigmas[name]!r}\n")
        handle.write(f"residual_rms = {result.residual_rms!r}\n")


def write_residuals_csv(path, axis_name, axis_values, residuals):
    _write_columns(path, [axis_name, "residual"],
                   np.asarray(axis_values, dtype=float),
                   np.asarray(residuals, dtype=float))


def _is_integer_literal(text):
    try:
        int(text)
        return True
    except ValueError:
        return False


def _read_columns(path, expected_header):
    """The line number of each data row, and the text cells of each
    column."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV, header row is mandatory") from None
        if header != expected_header:
            raise ValueError(
                f"{path}: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}"
            )
        lines, rows = [], []
        for row in filter(None, reader):  # blank lines are skipped
            if len(row) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            lines.append(reader.line_num)
            rows.append(row)
    return lines, list(zip(*rows)) or [()] * len(header)


def _floats(path, lines, name, cells):
    """Column ``name`` as floats; a cell that is not a number is refused
    with its file, line and column."""
    values = []
    for line, cell in zip(lines, cells):
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(f"{path}:{line}: {name} {cell!r} is not a "
                             "number") from None
    return np.array(values)
