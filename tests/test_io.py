"""CSV and report serialization: exact roundtrips, dialect guarantees,
and header validation."""

import csv
import re

import numpy as np
import pytest

from lnhom.fitting import FitResult, PowerRatioSeries
from lnhom.hom import STAGE_DOUBLE_PASS_PS_PER_UM, DelayScan
import lnhom.io as lio
from lnhom.io import (
    ROW_BLOCK,
    _write_columns,
    read_delay_scan_csv,
    read_power_ratio_csv,
    write_delay_scan_csv,
    write_field_csv,
    write_fit_report,
    write_power_ratio_csv,
    write_residuals_csv,
    write_splitting_curve_csv,
)


def test_splitting_curve_roundtrip_is_exact(tmp_path):
    wavelength_nm = np.linspace(1500.0, 1600.0, 11)
    eta = np.linspace(0.1, 0.9, 11) ** 2
    path = tmp_path / "curve.csv"
    write_splitting_curve_csv(path, wavelength_nm, eta)
    with open(path, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["wavelength_nm", "eta"]
    np.testing.assert_array_equal([float(row[0]) for row in rows],
                                  wavelength_nm)
    np.testing.assert_array_equal([float(row[1]) for row in rows], eta)


def test_delay_scan_roundtrip_preserves_counts_dtype(tmp_path):
    scan = DelayScan(np.linspace(-2.0, 2.0, 5),
                     np.array([40, 11, 2, 9, 38], dtype=np.int64))
    path = tmp_path / "scan.csv"
    write_delay_scan_csv(path, scan)
    back = read_delay_scan_csv(path)
    assert np.issubdtype(back.values.dtype, np.integer)
    np.testing.assert_array_equal(back.values, scan.values)
    np.testing.assert_array_equal(back.delay_ps, scan.delay_ps)
    assert back.stage_um is None


@pytest.mark.parametrize("dtype, kept", [
    (np.float32, False), (np.bool_, False), (np.float64, True),
    (np.int8, True), (np.int64, True), (np.uint16, True), (np.uint64, True),
])
def test_delay_scan_keeps_integer_counts_and_makes_the_rest_float64(
        tmp_path, dtype, kept):
    values = np.array([0.1, 0.0, 1.0, 3.0]).astype(dtype)
    scan = DelayScan([-1.0, 0.0, 1.0, 2.0], values)
    assert scan.values.dtype == (values.dtype if kept else np.float64)
    path = tmp_path / "scan.csv"
    write_delay_scan_csv(path, scan)
    # integer counts are written as digits, anything else as the repr of
    # its float64 value (float32 0.1 as 0.10000000149011612)
    cells = values.tolist() if values.dtype.kind in "iu" \
        else values.astype(float).tolist()
    expected = "delay_ps,stage_um,coincidences\n" + "".join(
        f"{delay!r},,{cell!r}\n" for delay, cell in
        zip([-1.0, 0.0, 1.0, 2.0], cells))
    assert path.read_bytes() == expected.encode()


def test_delay_scan_roundtrip_preserves_probabilities(tmp_path):
    scan = DelayScan(np.linspace(-2.0, 2.0, 5),
                     np.array([0.41, 0.12, 0.02, 0.1, 0.4]))
    path = tmp_path / "scan.csv"
    write_delay_scan_csv(path, scan)
    back = read_delay_scan_csv(path)
    assert back.values.dtype.kind == "f"
    np.testing.assert_array_equal(back.values, scan.values)


def test_delay_scan_roundtrip_keeps_stage_positions(tmp_path):
    stage = np.array([-150.0, 0.0, 150.0])
    scan = DelayScan(stage * STAGE_DOUBLE_PASS_PS_PER_UM,
                     np.array([30, 3, 29], dtype=np.int64), stage_um=stage)
    path = tmp_path / "scan.csv"
    write_delay_scan_csv(path, scan)
    back = read_delay_scan_csv(path)
    np.testing.assert_array_equal(back.stage_um, scan.stage_um)
    np.testing.assert_array_equal(back.delay_ps, scan.delay_ps)


def test_power_ratio_roundtrip_is_exact(tmp_path):
    series = PowerRatioSeries(np.linspace(0.0, 300.0, 7),
                              np.linspace(0.0, 1.0, 7))
    path = tmp_path / "ratios.csv"
    write_power_ratio_csv(path, series)
    back = read_power_ratio_csv(path)
    np.testing.assert_array_equal(back.interaction_length_um,
                                  series.interaction_length_um)
    np.testing.assert_array_equal(back.ratio, series.ratio)


def test_header_only_power_ratio_csv_is_refused(tmp_path):
    # the lengths are the series' axis, and an axis is non-empty
    path = tmp_path / "ratios.csv"
    path.write_text("length_um,ratio\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^interaction lengths must be a "
                                         "non-empty 1D axis$"):
        read_power_ratio_csv(path)


def test_written_files_are_utf8_with_lf_endings(tmp_path):
    scan = DelayScan(np.array([0.0]), np.array([3], dtype=np.int64))
    series = PowerRatioSeries(np.array([0.0, 1.0]), np.array([0.1, 0.9]))
    write_splitting_curve_csv(tmp_path / "a.csv", np.array([1550.0]),
                              np.array([0.5]))
    write_delay_scan_csv(tmp_path / "b.csv", scan)
    write_power_ratio_csv(tmp_path / "c.csv", series)
    for name in ("a.csv", "b.csv", "c.csv"):
        raw = (tmp_path / name).read_bytes()
        raw.decode("utf-8")
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


def test_rewriting_a_read_scan_is_byte_identical(tmp_path):
    scan = DelayScan(np.linspace(-3.0, 3.0, 13),
                     np.arange(13, dtype=np.int64) + 5)
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    write_delay_scan_csv(first, scan)
    write_delay_scan_csv(second, read_delay_scan_csv(first))
    assert first.read_bytes() == second.read_bytes()


def test_header_is_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("length_nm,ratio\n0.0,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="length_um"):
        read_power_ratio_csv(path)


def test_empty_file_is_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_power_ratio_csv(path)


@pytest.mark.parametrize("text, read, fields", [
    pytest.param("delay_ps,stage_um,coincidences\n-1.0,,4\n0.0,,2,7\n",
                 read_delay_scan_csv, 4, id="delay-scan-extra-field"),
    pytest.param("delay_ps,stage_um,coincidences\n-1.0,,4\n0.0,2\n",
                 read_delay_scan_csv, 2, id="delay-scan-short-row"),
    pytest.param("length_um,ratio\n0.0,0.5\n10.0\n",
                 read_power_ratio_csv, 1, id="power-ratio-short-row"),
])
def test_ragged_row_is_rejected_with_its_line(tmp_path, text, read, fields):
    path = tmp_path / "ragged.csv"
    path.write_text(text, encoding="utf-8")
    expected = len(text.split("\n")[0].split(","))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:3: expected {expected} fields, got {fields}")):
        read(path)


def test_mixed_value_column_reads_as_probabilities(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "delay_ps,stage_um,coincidences\n-1.0,,4\n0.0,,2.5\n1.0,,4\n",
        encoding="utf-8")
    back = read_delay_scan_csv(path)
    assert back.values.dtype.kind == "f"


def test_partially_blank_stage_column_is_refused(tmp_path):
    # dropping the column would lose every stage position given
    path = tmp_path / "partial.csv"
    for rows in ("-1.0,10.0,4\n0.0,,2\n1.0,30.0,4\n",
                 "-1.0,,4\n0.0,20.0,2\n1.0,,4\n"):
        path.write_text(f"delay_ps,stage_um,coincidences\n{rows}",
                        encoding="utf-8")
        with pytest.raises(ValueError) as error:
            read_delay_scan_csv(path)
        assert str(error.value) \
            == f"{path}:3: stage_um must be given on every row or on none"


def test_delay_scan_with_an_inf_delay_is_refused_when_read(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("delay_ps,stage_um,coincidences\n-1.0,,4\ninf,,2\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="delays must be finite"):
        read_delay_scan_csv(path)


def test_field_csv_layout_and_validation(tmp_path):
    x = [0.0, 20.0, 40.0]
    y = [0.0, 20.0]
    values = np.arange(6, dtype=float).reshape(2, 3)
    path = tmp_path / "field.csv"
    write_field_csv(path, x, y, values)
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x_nm", "y_nm", "value"]
    assert len(rows) == 1 + 6
    assert [float(v) for v in rows[1]] == [0.0, 0.0, 0.0]
    assert [float(v) for v in rows[-1]] == [40.0, 20.0, 5.0]
    with pytest.raises(ValueError):
        write_field_csv(tmp_path / "bad.csv", x, y, np.ones((3, 2)))


def test_written_text_is_exact(tmp_path):
    # floats as their shortest repr (int axes too), integer counts as
    # digits, an absent stage column as empty cells
    write_field_csv(tmp_path / "field.csv", [0, 20, 40], [0, 20],
                    np.array([[0.1, 1e-05, 1e16], [-0.0, 5e-324, 2.0]]))
    write_delay_scan_csv(tmp_path / "scan.csv",
                         DelayScan(np.array([-1.0, 0.0, 1.0]),
                                   np.array([40, 3, 41], dtype=np.int64)))
    write_residuals_csv(tmp_path / "residuals.csv", "length_um", [0, 10, 20],
                        [0.5, -0.25, 1e-17])
    assert (tmp_path / "field.csv").read_bytes() == (
        b"x_nm,y_nm,value\n"
        b"0.0,0.0,0.1\n"
        b"20.0,0.0,1e-05\n"
        b"40.0,0.0,1e+16\n"
        b"0.0,20.0,-0.0\n"
        b"20.0,20.0,5e-324\n"
        b"40.0,20.0,2.0\n")
    assert (tmp_path / "scan.csv").read_bytes() == (
        b"delay_ps,stage_um,coincidences\n"
        b"-1.0,,40\n"
        b"0.0,,3\n"
        b"1.0,,41\n")
    assert (tmp_path / "residuals.csv").read_bytes() == (
        b"length_um,residual\n"
        b"0.0,0.5\n"
        b"10.0,-0.25\n"
        b"20.0,1e-17\n")


def test_repeated_values_keep_their_exact_text(tmp_path):
    # each distinct bit pattern is formatted once: -0.0 stays apart from
    # 0.0, every NaN reads nan, a subnormal keeps its shortest repr
    tiny = 5e-324
    write_field_csv(tmp_path / "field.csv", [-0.0, 0.0, -0.0], [tiny, tiny],
                    np.array([[np.nan, 0.0, -0.0], [-np.nan, tiny, 0.1]]))
    assert (tmp_path / "field.csv").read_bytes() == (
        b"x_nm,y_nm,value\n"
        b"-0.0,5e-324,nan\n"
        b"0.0,5e-324,0.0\n"
        b"-0.0,5e-324,-0.0\n"
        b"-0.0,5e-324,nan\n"
        b"0.0,5e-324,5e-324\n"
        b"-0.0,5e-324,0.1\n")


# edge floats: signed zero, NaN, infinities, the smallest subnormal, a
# power of ten past 2**53 and below 1e-4, and a sum that is not its literal
_EDGE_FLOATS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-05,
                0.1 + 0.2]


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (3, 5), (2, 0),
                                   (0, 3), (2 * ROW_BLOCK + 3, 5)])
@pytest.mark.parametrize("kind", ["repeated", "distinct"])
def test_field_csv_matches_repr_oracle(tmp_path, shape, kind):
    # byte for byte: the header, then x,y,value as each float's repr for
    # every (y, x), y outer; a grid without rows or columns has no rows
    ny, nx = shape
    size = ny * nx
    if kind == "repeated":
        values = np.resize(np.array(_EDGE_FLOATS), size)
        x = np.resize(np.array([0.0, -0.0, 1e-05]), nx)
        y = np.resize(np.array([5e-324, 0.1 + 0.2]), ny)
    else:
        values = np.random.default_rng(size).normal(size=size) * 1e3
        values[:min(size, len(_EDGE_FLOATS))] = _EDGE_FLOATS[:size]
        x = np.linspace(-1.0, 1.0, nx) / 3.0
        y = 1e16 + 2.0 * np.arange(ny)
    values = values.reshape(shape)
    expected = "x_nm,y_nm,value\n" + "".join(
        f"{float(x[j])!r},{float(y[i])!r},{float(values[i, j])!r}\n"
        for i in range(ny) for j in range(nx))
    write_field_csv(tmp_path / "field.csv", x, y, values)
    assert (tmp_path / "field.csv").read_bytes() == expected.encode("utf-8")


def test_field_csv_formats_a_row_block_at_a_time(tmp_path, monkeypatch):
    # no more than ROW_BLOCK grid rows of cell text exist at once, each
    # full block in one call
    sizes = []
    cell_text = lio._cell_text

    def spy(column):
        sizes.append(np.asarray(column).size)
        return cell_text(column)

    monkeypatch.setattr(lio, "_cell_text", spy)
    ny, nx = 3 * ROW_BLOCK + 1, 9
    half = np.random.default_rng(5).normal(size=(ny, nx // 2))
    values = np.hstack([-half[:, ::-1], np.zeros((ny, 1)), half])
    x, y = np.arange(nx) * 10.0, np.arange(ny) * 10.0
    write_field_csv(tmp_path / "field.csv", x, y, values)
    assert max(sizes) <= ROW_BLOCK * nx
    assert sizes.count(ROW_BLOCK * nx) == 3
    with open(tmp_path / "field.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [float(row[2]) for row in rows] == values.ravel().tolist()


def test_unequal_columns_are_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="bad.csv"):
        _write_columns(path, ["a", "b"], [1.0, 2.0, 3.0], [1.0, 2.0])
    assert not path.exists()


def test_fit_report_is_flat_key_value_text(tmp_path):
    result = FitResult(parameters={"coupling_length_um": 112.86},
                       covariance=np.array([[0.04]]),
                       residual_rms=0.015)
    path = tmp_path / "report.txt"
    write_fit_report(path, result)
    lines = path.read_text(encoding="utf-8").splitlines()
    entries = dict(line.split(" = ", 1) for line in lines)
    assert float(entries["coupling_length_um"]) == 112.86
    assert float(entries["coupling_length_um_sigma"]) == pytest.approx(0.2)
    assert float(entries["residual_rms"]) == 0.015
    assert len(entries) == 3


def test_residuals_csv_layout(tmp_path):
    path = tmp_path / "residuals.csv"
    write_residuals_csv(path, "delay_ps", [0.0, 1.0], [0.01, -0.02])
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["delay_ps", "residual"]
    assert len(rows) == 3
    assert float(rows[2][1]) == -0.02
