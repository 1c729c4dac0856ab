"""Command line scenarios: exit codes, config validation, artifacts, and
seed handling, all exercised in-process."""

from pathlib import Path

import numpy as np
import pytest

from lnhom import cli, modes, reproduce
from lnhom import reference as ref
from lnhom.cli import SCENARIO_SCHEMAS, format_schema, main, parse_config_text
from lnhom.coupler import splitting_ratio
from lnhom.errors import ConfigError, UnidentifiableDataError
from lnhom.fitting import MIN_DIP_POINTS
from lnhom.hom import (STAGE_DOUBLE_PASS_PS_PER_UM,
                       STAGE_SINGLE_PASS_PS_PER_UM, TwoPhotonState)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the --print-schema text of every scenario, one file each, frozen
SCHEMAS = Path(__file__).resolve().parent / "data" / "schemas"
# a shipped config is named after its scenario, except the coupled-rib one
CONFIG_SCENARIOS = {"supermodes": "modes"}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _report(out):
    text = (out / "report.txt").read_text(encoding="utf-8")
    entries = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            entries[key.strip()] = value.strip()
    return entries


# --- schema printing -------------------------------------------------------

@pytest.mark.parametrize("scenario", sorted(SCENARIO_SCHEMAS))
def test_print_schema_succeeds_for_every_scenario(scenario, capsys):
    assert main([scenario, "--print-schema"]) == 0
    assert capsys.readouterr().out \
        == (SCHEMAS / f"{scenario}.txt").read_text(encoding="utf-8")


def test_schema_marks_required_and_optional_keys():
    text = format_schema("fp-loss")
    assert "contrast  (float; required;)" in text
    assert "facet_reflectivity  (float; optional;)" in text


def test_a_field_without_a_config_key_is_an_error():
    # a renamed field must not silently take its default
    with pytest.raises(KeyError, match="source_visibility"):
        cli._build(TwoPhotonState, {"center_wavelength_nm": 1550.0,
                                    "bandwidth_fwhm_nm": 1.8})


# --- config parsing --------------------------------------------------------

def test_unknown_key_is_rejected_with_its_line(tmp_path, capsys):
    config = _write(tmp_path, "c.cfg",
                    "# comment\neta = 0.5\nbogus_key = 1\n")
    assert main(["hom-dip", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert ":3:" in err and "bogus_key" in err


def test_malformed_line_is_rejected(tmp_path, capsys):
    config = _write(tmp_path, "c.cfg", "eta 0.5\n")
    assert main(["hom-dip", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert ":1:" in capsys.readouterr().err


def test_wrong_type_is_rejected(tmp_path, capsys):
    config = _write(tmp_path, "c.cfg", "delay_points = 3.5\n")
    assert main(["hom-dip", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert "expects int" in capsys.readouterr().err


def test_bool_key_refuses_anything_but_true_or_false(tmp_path, capsys):
    config = _write(tmp_path, "c.cfg", "write_fields = yes\n")
    out = tmp_path / "out"
    assert main(["modes", "--config", config, "--out", str(out)]) == 2
    assert "key 'write_fields' expects bool, got 'yes'" \
        in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_key_is_rejected(tmp_path, capsys):
    config = _write(tmp_path, "c.cfg", "eta = 0.5\neta = 0.6\n")
    assert main(["hom-dip", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_choice_keys_are_validated(tmp_path, capsys):
    config = _write(tmp_path, "c.cfg", "polarization = xy\n")
    assert main(["modes", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert "one of" in capsys.readouterr().err


def test_missing_required_key_is_rejected(tmp_path, capsys):
    assert main(["fit-coupling", "--out", str(tmp_path / "out")]) == 2
    assert "input_csv" in capsys.readouterr().err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["hom-dip", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "out")]) == 2


def test_comments_and_blank_lines_are_allowed():
    params = parse_config_text("\n# note\n  \neta = 0.4\n",
                               SCENARIO_SCHEMAS["hom-dip"])
    assert params["eta"] == 0.4
    assert params["delay_points"] == 81  # default fills in


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")),
                         ids=lambda path: path.name)
def test_every_shipped_config_parses_against_its_schema(path):
    scenario = CONFIG_SCENARIOS.get(path.stem, path.stem)
    parse_config_text(path.read_text(encoding="utf-8"),
                      SCENARIO_SCHEMAS[scenario], source=path.name)


def test_hom_dip_no_longer_takes_a_mode_overlap(tmp_path, capsys):
    # the field overlap M became the zero-delay overlap I(0) = M^2
    config = _write(tmp_path, "c.cfg", "mode_overlap = 0.99\n")
    assert main(["hom-dip", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert "unknown key 'mode_overlap'" in capsys.readouterr().err


def test_config_error_carries_line_and_key():
    with pytest.raises(ConfigError) as info:
        parse_config_text("eta = oops\n", SCENARIO_SCHEMAS["hom-dip"])
    assert info.value.line == 1
    assert info.value.key == "eta"


# --- scenario runs ---------------------------------------------------------

def test_hom_dip_writes_curve_and_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["hom-dip", "--out", str(out)]) == 0
    assert (out / "dip_curve.csv").is_file()
    entries = _report(out)
    assert float(entries["splitter_limited_visibility"]) == 1.0
    assert float(entries["dip_minimum"]) == pytest.approx(0.0, abs=1e-12)
    assert "splitter_limited_visibility" in capsys.readouterr().out


def test_verbose_reports_on_stderr_in_every_call_of_a_process(tmp_path,
                                                              capsys):
    # a quiet run first: --verbose must report even after an earlier call
    # in the same process
    out = tmp_path / "out"
    assert main(["hom-dip", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["hom-dip", "--out", str(out), "--verbose"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"running hom-dip -> {out}",
        f"report written to {out / 'report.txt'}"]


def test_invalid_geometry_is_a_config_error(tmp_path, capsys):
    config = _write(tmp_path, "c.cfg", "gap_um = 0.5\n")
    assert main(["modes", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert "gap" in capsys.readouterr().err


def test_coupler_sweep_then_fit_recovers_the_coupling_length(tmp_path):
    sweep_out = tmp_path / "sweep"
    assert main(["coupler-sweep", "--out", str(sweep_out)]) == 0
    ratio_csv = sweep_out / "power_ratio.csv"
    assert ratio_csv.is_file()

    fit_out = tmp_path / "fit"
    config = _write(tmp_path, "fit.cfg", f"input_csv = {ratio_csv}\n")
    assert main(["fit-coupling", "--config", config, "--out", str(fit_out)]) == 0
    entries = _report(fit_out)
    assert float(entries["coupling_length_um"]) == pytest.approx(112.86, abs=0.01)
    assert (fit_out / "fit_report.txt").is_file()
    assert (fit_out / "residuals.csv").is_file()


def test_bandwidth_design_stays_balanced_across_the_scan(tmp_path):
    out = tmp_path / "out"
    assert main(["bandwidth", "--out", str(out)]) == 0
    assert (out / "splitting_curve.csv").is_file()
    entries = _report(out)
    assert float(entries["max_deviation_from_balanced"]) < 0.01


def test_simulate_counts_is_seed_deterministic(tmp_path):
    config = _write(tmp_path, "c.cfg",
                    "mean_pairs_per_pulse = 0.01\n"
                    "delay_points = 11\npulses_per_point = 20000\n")
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["simulate-counts", "--config", config, "--out", str(out_a),
                 "--seed", "99"]) == 0
    assert main(["simulate-counts", "--config", config, "--out", str(out_b),
                 "--seed", "99"]) == 0
    assert main(["simulate-counts", "--config", config, "--out", str(out_c),
                 "--seed", "100"]) == 0
    counts_a = (out_a / "counts.csv").read_bytes()
    assert counts_a == (out_b / "counts.csv").read_bytes()
    assert counts_a != (out_c / "counts.csv").read_bytes()


def test_simulate_counts_writes_stage_positions(tmp_path):
    for conversion, ps_per_um in (("single-pass", STAGE_SINGLE_PASS_PS_PER_UM),
                                  ("double-pass", STAGE_DOUBLE_PASS_PS_PER_UM)):
        config = _write(tmp_path, f"{conversion}.cfg",
                        "mean_pairs_per_pulse = 0.01\n"
                        "delay_points = 11\npulses_per_point = 20000\n"
                        f"stage_conversion = {conversion}\n")
        out = tmp_path / conversion
        assert main(["simulate-counts", "--config", config,
                     "--out", str(out)]) == 0
        lines = (out / "counts.csv").read_text().splitlines()
        assert lines[0] == "delay_ps,stage_um,coincidences"
        delay, stage = np.array([[float(cell) for cell in line.split(",")[:2]]
                                 for line in lines[1:]]).T
        np.testing.assert_allclose(stage * ps_per_um, delay, rtol=1e-12,
                                   atol=0.0)
        assert "fitted_visibility" in _report(out)


@pytest.mark.parametrize("key, value", [
    ("mean_pairs_per_pulse", "inf"),
    ("repetition_period_ns", "nan"),
    ("dead_time_ns", "inf"),
    ("dead_time_ns", "nan"),
])
def test_non_finite_counting_values_are_config_errors(tmp_path, capsys, key,
                                                      value):
    settings = {"mean_pairs_per_pulse": "0.01", "delay_points": "3",
                "pulses_per_point": "1000", key: value}
    config = _write(tmp_path, "c.cfg", "".join(
        f"{name} = {literal}\n" for name, literal in settings.items()))
    assert main(["simulate-counts", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["hom-dip", "simulate-counts"])
def test_out_of_range_eta_is_a_config_error(tmp_path, capsys, scenario):
    config = _write(tmp_path, "c.cfg", "eta = 1.5\ndelay_points = 3\n")
    assert main([scenario, "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert "eta must lie in [0, 1]" in capsys.readouterr().err


def test_seed_flag_is_rejected_where_meaningless(tmp_path, capsys):
    assert main(["hom-dip", "--seed", "4", "--out", str(tmp_path / "out")]) == 2
    assert "seed" in capsys.readouterr().err


def test_fp_loss_happy_path_from_n_eff(tmp_path):
    config = _write(tmp_path, "c.cfg",
                    "contrast = 0.06299231261080374\nlength_cm = 1.0\n"
                    "n_eff = 1.9\n")
    out = tmp_path / "out"
    assert main(["fp-loss", "--config", config, "--out", str(out)]) == 0
    entries = _report(out)
    assert float(entries["loss_db_per_cm"]) == pytest.approx(4.85, abs=1e-6)


def test_fp_loss_demands_exactly_one_reflectivity_source(tmp_path, capsys):
    both = _write(tmp_path, "both.cfg",
                  "contrast = 0.06\nlength_cm = 1.0\n"
                  "n_eff = 1.9\nfacet_reflectivity = 0.13\n")
    neither = _write(tmp_path, "neither.cfg",
                     "contrast = 0.06\nlength_cm = 1.0\n")
    assert main(["fp-loss", "--config", both, "--out", str(tmp_path / "o1")]) == 2
    assert main(["fp-loss", "--config", neither,
                 "--out", str(tmp_path / "o2")]) == 2


def test_runtime_fit_failure_exits_one(tmp_path, capsys):
    csv = tmp_path / "flat.csv"
    lengths = np.linspace(0.0, 100.0, 11)
    rows = "\n".join(f"{float(length)!r},0.5" for length in lengths)
    csv.write_text(f"length_um,ratio\n{rows}\n", encoding="utf-8")
    config = _write(tmp_path, "c.cfg", f"input_csv = {csv}\n")
    assert main(["fit-coupling", "--config", config,
                 "--out", str(tmp_path / "out")]) == 1
    assert "error" in capsys.readouterr().err


def test_dip_verdict_on_simulated_counts_is_no_config_error(tmp_path, capsys,
                                                            monkeypatch):
    # a fit that finds no dip in the simulated scan judges the data, which
    # the config only seeded
    def no_dip(scan):
        raise UnidentifiableDataError("the scan resolves no dip")

    monkeypatch.setattr(cli, "fit_gaussian_dip", no_dip)
    config = _write(tmp_path, "c.cfg",
                    "delay_points = 11\npulses_per_point = 1000\n")
    out = tmp_path / "out"
    assert main(["simulate-counts", "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert (out / "counts.csv").is_file()


@pytest.mark.parametrize("scenario, settings", [
    pytest.param("modes", "wavelength_nm = 1200\n", id="modes-wavelength"),
    pytest.param("hom-dip", "source_visibility = 1.2\n",
                 id="hom-dip-source-visibility"),
    pytest.param("modes", "grid_pitch_nm = 40\nn_modes = 0\n",
                 id="modes-n_modes"),
    pytest.param("modes", "grid_pitch_nm = 40\nn_modes = 100000\n",
                 id="modes-too-many-modes"),
    pytest.param("modes", "grid_pitch_nm = 60\n", id="modes-coarse-pitch"),
    pytest.param("modes", "grid_pitch_nm = 0\n", id="modes-zero-pitch"),
    pytest.param("modes", "grid_pitch_nm = nan\n", id="modes-nan-pitch"),
    pytest.param("modes", "padding_um = -1\n", id="modes-negative-padding"),
    pytest.param("reproduce-paper", "grid_pitch_nm = 60\n",
                 id="reproduce-paper-coarse-pitch"),
    pytest.param("simulate-counts",
                 "delay_points = 5\npulses_per_point = 1000\n",
                 id="simulate-counts-too-few-points-to-fit"),
    *(pytest.param("coupler-sweep", f"{key} = nan\n",
                   id=f"coupler-sweep-nan-{key}")
      for key in ("coupling_length_um", "bend_offset_um",
                  "reference_wavelength_nm", "wavelength_nm")),
    pytest.param("hom-dip", "center_wavelength_nm = nan\n",
                 id="hom-dip-nan-center"),
    pytest.param("hom-dip", "bandwidth_fwhm_nm = inf\n",
                 id="hom-dip-inf-bandwidth"),
    pytest.param("hom-dip", "delay_max_ps = inf\n", id="hom-dip-inf-delay"),
    pytest.param("fp-loss", "contrast = 0.06\nn_eff = 1.9\nlength_cm = nan\n",
                 id="fp-loss-nan-length"),
    *(pytest.param("modes", f"grid_pitch_nm = 40\n{key} = inf\n",
                   id=f"modes-inf-{key}")
      for key in ("film_thickness_nm", "cladding_thickness_nm", "gap_um")),
])
def test_library_value_errors_in_config_only_scenarios_exit_two(
        tmp_path, capsys, monkeypatch, scenario, settings):
    def never_called(*args, **kwargs):
        raise AssertionError("the eigensolver ran")

    # a config error must surface before any solve, however large
    monkeypatch.setattr(modes, "eigsh", never_called)
    config = _write(tmp_path, "c.cfg", settings)
    out = tmp_path / "out"
    assert main([scenario, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    # no partial output, such as a power_ratio.csv of nan
    assert not any(out.iterdir())


@pytest.mark.parametrize("scenario, runner", [
    ("simulate-counts", "simulate_counts"),
    ("reproduce-paper", "run_reproduction"),
])
def test_too_few_points_to_fit_fail_before_any_work(tmp_path, capsys,
                                                    monkeypatch, scenario,
                                                    runner):
    def never_called(*args, **kwargs):
        raise AssertionError(f"{runner} ran")

    monkeypatch.setattr(cli, runner, never_called)
    config = _write(tmp_path, "c.cfg",
                    f"delay_points = {MIN_DIP_POINTS - 1}\n")
    out = tmp_path / "out"
    assert main([scenario, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: delay_points must be at least {MIN_DIP_POINTS}\n")
    assert not (out / "counts.csv").exists()


@pytest.mark.parametrize("scenario, runner", [
    ("hom-dip", "coincidence_curve"),
    ("simulate-counts", "simulate_counts"),
    ("reproduce-paper", "run_reproduction"),
])
def test_too_many_delay_points_fail_before_any_allocation(tmp_path, capsys,
                                                          monkeypatch,
                                                          scenario, runner):
    def never_called(*args, **kwargs):
        raise AssertionError(f"{runner} ran")

    monkeypatch.setattr(cli, runner, never_called)
    config = _write(tmp_path, "c.cfg", f"delay_points = {10**9}\n")
    out = tmp_path / "out"
    assert main([scenario, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: delay_points must be at most {cli.MAX_SCAN_POINTS}\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("scenario, text, name", [
    # 5.5e14 lengths (3.91 PiB) and 2e13 wavelengths (146 TiB) as float64
    pytest.param("coupler-sweep", "length_step_um = 1e-12\n", "length sweep",
                 id="coupler-sweep-petabyte"),
    pytest.param("bandwidth", "step_nm = 1e-12\n", "wavelength scan",
                 id="bandwidth-petabyte"),
    pytest.param("coupler-sweep", "length_max_um = inf\n", "length sweep",
                 id="coupler-sweep-inf"),
    pytest.param("bandwidth", "wavelength_min_nm = nan\n", "wavelength scan",
                 id="bandwidth-nan"),
])
def test_too_long_scan_axis_fails_before_it_is_built(tmp_path, capsys,
                                                      scenario, text, name):
    config = _write(tmp_path, "c.cfg", text)
    out = tmp_path / "out"
    assert main([scenario, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {name} must have at most {cli.MAX_SCAN_POINTS} "
        "points\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("scenario, key", [
    ("coupler-sweep", "length_step_um"), ("bandwidth", "step_nm")])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_scan_step_names_its_key(tmp_path, capsys, scenario, key,
                                            value):
    config = _write(tmp_path, "c.cfg", f"{key} = {value}\n")
    out = tmp_path / "out"
    assert main([scenario, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {key} must be finite and positive\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("scenario, first, last", [
    ("coupler-sweep", "length_min_um", "length_max_um"),
    ("bandwidth", "wavelength_min_nm", "wavelength_max_nm")])
def test_reversed_scan_bounds_name_both_keys(tmp_path, capsys, scenario, first,
                                             last):
    low, high = (SCENARIO_SCHEMAS[scenario][key].default
                 for key in (first, last))
    config = _write(tmp_path, "c.cfg",
                    f"{first} = {high!r}\n{last} = {low!r}\n")
    out = tmp_path / "out"
    assert main([scenario, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {first} must not exceed {last}\n")
    assert not any(out.iterdir())


def test_negative_sweep_start_names_its_key(tmp_path, capsys):
    config = _write(tmp_path, "c.cfg", "length_min_um = -10\n")
    out = tmp_path / "out"
    assert main(["coupler-sweep", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: length_min_um must be non-negative\n")
    assert not any(out.iterdir())


def test_one_point_sweep_is_a_config_error(tmp_path, capsys):
    config = _write(tmp_path, "c.cfg",
                    "length_min_um = 100\nlength_max_um = 100\n")
    out = tmp_path / "out"
    assert main(["coupler-sweep", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: length sweep needs at least two points\n")
    assert not any(out.iterdir())


def test_missing_input_csv_is_a_config_error(tmp_path, capsys):
    csv = tmp_path / "absent.csv"
    config = _write(tmp_path, "c.cfg", f"input_csv = {csv}\n")
    out = tmp_path / "out"
    assert main(["fit-dip", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: input_csv does not exist: {csv}\n")
    assert not any(out.iterdir())


def test_bandwidth_at_an_explicit_interaction_length(tmp_path):
    # the reference device at its measured 257 um section
    device = ref.reference_device()
    config = _write(tmp_path, "c.cfg",
                    f"bend_offset_um = {device.bend_offset_um!r}\n"
                    "interaction_length_um = 257\n")
    out = tmp_path / "out"
    assert main(["bandwidth", "--config", config, "--out", str(out)]) == 0
    assert _report(out)["interaction_length_um"] == "257.0"
    rows = dict(line.split(",") for line in (out / "splitting_curve.csv")
                .read_text(encoding="utf-8").splitlines()[1:])
    assert float(rows["1550.0"]) == splitting_ratio(device, 1550.0, 257.0)


@pytest.mark.parametrize("scenario, header, row, message", [
    ("fit-coupling", "length_um,ratio", "{x!r},{y!r}",
     "power ratios must be finite"),
    ("fit-dip", "delay_ps,stage_um,coincidences", "{x!r},,{y!r}",
     "coincidence values must be finite"),
])
def test_non_finite_data_cell_is_a_data_error(tmp_path, capsys, scenario,
                                              header, row, message):
    axis = np.linspace(0.0, 100.0, 21)
    values = [0.5 + 0.4 * np.sin(0.1 * x) for x in axis]
    values[7] = float("nan")
    rows = "\n".join(row.format(x=float(x), y=float(y))
                     for x, y in zip(axis, values))
    csv = tmp_path / "data.csv"
    csv.write_text(f"{header}\n{rows}\n", encoding="utf-8")
    config = _write(tmp_path, "c.cfg", f"input_csv = {csv}\n")
    assert main([scenario, "--config", config,
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_header_only_power_ratio_csv_is_a_data_error(tmp_path, capsys):
    csv = tmp_path / "ratios.csv"
    csv.write_text("length_um,ratio\n", encoding="utf-8")
    config = _write(tmp_path, "c.cfg", f"input_csv = {csv}\n")
    assert main(["fit-coupling", "--config", config,
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: interaction lengths must be a non-empty 1D axis\n")


# a row the reader cannot take: ragged, or with a cell that is not a number
@pytest.mark.parametrize("scenario, text, message", [
    pytest.param("fit-dip",
                 "delay_ps,stage_um,coincidences\n-1.0,,4\n0.0,,2,7\n",
                 "expected 3 fields, got 4", id="fit-dip-extra-field"),
    pytest.param("fit-coupling", "length_um,ratio\n0.0,0.5\n10.0\n",
                 "expected 2 fields, got 1", id="fit-coupling-short-row"),
    pytest.param("fit-dip",
                 "delay_ps,stage_um,coincidences\n-1.0,,4\nabc,,2\n",
                 "delay_ps 'abc' is not a number", id="fit-dip-text-delay"),
    pytest.param("fit-coupling", "length_um,ratio\n0.0,0.5\n10.0,x\n",
                 "ratio 'x' is not a number", id="fit-coupling-text-ratio"),
])
def test_ragged_data_row_is_a_data_error(tmp_path, capsys, scenario, text,
                                         message):
    csv = tmp_path / "data.csv"
    csv.write_text(text, encoding="utf-8")
    config = _write(tmp_path, "c.cfg", f"input_csv = {csv}\n")
    assert main([scenario, "--config", config,
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {csv}:3: {message}\n"


def test_fit_dip_wrong_header_is_a_data_error(tmp_path, capsys):
    csv = tmp_path / "dip.csv"
    csv.write_text("delay_ps,coincidences\n0.0,5\n", encoding="utf-8")
    config = _write(tmp_path, "c.cfg", f"input_csv = {csv}\n")
    assert main(["fit-dip", "--config", config,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "expected header" in err


def test_wrong_header_names_the_file_as_given(tmp_path, capsys,
                                              monkeypatch):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "dip.csv").write_text("delay_ps,coincidences\n0.0,5\n",
                                            encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    config = _write(tmp_path, "c.cfg", "input_csv = d/dip.csv\n")
    assert main(["fit-dip", "--config", config, "--out", "out"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: d/dip.csv: expected header")


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_fp_loss_refuses_a_non_finite_n_eff(tmp_path, capsys, value):
    config = _write(tmp_path, "c.cfg",
                    f"contrast = 0.06\nlength_cm = 1.0\nn_eff = {value}\n")
    out = tmp_path / "out"
    assert main(["fp-loss", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: n_eff must be finite and positive\n")
    assert not any(out.iterdir())


def test_fit_dip_writes_normalized_scan(tmp_path):
    delays = np.linspace(-6.0, 6.0, 31)
    dip = 400.0 * (1.0 - 0.9 * np.exp(-(delays**2) / 2.0))
    rows = "\n".join(f"{float(d)!r},,{int(round(v))}"
                     for d, v in zip(delays, dip))
    csv = tmp_path / "dip.csv"
    csv.write_text(f"delay_ps,stage_um,coincidences\n{rows}\n", encoding="utf-8")
    config = _write(tmp_path, "c.cfg", f"input_csv = {csv}\n")
    out = tmp_path / "out"
    assert main(["fit-dip", "--config", config, "--out", str(out)]) == 0
    assert (out / "normalized.csv").is_file()
    assert float(_report(out)["visibility"]) == pytest.approx(0.9, abs=0.01)


def test_nested_output_directory_is_created(tmp_path):
    out = tmp_path / "a" / "b" / "c"
    assert main(["hom-dip", "--out", str(out)]) == 0
    assert (out / "report.txt").is_file()


def test_modes_scenario_writes_fields_and_report(tmp_path):
    config = _write(tmp_path, "c.cfg",
                    "grid_pitch_nm = 40.0\nn_modes = 1\n"
                    "write_index_map = true\n")
    out = tmp_path / "out"
    assert main(["modes", "--config", config, "--out", str(out)]) == 0
    entries = _report(out)
    assert entries["modes_above_substrate"] == "1"
    assert 1.8 < float(entries["mode_0_n_eff"]) < 2.0
    assert entries["mode_0_parity"] == "symmetric"
    assert (out / "mode_0_field.csv").is_file()
    assert (out / "index_map.csv").is_file()


def test_failed_reproduction_exits_one(tmp_path, capsys):
    config = _write(tmp_path, "c.cfg",
                    "pulses_per_point = 200\ngrid_pitch_nm = 40.0\n")
    out = tmp_path / "out"
    assert main(["reproduce-paper", "--config", config, "--out", str(out)]) == 1
    shown = capsys.readouterr()
    assert "FAIL" in shown.out
    assert shown.err == "error: reproduction checks failed\n"
    # the failed run leaves the same report it prints
    written = (out / "report.txt").read_text(encoding="utf-8")
    assert written == shown.out
    assert any(line.endswith("FAIL") for line in written.splitlines())
    # the fit of 35 coincidences has a 4-sigma span wider than the band
    model_row, = (line for line in written.splitlines()
                  if line.startswith("fitted visibility within 4 sigma"))
    assert model_row.endswith("FAIL")
    assert written.splitlines()[-1] == "12/14 checks passed"


def test_bad_pulse_count_fails_before_any_solve(tmp_path, capsys,
                                                monkeypatch):
    def never_called(*args, **kwargs):
        raise AssertionError("the mode solver ran")

    monkeypatch.setattr(reproduce, "guided_mode_count", never_called)
    monkeypatch.setattr(reproduce, "supermode_coupling_length", never_called)
    config = _write(tmp_path, "c.cfg", "pulses_per_point = 0\n")
    assert main(["reproduce-paper", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: pulses_per_run must be at least 1\n")


def _counting_rows(seed):
    rows = list(reproduce._counting_check(seed, ref.reference_source(), 50))
    assert [row.name for row in rows] == [
        "counting-simulation fitted visibility",
        "fitted visibility within 4 sigma of click model"]
    return rows


def test_counting_rows_pass_at_the_reference_seed():
    band, model = _counting_rows(12345)
    assert band.passed and model.passed
    assert model.expected == "0.961238"


def test_model_row_fails_when_the_simulated_splitter_is_off(monkeypatch):
    # eta = 0.57 in the simulation only: the fitted visibility stays inside
    # the band, but some 8 fit sigma below the model
    simulate = reproduce.simulate_counts

    def off_splitter(state, eta, *args, **kwargs):
        return simulate(state, 0.57, *args, **kwargs)

    monkeypatch.setattr(reproduce, "simulate_counts", off_splitter)
    band, model = _counting_rows(12345)
    assert band.passed
    assert not model.passed
