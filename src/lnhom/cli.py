"""Scenario-driven command line: one scenario per invocation.

Configs are flat ``key = value`` text (``#`` comments, blank lines allowed)
validated against a per-scenario schema; unknown keys are rejected and all
physical quantities carry their unit in the key name.  Exit codes: 0 on
success (and all checks passing), 1 on runtime or check failure, 2 on
config errors.  ``main`` alone maps exceptions to exit codes: a
``ValueError`` raised while a scenario runs blames its config (exit 2),
except in the scenarios that read a data file (``fit-coupling``,
``fit-dip``), where only a ``ConfigError`` does and any other
``ValueError`` rejects the data (exit 1).  A fit's verdict on its data
(``UnidentifiableDataError``) is a ``RuntimeError``: it always exits 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import io as lio
from . import reference as ref
from .coupler import CouplerDevice, length_for_ratio, splitting_ratio
from .counting import DetectorModel, SourceModel, simulate_counts
from .errors import ConfigError
from .fitting import (MIN_DIP_POINTS, PowerRatioSeries, fabry_perot_loss,
                      fit_coupling_sinusoid, fit_gaussian_dip,
                      fresnel_reflectivity, normalized_scan)
from .fock import PAIR_STATISTICS
from .geometry import (DEFAULT_GRID_PITCH_NM, DEFAULT_PADDING_UM,
                       WaveguideGeometry, build_cross_section)
from .hom import (STAGE_DOUBLE_PASS_PS_PER_UM, STAGE_SINGLE_PASS_PS_PER_UM,
                  TwoPhotonState, check_eta, coincidence_curve,
                  hom_visibility_max)
from .materials import DEFAULT_POLARIZATION, POLARIZATIONS
from .modes import solve_modes
from .reproduce import format_report, run_reproduction

_REQUIRED = object()
# most points a delay, length or wavelength scan may ask for, checked before
# its axis is built
MAX_SCAN_POINTS = 100_000


@dataclass(frozen=True)
class ConfigKey:
    name: str
    kind: type  # float, int, str or bool
    default: object = _REQUIRED
    help: str = ""
    choices: tuple = None

    @property
    def required(self):
        return self.default is _REQUIRED


def _schema(*keys):
    return {key.name: key for key in keys}


# keys named after a dataclass field default to that field's default
_GEOMETRY_KEYS = tuple(
    ConfigKey(name, float, getattr(WaveguideGeometry, name), help_text)
    for name, help_text in (
        ("film_thickness_nm", "LN film thickness"),
        ("etch_depth_nm", "rib etch depth"),
        ("top_width_um", "rib top width"),
        ("sidewall_angle_deg", "sidewall angle"),
        ("cladding_thickness_nm", "SiO2 top cladding"),
        ("gap_um", "rib gap; omit for a single guide"),
    ))

_DEVICE_KEYS = (
    ConfigKey("coupling_length_um", float, ref.COUPLING_LENGTH_UM,
              "beat length at the reference wavelength"),
    ConfigKey("reference_wavelength_nm", float,
              ref.CHARACTERIZATION_WAVELENGTH_NM, "calibration wavelength"),
    ConfigKey("delta_n_slope_per_nm", float,
              CouplerDevice.delta_n_slope_per_nm,
              "linear slope of the supermode index splitting"),
    ConfigKey("bend_offset_um", float, CouplerDevice.bend_offset_um,
              "effective bend length"),
)

SCENARIO_SCHEMAS = {
    "modes": _schema(
        *_GEOMETRY_KEYS,
        ConfigKey("wavelength_nm", float, 1550.0, "vacuum wavelength"),
        ConfigKey("grid_pitch_nm", float, DEFAULT_GRID_PITCH_NM, "cell size"),
        ConfigKey("padding_um", float, DEFAULT_PADDING_UM,
                  "cladding padding on each side"),
        ConfigKey("polarization", str, DEFAULT_POLARIZATION, "mode family",
                  POLARIZATIONS),
        ConfigKey("n_modes", int, 2, "guided modes requested"),
        ConfigKey("write_fields", bool, True, "dump mode fields as CSV"),
        ConfigKey("write_index_map", bool, False, "dump the index map"),
    ),
    "coupler-sweep": _schema(
        *_DEVICE_KEYS,
        ConfigKey("wavelength_nm", float, ref.CHARACTERIZATION_WAVELENGTH_NM,
                  "evaluation wavelength"),
        ConfigKey("length_min_um", float, ref.INTERACTION_LENGTH_SERIES_UM[0],
                  "first interaction length"),
        ConfigKey("length_max_um", float, ref.INTERACTION_LENGTH_SERIES_UM[1],
                  "last interaction length"),
        ConfigKey("length_step_um", float, 10.0, "length step"),
    ),
    "bandwidth": _schema(
        *_DEVICE_KEYS,
        ConfigKey("interaction_length_um", float, None,
                  "fixed interaction length; omit to use a 50:50 design"),
        ConfigKey("design_order", int, 0,
                  "half-period branch of the 50:50 design"),
        ConfigKey("wavelength_min_nm", float, 1540.0, "scan start"),
        ConfigKey("wavelength_max_nm", float, 1560.0, "scan end"),
        ConfigKey("step_nm", float, 0.25, "scan step"),
    ),
    "hom-dip": _schema(
        ConfigKey("center_wavelength_nm", float, ref.PHOTON_WAVELENGTH_NM),
        ConfigKey("bandwidth_fwhm_nm", float, ref.PHOTON_BANDWIDTH_FWHM_NM),
        ConfigKey("source_visibility", float,
                  TwoPhotonState.source_visibility, "zero-delay overlap I(0)"),
        ConfigKey("eta", float, 0.5, "splitter cross fraction"),
        ConfigKey("delay_min_ps", float, ref.DELAY_RANGE_PS[0]),
        ConfigKey("delay_max_ps", float, ref.DELAY_RANGE_PS[1]),
        ConfigKey("delay_points", int, 81),
        ConfigKey("normalized", bool, True, "divide by the far-delay baseline"),
    ),
    "simulate-counts": _schema(
        ConfigKey("center_wavelength_nm", float, ref.PHOTON_WAVELENGTH_NM),
        ConfigKey("bandwidth_fwhm_nm", float, ref.PHOTON_BANDWIDTH_FWHM_NM),
        ConfigKey("source_visibility", float, ref.SOURCE_VISIBILITY,
                  "zero-delay overlap I(0)"),
        ConfigKey("eta", float, ref.SPLITTING_RATIO),
        ConfigKey("mean_pairs_per_pulse", float,
                  ref.REPRODUCTION_MEAN_PAIRS_PER_PULSE),
        ConfigKey("statistics", str, SourceModel.statistics,
                  "pair statistics", PAIR_STATISTICS),
        ConfigKey("repetition_period_ns", float,
                  SourceModel.repetition_period_ns),
        ConfigKey("efficiency", float, ref.DETECTOR_EFFICIENCY),
        ConfigKey("dead_time_ns", float, ref.DETECTOR_DEAD_TIME_NS),
        ConfigKey("dark_count_probability", float,
                  DetectorModel.dark_count_probability),
        ConfigKey("delay_min_ps", float, ref.DELAY_RANGE_PS[0]),
        ConfigKey("delay_max_ps", float, ref.DELAY_RANGE_PS[1]),
        ConfigKey("delay_points", int, 50),
        ConfigKey("pulses_per_point", int, SourceModel.pulses_per_run),
        ConfigKey("stage_conversion", str, "double-pass",
                  "stage position to delay conversion",
                  ("single-pass", "double-pass")),
        ConfigKey("seed", int, 12345, "random seed"),
    ),
    "fit-coupling": _schema(
        ConfigKey("input_csv", str, help="CSV with header length_um,ratio"),
    ),
    "fit-dip": _schema(
        ConfigKey("input_csv", str,
                  help="CSV with header delay_ps,stage_um,coincidences"),
        ConfigKey("write_normalized", bool, True,
                  "also write the baseline-normalized scan"),
    ),
    "fp-loss": _schema(
        ConfigKey("contrast", float, help="fringe contrast (Imax-Imin)/(Imax+Imin)"),
        ConfigKey("length_cm", float, help="waveguide length"),
        ConfigKey("facet_reflectivity", float, None,
                  "facet power reflectivity; omit to derive from n_eff"),
        ConfigKey("n_eff", float, None,
                  "effective index for the Fresnel facet reflectivity"),
    ),
    "reproduce-paper": _schema(
        ConfigKey("seed", int, 12345, "seed for the counting simulation"),
        ConfigKey("pulses_per_point", int, SourceModel.pulses_per_run),
        ConfigKey("delay_points", int, 50),
        ConfigKey("grid_pitch_nm", float, 20.0, "solver pitch for the checks"),
    ),
}


def parse_config_text(text, schema, source="<config>"):
    """Parse flat key = value text and validate against the schema."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'",
                              line=lineno)
        name, _, literal = (part.strip() for part in line.partition("="))
        if name not in schema:
            raise ConfigError(f"{source}:{lineno}: unknown key {name!r}",
                              line=lineno, key=name)
        if name in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {name!r}",
                              line=lineno, key=name)
        values[name] = _convert(literal, schema[name], lineno, source)
    for key in schema.values():
        if key.name not in values:
            if key.required:
                raise ConfigError(f"{source}: missing required key {key.name!r}",
                                  key=key.name)
            values[key.name] = key.default
    return values


def _convert(literal, key, lineno, source):
    try:
        if key.kind is bool:
            if literal.lower() not in ("true", "false"):
                raise ValueError
            value = literal.lower() == "true"
        else:
            value = key.kind(literal)
    except ValueError:
        raise ConfigError(
            f"{source}:{lineno}: key {key.name!r} expects "
            f"{key.kind.__name__}, got {literal!r}", line=lineno,
            key=key.name) from None
    if key.choices is not None and value not in key.choices:
        raise ConfigError(
            f"{source}:{lineno}: key {key.name!r} must be one of "
            f"{', '.join(key.choices)}", line=lineno, key=key.name)
    return value


def format_schema(scenario):
    schema = SCENARIO_SCHEMAS[scenario]
    lines = [f"# {scenario} configuration keys"]
    for key in schema.values():
        if key.required:
            default = "required"
        elif key.default is None:
            default = "optional"
        elif key.kind is bool:
            default = f"default {'true' if key.default else 'false'}"
        else:
            default = f"default {key.default!r}"
        choice = f" one of {', '.join(key.choices)};" if key.choices else ""
        help_text = f"  # {key.help}" if key.help else ""
        lines.append(f"{key.name}  ({key.kind.__name__}; {default};{choice})"
                     f"{help_text}")
    return "\n".join(lines)


def _build(cls, params):
    """Dataclass ``cls`` built from the config values named after its
    fields; a field with no config key raises ``KeyError``."""
    return cls(**{field.name: params[field.name] for field in fields(cls)})


def _check_delay_points(params, minimum):
    if params["delay_points"] < minimum:
        raise ConfigError(f"delay_points must be at least {minimum}")
    if params["delay_points"] > MAX_SCAN_POINTS:
        raise ConfigError(f"delay_points must be at most {MAX_SCAN_POINTS}")


def _scan_axis(params, first, last, step, name):
    """The axis np.arange(first, last + step / 2, step) of a scan from
    ``params[first]`` to ``params[last]`` in steps of ``params[step]``.

    Refuses, naming its keys, a step that is not finite and positive, then
    an axis that would hold ceil((last - first) / step + 1/2) >
    ``MAX_SCAN_POINTS`` points, before it is built (the negated comparison
    fails on a non-finite bound too), then bounds in reversed order."""
    if not 0.0 < params[step] < np.inf:
        raise ConfigError(f"{step} must be finite and positive")
    if not abs(params[last] - params[first]) \
            <= (MAX_SCAN_POINTS - 0.5) * params[step]:
        raise ConfigError(f"{name} must have at most {MAX_SCAN_POINTS} points")
    if params[first] > params[last]:
        raise ConfigError(f"{first} must not exceed {last}")
    return np.arange(params[first], params[last] + 0.5 * params[step],
                     params[step])


def _delay_axis(params, minimum):
    _check_delay_points(params, minimum)
    if not -np.inf < params["delay_min_ps"] < params["delay_max_ps"] < np.inf:
        raise ConfigError("delay_min_ps must be below delay_max_ps, and both "
                          "finite")
    return np.linspace(params["delay_min_ps"], params["delay_max_ps"],
                       params["delay_points"])


def _run_modes(params, out):
    geometry = _build(WaveguideGeometry, params)
    index_map = build_cross_section(geometry, params["wavelength_nm"],
                                    grid_pitch_nm=params["grid_pitch_nm"],
                                    padding_um=params["padding_um"],
                                    polarization=params["polarization"])
    modes = solve_modes(index_map, params["n_modes"])
    report = [f"modes_above_substrate = {len(modes)}"]
    for i, mode in enumerate(modes):
        report.append(f"mode_{i}_n_eff = {mode.n_eff!r}")
        report.append(f"mode_{i}_parity = {mode.parity}")
        if params["write_fields"]:
            lio.write_mode_field_csv(out / f"mode_{i}_field.csv", index_map,
                                     mode)
    if params["write_index_map"]:
        lio.write_field_csv(out / "index_map.csv", index_map.x_nm,
                            index_map.y_nm, index_map.index)
    return report


def _run_coupler_sweep(params, out):
    if params["length_min_um"] < 0:
        raise ConfigError("length_min_um must be non-negative")
    lengths = _scan_axis(params, "length_min_um", "length_max_um",
                         "length_step_um", "length sweep")
    if lengths.size < 2:
        raise ConfigError("length sweep needs at least two points")
    device = _build(CouplerDevice, params)
    ratios = splitting_ratio(device, params["wavelength_nm"], lengths)
    lio.write_power_ratio_csv(out / "power_ratio.csv",
                              PowerRatioSeries(lengths, ratios))
    return [f"points = {lengths.size}",
            f"wavelength_nm = {params['wavelength_nm']!r}"]


def _run_bandwidth(params, out):
    wavelengths = _scan_axis(params, "wavelength_min_nm", "wavelength_max_nm",
                             "step_nm", "wavelength scan")
    device = _build(CouplerDevice, params)
    length = params["interaction_length_um"]
    if length is None:
        length = length_for_ratio(device, 0.5, params["design_order"])
    eta = splitting_ratio(device, wavelengths, length)
    lio.write_splitting_curve_csv(out / "splitting_curve.csv", wavelengths,
                                  eta)
    deviation = float(np.max(np.abs(eta - 0.5)))
    return [f"interaction_length_um = {length!r}",
            f"max_deviation_from_balanced = {deviation!r}"]


def _run_hom_dip(params, out):
    state = _build(TwoPhotonState, params)
    delays = _delay_axis(params, 2)
    scan = coincidence_curve(state, params["eta"], delays,
                             normalized=params["normalized"])
    lio.write_delay_scan_csv(out / "dip_curve.csv", scan)
    vmax = hom_visibility_max(params["eta"])
    return [f"splitter_limited_visibility = {vmax!r}",
            f"dip_minimum = {float(scan.values.min())!r}"]


def _run_simulate_counts(params, out):
    state = _build(TwoPhotonState, params)
    source = SourceModel(params["mean_pairs_per_pulse"],
                         pulses_per_run=params["pulses_per_point"],
                         statistics=params["statistics"],
                         repetition_period_ns=params["repetition_period_ns"])
    detectors = _build(DetectorModel, params)
    # checked here too, so a bad eta is named before a too-short delay axis
    check_eta(params["eta"])
    # the scan is fitted below, so too few points fail before it is run
    delays = _delay_axis(params, MIN_DIP_POINTS)
    scan = simulate_counts(state, params["eta"], source, detectors, delays,
                           seed=params["seed"])
    factor = STAGE_DOUBLE_PASS_PS_PER_UM \
        if params["stage_conversion"] == "double-pass" \
        else STAGE_SINGLE_PASS_PS_PER_UM
    scan = replace(scan, stage_um=scan.delay_ps / factor)
    lio.write_delay_scan_csv(out / "counts.csv", scan)
    report = [f"seed = {params['seed']}",
              f"total_coincidences = {int(scan.values.sum())}"]
    fit = fit_gaussian_dip(scan)
    lio.write_fit_report(out / "fit_report.txt", fit)
    report.append(f"fitted_visibility = {fit.parameters['visibility']!r}")
    report.append(f"fitted_visibility_sigma = {fit.uncertainties['visibility']!r}")
    return report


def _input_path(params):
    path = Path(params["input_csv"])
    if not path.is_file():
        raise ConfigError(f"input_csv does not exist: {path}")
    return path


def _run_fit_coupling(params, out):
    series = lio.read_power_ratio_csv(_input_path(params))
    fit = fit_coupling_sinusoid(series)
    lio.write_fit_report(out / "fit_report.txt", fit)
    lio.write_residuals_csv(out / "residuals.csv", "length_um",
                            series.interaction_length_um, fit.residuals)
    return [f"{name} = {value!r}" for name, value in fit.parameters.items()]


def _run_fit_dip(params, out):
    scan = lio.read_delay_scan_csv(_input_path(params))
    fit = fit_gaussian_dip(scan)
    lio.write_fit_report(out / "fit_report.txt", fit)
    lio.write_residuals_csv(out / "residuals.csv", "delay_ps", scan.delay_ps,
                            fit.residuals)
    if params["write_normalized"]:
        lio.write_delay_scan_csv(out / "normalized.csv",
                                 normalized_scan(scan, fit))
    return [f"visibility = {fit.parameters['visibility']!r}",
            f"visibility_sigma = {fit.uncertainties['visibility']!r}"]


def _run_fp_loss(params, out):
    if (params["facet_reflectivity"] is None) == (params["n_eff"] is None):
        raise ConfigError(
            "give exactly one of facet_reflectivity or n_eff")
    reflectivity = params["facet_reflectivity"]
    if reflectivity is None:
        reflectivity = fresnel_reflectivity(params["n_eff"])
    alpha = fabry_perot_loss(params["contrast"], reflectivity,
                             params["length_cm"])
    return [f"facet_reflectivity = {reflectivity!r}",
            f"loss_db_per_cm = {alpha!r}"]


class _ChecksFailed(RuntimeError):
    """A run that completed and has a report, but whose checks failed."""

    def __init__(self, report):
        super().__init__("reproduction checks failed")
        self.report = report


def _run_reproduce(params, out):
    _check_delay_points(params, MIN_DIP_POINTS)
    results = run_reproduction(**params)
    report = format_report(results).splitlines()
    if not all(r.passed for r in results):
        raise _ChecksFailed(report)
    return report


_RUNNERS = {
    "modes": _run_modes,
    "coupler-sweep": _run_coupler_sweep,
    "bandwidth": _run_bandwidth,
    "hom-dip": _run_hom_dip,
    "simulate-counts": _run_simulate_counts,
    "fit-coupling": _run_fit_coupling,
    "fit-dip": _run_fit_dip,
    "fp-loss": _run_fp_loss,
    "reproduce-paper": _run_reproduce,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lnhom",
        description="Simulation scenarios for two-photon interference in a "
                    "thin-film lithium niobate directional coupler.")
    parser.add_argument("scenario", choices=sorted(SCENARIO_SCHEMAS))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", default="lnhom-out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--print-schema", action="store_true",
                        help="print the scenario's config schema and exit")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.print_schema:
        print(format_schema(args.scenario))
        return 0

    schema = SCENARIO_SCHEMAS[args.scenario]
    try:
        text = ""
        if args.config is not None:
            text = Path(args.config).read_text(encoding="utf-8")
        params = parse_config_text(text, schema, source=args.config or "<defaults>")
        if args.seed is not None:
            if "seed" not in schema:
                raise ConfigError(
                    f"scenario {args.scenario!r} does not take a seed")
            params["seed"] = args.seed
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    status = 0
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.verbose:
            print(f"running {args.scenario} -> {out}", file=sys.stderr)
        report = _RUNNERS[args.scenario](params, out)
    except _ChecksFailed as exc:
        # the report of a failed check is written and printed all the same
        report, status = exc.report, 1
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:
        # a ValueError blames the config, unless the scenario read a data
        # file: then only a ConfigError does, and the data are at fault
        config_fault = isinstance(exc, ConfigError) or (
            isinstance(exc, ValueError) and "input_csv" not in schema)
        print(f"{'config error' if config_fault else 'error'}: {exc}",
              file=sys.stderr)
        return 2 if config_fault else 1

    report_path = out / "report.txt"
    with lio._open_write(report_path) as handle:
        handle.write("\n".join(report) + "\n")
    for line in report:
        print(line)
    if args.verbose:
        print(f"report written to {report_path}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
