"""Benchmark of the lnhom command line, run from the repository root:

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Each workload runs as fresh ``lnhom`` CLI processes, one after another, the
way users run the tool.  With ``--trace 0`` it reports the end-to-end
metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it
runs the workload once untraced and once under ``bench/tracer.py`` and
reports per-layer metrics.  Every run checks the program's outputs against
the published bands, prints human-readable lines (error rate, tail
percentile, result values, provenance) and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs every workload in turn.

Children run with one BLAS/OpenMP thread, so the figures are the
single-threaded baseline.  Scratch files go to ``.bench_work/`` in the
repository root and are removed after each run, apart from one JSON record
per workload and mode with every sample, the result values and the
provenance.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().with_name("tracer.py")

RUN_BUDGET_S = 170.0      # a run must end within 180 s
MIN_CHILDREN = 2          # wall_s is a median of at least two processes
SETUP_SAMPLES = 5         # setup_s is their median, after one warm-up import
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
WAVELENGTH_NM = 1550.0
# The eigensolve is not bit-reproducible across processes: identical
# untraced runs differ in n_eff by a unit or two in the last place (about
# 1e-16 relative), so n_eff is compared to this tolerance, not bitwise.
STABLE_RTOL = 1e-13

PAPER_CONFIG = """\
seed = {seed}
pulses_per_point = 1000000
delay_points = 50
grid_pitch_nm = 20
"""

SUPERMODES_FINE_CONFIG = """\
film_thickness_nm = 600
etch_depth_nm = 150
top_width_um = 1.0
sidewall_angle_deg = 60
cladding_thickness_nm = 700
gap_um = 2.3
wavelength_nm = 1550
grid_pitch_nm = 10
padding_um = 2.0
polarization = te
n_modes = 2
write_fields = true
write_index_map = true
"""

COUNTS_BRIGHT_CONFIG = """\
center_wavelength_nm = 1542.22
bandwidth_fwhm_nm = 1.8
source_visibility = 0.9801
eta = 0.546
mean_pairs_per_pulse = 0.5
statistics = thermal-pairs
repetition_period_ns = 13.1
efficiency = 0.95
dead_time_ns = 70
dark_count_probability = 0.001
delay_min_ps = -8
delay_max_ps = 8
delay_points = 50
pulses_per_point = 1000000
stage_conversion = double-pass
seed = {seed}
"""


@dataclass(frozen=True)
class Workload:
    scenario: str
    config: str
    # files that must be byte-identical between runs with the same seed
    stable_files: tuple
    # result values that must agree to STABLE_RTOL between such runs
    stable_values: tuple
    # (gap_um or None, pitch_nm) of each cross-section the run solves
    grids: tuple
    why: str


WORKLOADS = {
    "paper": Workload(
        "reproduce-paper", PAPER_CONFIG, ("report.txt",), (),
        ((None, 20.0), (2.3, 20.0)),
        "headline command: 20 nm supermode solve plus sparse Monte Carlo "
        "(mu = 0.009), about half each"),
    "supermodes-fine": Workload(
        "modes", SUPERMODES_FINE_CONFIG, (),
        ("n_eff_symmetric", "n_eff_antisymmetric"), ((2.3, 10.0),),
        "converged-pitch design run: 397k-cell solve plus 40 MB of field "
        "CSV, no counting"),
    "counts-bright": Workload(
        "simulate-counts", COUNTS_BRIGHT_CONFIG, ("counts.csv",), (), (),
        "high-gain counting (thermal, mu = 0.5, dark counts): a third of "
        "the pulses active, no solver"),
}


@dataclass
class Child:
    """One CLI process: timing, resource use and the output check."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    errors: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    start: float = 0.0


def spawn(cmd, log_dir, timeout_s):
    """Run one process to exit; wall time from spawn to reaping, rusage of
    that child alone."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, \
            open(log_dir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    return Child(wall_s=end - start, cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0,
                 exit_code=proc.returncode, start=start)


def measure_setup(log_dir, deadline):
    """Fresh interpreter up to ``import lnhom.cli`` done, as every CLI
    invocation pays it; the first import writes bytecode caches and is not
    counted."""
    cmd = [sys.executable, "-c", "import lnhom.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        child = spawn(cmd, log_dir / f"setup-{i}", deadline - time.monotonic())
        if child.exit_code != 0:
            raise SystemExit(f"bench: 'import lnhom.cli' failed, see "
                             f"{log_dir / f'setup-{i}'}")
        if i:
            samples.append(child.wall_s)
    return samples


# ------------------------------------------------------------ output checks

def _report_values(path):
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            values[name.strip()] = value.strip()
    return values


def _table_value(lines, prefix):
    """Computed column of a reproduce-paper table row, or None."""
    for line in lines:
        if line.startswith(prefix):
            try:
                return float(line.split()[-3])
            except (IndexError, ValueError):
                return None
    return None


def check_paper(out, child):
    lines = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    summary = re.fullmatch(r"(\d+)/(\d+) checks passed",
                           lines[-1].strip() if lines else "")
    if not summary or summary[1] != summary[2] or int(summary[2]) < 13:
        child.errors.append(f"report summary {lines[-1:]!r}, want n/n checks "
                            "passed with n >= 13")
    if any(line.rstrip().endswith("FAIL") for line in lines):
        child.errors.append("a reproduction check failed")
    child.values["checks_passed"] = summary[0] if summary else None
    child.values["Lc_um"] = _table_value(lines, "simulated coupler beat length")
    child.values["fitted_visibility"] = _table_value(
        lines, "counting-simulation fitted visibility")


def _line_count(path):
    with open(path, "rb") as handle:
        return sum(block.count(b"\n")
                   for block in iter(lambda: handle.read(1 << 20), b""))


def check_supermodes(out, child):
    report = _report_values(out / "report.txt")
    modes = {}
    for key, value in report.items():
        match = re.fullmatch(r"mode_(\d+)_(n_eff|parity)", key)
        if match:
            modes.setdefault(int(match[1]), {})[match[2]] = value
    by_parity = {}
    for index in sorted(modes):
        parity = modes[index].get("parity")
        if parity not in by_parity and "n_eff" in modes[index]:
            by_parity[parity] = float(modes[index]["n_eff"])
    if {"symmetric", "antisymmetric"} - by_parity.keys():
        child.errors.append(f"no symmetric/antisymmetric pair in {modes}")
    else:
        delta_n = by_parity["symmetric"] - by_parity["antisymmetric"]
        lc_um = (WAVELENGTH_NM / 1000.0) / (2.0 * delta_n) if delta_n > 0 \
            else math.inf
        child.values.update(n_eff_symmetric=by_parity["symmetric"],
                            n_eff_antisymmetric=by_parity["antisymmetric"],
                            Lc_um=lc_um)
        if not 90.0 <= lc_um <= 180.0:
            child.errors.append(f"Lc {lc_um} um outside the published "
                                "[90, 180] um band")

    # grid size from the index map itself: distinct x times distinct y
    xs, ys, rows = set(), set(), 0
    with open(out / "index_map.csv", encoding="utf-8") as handle:
        header = handle.readline().strip()
        for line in handle:
            x, y, _ = line.split(",", 2)
            xs.add(x)
            ys.add(y)
            rows += 1
    cells = len(xs) * len(ys)
    child.values["cells"] = cells
    if header != "x_nm,y_nm,value" or rows != cells:
        child.errors.append(f"index_map.csv: header {header!r}, {rows} rows "
                            f"for {cells} cells")
    for index in sorted(modes):
        path = out / f"mode_{index}_field.csv"
        if not path.is_file():
            child.errors.append(f"{path.name} missing")
            continue
        with open(path, encoding="utf-8") as handle:
            head = handle.readline().strip()
        count = _line_count(path)
        if head != "x_nm,y_nm,value" or count != cells + 1:
            child.errors.append(f"{path.name}: header {head!r}, {count} lines, "
                                f"want {cells + 1}")


def check_counts(out, child):
    report = _report_values(out / "report.txt")
    lines = (out / "counts.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "delay_ps,stage_um,coincidences":
        child.errors.append("counts.csv header")
        return
    counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    visibility = float(report.get("fitted_visibility", "nan"))
    total = int(report.get("total_coincidences", "-1"))
    child.values.update(fitted_visibility=visibility,
                        total_coincidences=total)
    if len(counts) != 50 or total != sum(counts) or total <= 0:
        child.errors.append(f"counts.csv: {len(counts)} points summing to "
                            f"{sum(counts)}, report total {total}")
    if not 0.0 < visibility < 1.0:
        child.errors.append(f"fitted visibility {visibility} outside (0, 1)")


CHECKS = {"paper": check_paper, "supermodes-fine": check_supermodes,
          "counts-bright": check_counts}


def run_cli(name, seed, run_dir, tag, deadline, spans_path=None):
    """One CLI process of a workload, then its output check."""
    workload = WORKLOADS[name]
    child_dir = run_dir / tag
    out = child_dir / "out"
    config = child_dir / "workload.cfg"
    child_dir.mkdir(parents=True)
    config.write_text(workload.config.format(seed=seed), encoding="utf-8")
    args = [workload.scenario, "--config", str(config), "--out", str(out)]
    if spans_path is None:
        cmd = [sys.executable, "-c",
               "import sys; from lnhom.cli import main; sys.exit(main())"]
    else:
        cmd = [sys.executable, str(TRACER), str(spans_path)]
    child = spawn(cmd + args, child_dir, deadline - time.monotonic())
    if child.exit_code != 0:
        stderr = (child_dir / "stderr.txt").read_text(errors="replace")
        child.errors.append(f"exit code {child.exit_code}: "
                            f"{stderr.strip()[-300:]}")
        return child
    try:
        CHECKS[name](out, child)
    except (OSError, ValueError, IndexError) as exc:
        child.errors.append(f"output check: {exc!r}")
    return child


def same_outputs(name, first_dir, first, other_dir, other):
    for key in WORKLOADS[name].stable_values:
        a, b = first.values.get(key), other.values.get(key)
        if a is None or b is None or abs(a - b) > STABLE_RTOL * abs(a):
            other.errors.append(f"{key} {b!r} differs from {a!r} of the first "
                                "run with the same seed")
    for filename in WORKLOADS[name].stable_files:
        a, b = first_dir / "out" / filename, other_dir / "out" / filename
        if not (a.is_file() and b.is_file()
                and filecmp.cmp(a, b, shallow=False)):
            other.errors.append(f"{filename} differs from the first run with "
                                "the same seed")


# ------------------------------------------------------------------ metrics

def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(name, seed, seconds, run_dir, deadline):
    setup = measure_setup(run_dir, deadline)
    children = []
    started = time.monotonic()
    while len(children) < MIN_CHILDREN or time.monotonic() - started < seconds:
        longest = max((c.wall_s for c in children), default=0.0)
        if children and time.monotonic() + 1.5 * longest > deadline:
            break
        tag = f"child-{len(children)}"
        child = run_cli(name, seed, run_dir, tag, deadline)
        if children:
            same_outputs(name, run_dir / "child-0", children[0],
                         run_dir / tag, child)
        children.append(child)
    walls = [c.wall_s for c in children]
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(statistics.median(c.peak_rss_mb
                                                for c in children), "MB"),
    }
    record = {"setup_s_samples": setup, "wall_s_samples": walls}
    lines = [f"wall_s samples: {len(walls)}, median {metrics['wall_s']['value']:.4f} s"]
    tail_point = tail(walls)
    lines.append("wall_s tail: " + (
        f"p{tail_point[0]:.1f} = {tail_point[1]:.4f} s"
        if tail_point else
        f"no percentile has >= 10 of the {len(walls)} samples beyond it"))
    lines.append(f"setup_s samples: {len(setup)}, median "
                 f"{metrics['setup_s']['value']:.4f} s")
    return children, metrics, record, lines


def traced_run(name, seed, run_dir, deadline):
    untraced = run_cli(name, seed, run_dir, "child-0", deadline)
    spans_path = run_dir / "spans.json"
    traced = run_cli(name, seed, run_dir, "child-1", deadline, spans_path)
    same_outputs(name, run_dir / "child-0", untraced, run_dir / "child-1",
                 traced)
    children = [untraced, traced]
    if not spans_path.is_file():
        traced.errors.append("traced run wrote no spans")
        return children, {}, {}, []
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    metrics, record, lines = layer_metrics(trace, untraced, traced)
    return children, metrics, record, lines


def _active_fraction(attrs):
    """Share of pulses with a pair or a dark click on either detector
    (computed from the source statistics, not counted)."""
    if not attrs:
        return 0.0
    from lnhom.fock import pair_number_probabilities
    a = attrs[0]
    p_none = float(pair_number_probabilities(a["mean_pairs_per_pulse"],
                                             a["statistics"], 0)[0])
    return 1.0 - p_none * (1.0 - a["dark_count_probability"]) ** 2


def layer_metrics(trace, untraced, traced):
    spans = trace["spans"]
    total, self_time, calls = tracer.layer_times(spans)
    setup_s = trace["imported"] - traced.start

    def named(layer, name):
        return tracer.name_time(spans, layer, name)

    cells = sum(a["cells"] for a in tracer.attrs_of(spans, "geometry",
                                                    "build_cross_section"))
    solved_cells = sum(a["cells"] for a in tracer.attrs_of(spans, "modes",
                                                           "solve_modes"))
    counting = tracer.attrs_of(spans, "counting", "simulate_counts")
    counting_s = named("counting", "simulate_counts")[0]
    points = sum(a["points"] for a in counting)
    pulses = sum(a["points"] * a["pulses_per_point"] for a in counting)
    # every io call of these workloads is a write_* with a recorded path
    paths = {s[6]["path"] for s in spans
             if s[2] == "io" and s[6] and "path" in s[6]}
    written = sum(Path(p).stat().st_size for p in paths if Path(p).is_file())
    write_s = total["io"]
    unattributed = traced.wall_s - setup_s - sum(self_time.values())

    m = {
        "cli.cpu_s": metric(untraced.cpu_s, "s"),
        "cli.self_s": metric(self_time["cli"], "s"),
        "trace.wall_s": metric(traced.wall_s, "s"),
        "trace.overhead_s": metric(traced.wall_s - untraced.wall_s, "s"),
        "trace.setup_s": metric(setup_s, "s"),
        "trace.unattributed_s": metric(unattributed, "s"),
        "reproduce.run_reproduction_s":
            metric(named("reproduce", "run_reproduction")[0], "s"),
        "geometry.build_cross_section_s":
            metric(named("geometry", "build_cross_section")[0], "s"),
        "geometry.cells": metric(cells, "count"),
        "modes.solve_modes_s": metric(named("modes", "solve_modes")[0], "s"),
        "modes.solve_modes_calls":
            metric(named("modes", "solve_modes")[1], "count"),
        "modes.eigsh_s": metric(named("eigsh", "eigsh")[0], "s"),
        "modes.eigsh_calls": metric(named("eigsh", "eigsh")[1], "count"),
        "modes.self_s": metric(self_time["modes"], "s"),
        "modes.supermode_coupling_length_s":
            metric(named("modes", "supermode_coupling_length")[0], "s"),
        "modes.guided_mode_count_s":
            metric(named("modes", "guided_mode_count")[0], "s"),
        "modes.operator_nnz": metric(5 * solved_cells, "count"),
        "counting.simulate_counts_s": metric(counting_s, "s"),
        "counting.point_s": metric(counting_s / points if points else 0.0, "s"),
        "counting.pulses_per_s":
            metric(pulses / counting_s if counting_s else 0.0, "1/s"),
        "counting.self_s": metric(self_time["counting"], "s"),
        "counting.active_fraction": metric(_active_fraction(counting),
                                           "fraction"),
        "io.write_s": metric(write_s, "s"),
        "io.bytes_written": metric(written, "B"),
        "io.files_written": metric(len(paths), "count"),
        "io.mb_per_s": metric(written / 1e6 / write_s if write_s else 0.0,
                              "MB/s"),
    }
    for layer in ("fock", "hom", "fitting", "coupler"):
        m[f"{layer}.s"] = metric(total[layer], "s")
        m[f"{layer}.calls"] = metric(calls[layer], "count")

    layers = sorted(set(self_time) | set(tracer.LAYERS))
    lines = [f"traced wall {traced.wall_s:.4f} s, untraced {untraced.wall_s:.4f} s, "
             f"overhead {traced.wall_s - untraced.wall_s:+.4f} s",
             f"absent wrapped names: {', '.join(trace['absent']) or 'none'}",
             "self time by layer: " + ", ".join(
                 f"{layer} {self_time[layer]:.4f} s" for layer in layers),
             f"unattributed = traced wall - setup - sum(self) = "
             f"{traced.wall_s:.4f} - {setup_s:.4f} - "
             f"{sum(self_time.values()):.4f} = {unattributed:+.4f} s",
             "modes.operator_nnz and counting.active_fraction are computed, "
             "not counted"]
    record = {"absent": trace["absent"], "self_s": dict(self_time),
              "total_s": dict(total), "calls": dict(calls),
              "spans": len(spans)}
    return m, record, lines


# --------------------------------------------------------------- provenance

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _grid_shapes(grids):
    try:
        from lnhom.geometry import build_cross_section, reference_geometry
        return [list(build_cross_section(reference_geometry(gap), WAVELENGTH_NM,
                                         grid_pitch_nm=pitch).index.shape)
                for gap, pitch in grids]
    except Exception as exc:  # provenance only; the checks do not use it
        return f"unavailable: {exc!r}"


def provenance(name):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "child_threads": THREAD_ENV,
        "commit": _git_commit(),
        "grid_shapes": _grid_shapes(WORKLOADS[name].grids),
    }


# ---------------------------------------------------------------------- main

def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        if trace:
            children, metrics, record, lines = traced_run(name, seed, run_dir,
                                                          deadline)
        else:
            children, metrics, record, lines = timed_run(name, seed, seconds,
                                                         run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = sum(1 for c in children if c.errors)
    record.update(
        workload=name, seed=seed, trace=trace,
        children=[{"wall_s": c.wall_s, "cpu_s": c.cpu_s,
                   "peak_rss_mb": c.peak_rss_mb, "exit_code": c.exit_code,
                   "errors": c.errors, "values": c.values} for c in children],
        metrics=metrics, provenance=provenance(name))
    (WORK / f"last-{name}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"== {name} (seed {seed}, trace {int(trace)}): {WORKLOADS[name].why}")
    print(f"error_rate: {failed}/{len(children)} = "
          f"{failed / len(children):.3f}")
    for c in children:
        for error in c.errors:
            print(f"FAILED: {error}")
    for line in lines:
        print(line)
    print("results: " + json.dumps(children[0].values))
    print("provenance: " + json.dumps(record["provenance"]))
    for key, m in metrics.items():
        print(f"{key:36s} {m['value']:>16.6g} {m['unit']}")
    return len(children), failed, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lnhom" / "cli.py").is_file():
        print(f"bench: no lnhom sources under {SRC}; run from the repository "
              "root", file=sys.stderr)
        return 2
    # children inherit this environment; the parent imports lnhom too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        n, bad, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += n
        failed += bad
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
