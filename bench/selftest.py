"""Self-test of the benchmark, run from the repository root:

    python3 bench/selftest.py

Checks that tracing does not perturb results: a traced and an untraced CLI
run with the same seed give an identical ``counts.csv`` and the same n_eff
(to the tolerance the benchmark uses, as the eigensolve itself varies in
the last place between processes).  Also checks the self-time arithmetic on
hand-made spans and that an expected name a refactor removed is reported
absent rather than failing.  Small inputs; takes a few seconds.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import tracer

COUNTS = """\
mean_pairs_per_pulse = 0.5
statistics = thermal-pairs
dark_count_probability = 0.001
delay_points = 12
pulses_per_point = 20000
seed = 7
"""

MODES = """\
gap_um = 2.3
grid_pitch_nm = 40
write_fields = true
"""


def cli(work, tag, scenario, config, traced):
    """Run one CLI process; returns its output directory and spans (or None)."""
    out = work / tag
    out.mkdir(parents=True)
    (out / "workload.cfg").write_text(config, encoding="utf-8")
    args = [scenario, "--config", str(out / "workload.cfg"), "--out",
            str(out / "out")]
    spans_path = out / "spans.json"
    cmd = [sys.executable, str(run.TRACER), str(spans_path)] if traced else \
        [sys.executable, "-c",
         "import sys; from lnhom.cli import main; sys.exit(main())"]
    subprocess.run(cmd + args, check=True, cwd=run.ROOT, timeout=120,
                   stdout=subprocess.DEVNULL)
    trace = json.loads(spans_path.read_text()) if traced else None
    return out / "out", trace


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def check_self_time():
    # main [0, 10] > solve [1, 7] > eigsh [2, 6]; main > write [8, 9]
    spans = [[0, None, "cli", "main", 0.0, 10.0, None],
             [1, 0, "modes", "solve_modes", 1.0, 7.0, None],
             [2, 1, "eigsh", "eigsh", 2.0, 6.0, None],
             [3, 0, "io", "write_field_csv", 8.0, 9.0, None],
             [4, 3, "io", "write_field_csv", 8.5, 8.75, None]]
    total, self_time, calls = tracer.layer_times(spans)
    expect(self_time == {"cli": 3.0, "modes": 2.0, "eigsh": 4.0, "io": 1.0},
           "self time is span minus covered child time")
    expect(total["io"] == 1.0 and calls["io"] == 2,
           "nested spans of one layer are timed once and counted twice")
    expect(tracer.name_time(spans, "modes", "solve_modes") == (6.0, 1),
           "one function's time and calls")


def check_absent():
    sys.path.insert(0, str(run.SRC))
    expected = tracer.EXPECTED
    tracer.EXPECTED = {**expected, "modes": expected["modes"] + ("gone",),
                       "no_such_layer": ("f",)}
    layers = tracer.LAYERS
    tracer.LAYERS = layers + ("no_such_layer",)
    try:
        absent = tracer.install(tracer.Tracer())
    finally:
        tracer.EXPECTED, tracer.LAYERS = expected, layers
    expect(absent == ["modes.gone", "no_such_layer.f"],
           "removed names are reported absent, not raised")


def main():
    if not (run.SRC / "lnhom" / "cli.py").is_file():
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(run.SRC), os.environ.get("PYTHONPATH")) if p)
    os.environ.update(run.THREAD_ENV)
    check_self_time()
    work = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plain, _ = cli(work, "counts-plain", "simulate-counts", COUNTS, False)
        traced, trace = cli(work, "counts-traced", "simulate-counts", COUNTS,
                            True)
        expect((plain / "counts.csv").read_bytes()
               == (traced / "counts.csv").read_bytes(),
               "traced counts.csv is byte-identical to the untraced one")
        expect(any(s[3] == "simulate_counts" for s in trace["spans"]),
               "simulate_counts was traced")

        plain, _ = cli(work, "modes-plain", "modes", MODES, False)
        traced, trace = cli(work, "modes-traced", "modes", MODES, True)
        a = run._report_values(plain / "report.txt")
        b = run._report_values(traced / "report.txt")
        for key in ("mode_0_n_eff", "mode_1_n_eff"):
            x, y = float(a[key]), float(b[key])
            expect(abs(x - y) <= run.STABLE_RTOL * abs(x),
                   f"traced {key} {y!r} matches untraced {x!r}")
        names = {s[3] for s in trace["spans"]}
        expect({"main", "build_cross_section", "solve_modes", "eigsh",
                "write_mode_field_csv", "write_field_csv"} <= names,
               "every layer boundary of the modes run was traced")
        expect(trace["absent"] == [], "no expected name is absent")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_absent()
    return 0


if __name__ == "__main__":
    sys.exit(main())
