"""Span tracing of one lnhom CLI process, installed from outside the package.

Run as a script it replaces the ``lnhom`` console entry point:

    python3 bench/tracer.py SPANS.json reproduce-paper --config c.cfg --out d

It imports ``lnhom.cli``, wraps every public function of each layer module
(and the scipy ``eigsh`` that ``lnhom.modes`` imports), rebinds every name
an lnhom module holds for one of them, runs ``lnhom.cli.main`` and, when
that returns, writes the spans it kept in memory to SPANS.json.  Nothing
under ``src/`` changes; the wrappers only record ``time.monotonic()``
before and after each call, so results stay bit-identical.

A span is ``[id, parent_id, layer, name, start, end, attrs]``.  Times are
CLOCK_MONOTONIC seconds, the same clock the parent benchmark reads, so the
parent can place the child's import time and spans on its own timeline.

The second half of the file turns spans into per-layer figures; the parent
imports it without importing lnhom.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "reproduce", "geometry", "modes", "counting", "fock", "hom",
          "fitting", "coupler", "io")
# foreign functions a layer imports; each is traced as a layer of its own, so
# a factorisation that moves out of eigsh into lnhom.modes shows as eigsh
# time falling and modes self time rising
FOREIGN = {"modes": ("eigsh",)}
# names the per-layer metrics are computed from; one a refactor removes is
# reported as absent and its metrics read 0
EXPECTED = {
    "cli": ("main",),
    "reproduce": ("run_reproduction",),
    "geometry": ("build_cross_section",),
    "modes": ("solve_modes", "supermode_coupling_length", "guided_mode_count",
              "eigsh"),
    "counting": ("simulate_counts",),
    "fock": ("pair_number_probabilities",),
    "io": ("write_field_csv",),
}


def _cells(index_map):
    return int(index_map.index.size)


def _counting_attrs(args, result):
    source, detectors = args["source"], args["detectors"]
    pulses = args.get("pulses_per_point") or source.pulses_per_run
    return {"points": len(args["delays_ps"]), "pulses_per_point": int(pulses),
            "mean_pairs_per_pulse": float(source.mean_pairs_per_pulse),
            "statistics": source.statistics,
            "dark_count_probability": float(detectors.dark_count_probability)}


# attributes recorded after a call returns, outside its span
DESCRIBE = {
    ("geometry", "build_cross_section"):
        lambda args, result: {"cells": _cells(result),
                              "shape": list(result.index.shape)},
    ("modes", "solve_modes"):
        lambda args, result: {"cells": _cells(args["index_map"])},
    ("counting", "simulate_counts"): _counting_attrs,
}


class Tracer:
    """Keeps spans in memory; single-threaded, like the CLI it traces."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, layer, name, fn):
        describe = DESCRIBE.get((layer, name))
        if describe is None and layer == "io" and name.startswith("write_"):
            describe = lambda args, result: {"path": str(args["path"])}
        signature = inspect.signature(fn) if describe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(self.spans), self._stack[-1] if self._stack else None,
                      layer, name, time.monotonic(), None, None]
            self.spans.append(record)
            self._stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.monotonic()
                self._stack.pop()
            if describe is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record[6] = describe(bound.arguments, result)
                except Exception as exc:  # a changed signature loses attributes only
                    record[6] = {"describe_error": repr(exc)}
            return result

        return traced


def install(tracer):
    """Wrap the layer functions and rebind every lnhom reference to them.

    Returns the expected names that were not found, as ``layer.name``.
    """
    wrappers = {}
    absent = []
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"lnhom.{layer}")
        except ImportError:
            absent.extend(f"{layer}.{name}" for name in EXPECTED.get(layer, ()))
            continue
        found = set()
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                wrappers[id(obj)] = (obj, tracer.wrap(layer, name, obj))
                found.add(name)
        for name in FOREIGN.get(layer, ()):
            obj = getattr(module, name, None)
            if obj is not None:
                wrappers[id(obj)] = (obj, tracer.wrap(name, name, obj))
                found.add(name)
        absent.extend(f"{layer}.{name}" for name in EXPECTED.get(layer, ())
                      if name not in found)
    for module_name, module in list(sys.modules.items()):
        if module_name != "lnhom" and not module_name.startswith("lnhom."):
            continue
        for name, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
    return absent


def _child_main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import lnhom.cli
    imported = time.monotonic()
    tracer = Tracer()
    absent = install(tracer)
    try:
        return lnhom.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"imported": imported, "absent": absent,
                       "spans": tracer.spans}, handle)


# --------------------------------------------------------------- analysis

def _duration(span):
    return span[5] - span[4]


def layer_times(spans):
    """Per layer: time in its outermost spans, self time and call count.

    Self time is each span's duration minus the time its child spans cover;
    children of one span never overlap because the CLI is single-threaded.
    """
    covered = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            covered[span[1]] += _duration(span)
    by_id = {span[0]: span for span in spans}
    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    for span in spans:
        layer = span[2]
        self_time[layer] += _duration(span) - covered[span[0]]
        calls[layer] += 1
        parent = by_id.get(span[1])
        if parent is None or parent[2] != layer:
            total[layer] += _duration(span)
    return total, self_time, calls


def name_time(spans, layer, name):
    """Total time and call count of one traced function."""
    durations = [_duration(span) for span in spans
                 if span[2] == layer and span[3] == name]
    return sum(durations), len(durations)


def attrs_of(spans, layer, name):
    """Recorded attributes of one traced function, skipping failed records."""
    return [span[6] for span in spans
            if span[2] == layer and span[3] == name and span[6]
            and "describe_error" not in span[6]]


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
