"""Layer tracing for the levsqueeze benchmark.

Run as a script, this file stands in for the `levsqueeze` command. It
imports `levsqueeze.cli`, wraps each function in `TRACED` under every name
a module of the package holds it by (the CLI calls `write_csv` and
`run_optimize`, `scatter` its own `integrate_sphere`, `squeeze` its own
`overlap`), runs the CLI, and writes the recorded spans as JSON:

    python3 perfbench/traced.py SPANS.json COMMAND_ID -- [levsqueeze arguments]

Spans stay in memory until the command ends. Imported, the module provides
the span arithmetic that turns the spans of one pass into per-layer metrics;
it imports nothing from the package then.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict


def _nodes(args, result):
    return {"nodes": args["rule"].n_theta * args["rule"].n_phi}


def _points(args, result):
    return {"points": args["n_theta"] * args["n_phi"]}


def _csv_size(args, result):
    return {"bytes": os.path.getsize(args["path"]), "rows": len(args["rows"])}


def _evaluations(args, result):
    return {"evaluations": result.evaluations}


# (module, attribute, span name, attributes recorded from arguments and result)
TRACED = (
    ("angular", "spherical_basis", "angular.spherical_basis", None),
    ("angular", "QuadratureRule.nodes", "angular.QuadratureRule.nodes", None),
    ("angular", "integrate_sphere", "angular.integrate_sphere", _nodes),
    ("angular", "make_gaussian_beam", "angular.construct", None),
    ("angular", "make_motion_distribution", "angular.construct", None),
    ("angular", "make_libration_distribution", "angular.construct", None),
    ("angular", "superpose", "angular.construct", None),
    ("squeeze", "mode_overlap", "squeeze.mode_overlap", None),
    ("squeeze", "recoil_sweep", "squeeze.recoil_sweep", None),
    ("scatter", "irp_grid", "scatter.irp_grid", _points),
    ("scatter", "integrated_cross_section", "scatter.integrated_cross_section", None),
    ("detect", "sensitivity_heatmap", "detect.sensitivity_heatmap", None),
    ("detect", "sensitivity_curve", "detect.sensitivity_curve", None),
    ("detect", "wigner_grid", "detect.wigner_grid", None),
    ("detect", "s_min_opt_u", "detect.s_min_opt_u", None),
    ("optimize", "optimize", "optimize.optimize", _evaluations),
    ("io", "write_csv", "io.write_csv", _csv_size),
    ("io", "write_json", "io.write_json", None),
    ("physics", "derived_report", "physics.derived_report", None),
)

# Callers of integrate_sphere whose node counts are reported apart: the
# normalisation integral of a constructor, an overlap, and the IRP total.
NODE_CALLERS = ("construct", "mode_overlap", "integrated_cross_section")

# Per-layer metrics: name, unit, better, and the end-to-end metric and
# workload each one should move.
PER_LAYER = (
    ("cli.import_s", "s", "lower", "setup_s and command_s_p50 on figures"),
    ("cli.main.self_s", "s", "lower", "command_s_p50 on figures"),
    ("angular.spherical_basis.calls", "count", "lower", "workload_s on search; none on figures"),
    ("angular.spherical_basis.self_s", "s", "lower", "workload_s on search and fine-quad; none on figures"),
    ("angular.QuadratureRule.nodes.calls", "count", "lower", "workload_s on search; none on figures"),
    ("angular.QuadratureRule.nodes.self_s", "s", "lower", "workload_s on search and fine-quad; none on figures"),
    ("angular.integrate_sphere.calls", "count", "lower", "workload_s on search; none on figures"),
    ("angular.integrate_sphere.self_s", "s", "lower", "workload_s on fine-quad (per node) and search"),
    ("angular.integrate_sphere.nodes", "count", "lower", "workload_s and peak_rss_mb on fine-quad"),
    ("angular.integrate_sphere.nodes_per_call.construct", "count", "lower", "workload_s on fine-quad"),
    ("angular.integrate_sphere.nodes_per_call.mode_overlap", "count", "lower", "workload_s on fine-quad"),
    ("angular.integrate_sphere.nodes_per_call.integrated_cross_section", "count", "lower", "workload_s on fine-quad"),
    ("angular.construct.calls", "count", "lower", "workload_s on search"),
    ("angular.construct.s", "s", "lower", "workload_s on search and fine-quad; none on figures"),
    ("squeeze.mode_overlap.calls", "count", "lower", "workload_s on search"),
    ("squeeze.mode_overlap.s", "s", "lower", "workload_s on search and fine-quad"),
    ("squeeze.recoil_sweep.s", "s", "lower", "workload_s on fine-quad"),
    ("scatter.irp_grid.s", "s", "lower", "workload_s on fine-quad, command_s_tail on figures"),
    ("scatter.irp_grid.points", "count", "lower", "workload_s and peak_rss_mb on fine-quad"),
    ("scatter.integrated_cross_section.s", "s", "lower", "workload_s on fine-quad, command_s_tail on figures"),
    ("detect.sensitivity_heatmap.s", "s", "lower", "command_s_p50 on figures"),
    ("detect.sensitivity_curve.s", "s", "lower", "command_s_p50 on figures"),
    ("detect.wigner_grid.s", "s", "lower", "command_s_p50 on figures"),
    ("detect.s_min_opt_u.calls", "count", "lower", "command_s_p50 on figures, workload_s on search"),
    ("optimize.optimize.s", "s", "lower", "workload_s on search only"),
    ("optimize.evaluations", "count", "lower", "workload_s on search only"),
    ("optimize.overlap_cache_hit_ratio", "ratio", "higher", "workload_s on search only"),
    ("optimize.s_per_eval", "s", "lower", "workload_s on search only"),
    ("io.write_csv.s", "s", "lower", "workload_s on fine-quad, command_s_p50 on figures"),
    ("io.write_csv.bytes", "B", "lower", "workload_s on fine-quad, command_s_p50 on figures"),
    ("io.write_csv.rows", "count", "lower", "workload_s on fine-quad, command_s_p50 on figures"),
    ("io.write_csv.mb_per_s", "MB/s", "higher", "workload_s on fine-quad, command_s_p50 on figures"),
    ("io.write_json.s", "s", "lower", "command_s_p50 on figures"),
    ("physics.derived_report.s", "s", "lower", "command_s_p50 on figures (negligible)"),
)


# --- span arithmetic ------------------------------------------------------


def _union_length(intervals):
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = [
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in children[index]
        ]
        result.append(span["end"] - span["start"] - _union_length([c for c in covered if c[1] > c[0]]))
    return result


def _ancestors(spans, index):
    parent = spans[index]["parent"]
    while parent is not None:
        yield spans[parent]["name"]
        parent = spans[parent]["parent"]


def pass_metrics(commands):
    """Per-layer metrics of one pass, given the span lists of its commands.

    `<name>.calls` counts spans, `<name>.self_s` sums self times and
    `<name>.s` sums the durations of spans not nested in a span of the same
    name. Layers the pass never entered read 0.
    """
    totals = defaultdict(float)
    imports = []
    for spans in commands:
        for index, (span, own) in enumerate(zip(spans, self_times(spans))):
            name = span["name"]
            ancestors = set(_ancestors(spans, index))
            totals[name + ".calls"] += 1
            totals[name + ".self_s"] += own
            if name not in ancestors:
                totals[name + ".s"] += span["end"] - span["start"]
            for key in ("nodes", "points", "bytes", "rows", "evaluations"):
                if key in span:
                    totals[name + "." + key] += span[key]
            if name == "cli.import":
                imports.append(span["end"] - span["start"])
            if name == "angular.integrate_sphere" and span["parent"] is not None:
                caller = spans[span["parent"]]["name"].rsplit(".", 1)[-1]
                totals["nodes." + caller] += span["nodes"]
                totals["calls." + caller] += 1
            if name == "squeeze.mode_overlap" and "optimize.optimize" in ancestors:
                totals["optimize.mode_overlap.calls"] += 1

    metrics = dict(totals)
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for caller in NODE_CALLERS:
        calls = totals["calls." + caller]
        metrics["angular.integrate_sphere.nodes_per_call." + caller] = totals["nodes." + caller] / calls if calls else 0.0
    evaluations = totals["optimize.optimize.evaluations"]
    metrics["optimize.evaluations"] = evaluations
    if evaluations:
        metrics["optimize.overlap_cache_hit_ratio"] = 1.0 - totals["optimize.mode_overlap.calls"] / evaluations
        metrics["optimize.s_per_eval"] = totals["optimize.optimize.s"] / evaluations
    write_s = totals["io.write_csv.s"]
    metrics["io.write_csv.mb_per_s"] = totals["io.write_csv.bytes"] / 1e6 / write_s if write_s else 0.0
    return {name: metrics.get(name, 0.0) for name, *_ in PER_LAYER}


# --- the traced command ---------------------------------------------------


class Recorder:
    """Spans of one command: name, start, end, index of the parent span."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, attributes=None):
        signature = inspect.signature(fn) if attributes else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if attributes:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(attributes(bound.arguments, result))
            return result

        return traced


def install(recorder):
    """Wrap every TRACED function under each name the package binds it to."""
    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "levsqueeze"]
    for module, attribute, name, attributes in TRACED:
        owner = sys.modules["levsqueeze." + module]
        *classes, attribute = attribute.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attribute)
        wrapped = recorder.wrap(name, original, attributes)
        setattr(owner, attribute, wrapped)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv):
    spans_path, command_id, separator, *args = argv
    if separator != "--":
        raise SystemExit("usage: traced.py SPANS.json COMMAND_ID -- [levsqueeze arguments]")
    recorder = Recorder()
    start = time.perf_counter()
    import levsqueeze.cli

    recorder.spans.append({"name": "cli.import", "parent": None, "start": start, "end": time.perf_counter()})
    install(recorder)
    try:
        code = recorder.wrap("cli.main", levsqueeze.cli.main)(args)
    finally:
        with open(spans_path, "w") as handle:
            json.dump({"command": command_id, "spans": recorder.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
