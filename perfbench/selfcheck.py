"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. A synthetic span tree checks the self-time arithmetic of traced.py.
2. BENCHMARK.json must list exactly the per-layer metrics traced.py maps.
3. A reduced-size pass of each workload, untraced and traced, must pass
   every output check and name every metric of BENCHMARK.json with its
   unit. Reduced searches run a budget of 40, too small to reach the
   reference optimum, so only their closed-form checks apply.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import sys

import run
import traced
import workloads


def expect(condition, detail):
    if not condition:
        raise AssertionError(detail)


def span(name, parent, start, end, **attributes):
    return {"name": name, "parent": parent, "start": start, "end": end, **attributes}


def check_span_arithmetic():
    spans = [
        span("cli.main", None, 0.0, 10.0),
        span("squeeze.mode_overlap", 0, 1.0, 4.0),
        span("angular.integrate_sphere", 1, 2.0, 3.0, nodes=8192),
        span("angular.construct", 0, 5.0, 7.0),
        span("angular.integrate_sphere", 3, 5.5, 6.0, nodes=131072),
        span("angular.spherical_basis", 4, 5.6, 5.7),
        span("angular.spherical_basis", 4, 5.65, 5.8),  # overlaps its sibling
        span("angular.construct", 3, 6.2, 6.8),  # nested in a span of its own name
    ]
    expected_self = [5.0, 2.0, 1.0, 0.9, 0.3, 0.1, 0.15, 0.6]
    got = traced.self_times(spans)
    expect(all(math.isclose(g, e, abs_tol=1e-12) for g, e in zip(got, expected_self)), got)

    metrics = traced.pass_metrics([spans])
    expected = {
        "cli.main.self_s": 5.0,
        "squeeze.mode_overlap.calls": 1,
        "squeeze.mode_overlap.s": 3.0,
        "angular.construct.calls": 2,
        "angular.construct.s": 2.0,
        "angular.integrate_sphere.self_s": 1.3,
        "angular.integrate_sphere.nodes": 8192 + 131072,
        "angular.integrate_sphere.nodes_per_call.construct": 131072,
        "angular.integrate_sphere.nodes_per_call.mode_overlap": 8192,
        "angular.integrate_sphere.nodes_per_call.integrated_cross_section": 0,
        "angular.spherical_basis.self_s": 0.25,
        "optimize.evaluations": 0,
    }
    for name, value in expected.items():
        expect(math.isclose(metrics[name], value, abs_tol=1e-12), (name, metrics[name], value))


def check_benchmark_file():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    mapped = [(name, unit, better) for name, unit, better, _ in traced.PER_LAYER]
    expect(listed == mapped, "BENCHMARK.json per_layer differs from traced.PER_LAYER")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "workload names differ")
    return bench


def check_reduced_passes(bench):
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, report = run.measure(workload, seed=1, seconds=0, trace=trace, reduced=True, setup_repeats=1)
            where = f"{workload} --trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
            expect(result["correct"] and result["failed"] == 0, (where, report["failures"]))
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == expected[trace], (where, units))
            for name, metric in result["metrics"].items():
                expect(isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), (where, name))
            print(f"ok: reduced {where}: {len(units)} metrics, {result['attempted']} commands checked")


def main():
    check_span_arithmetic()
    print("ok: span self-time arithmetic")
    bench = check_benchmark_file()
    print("ok: BENCHMARK.json per-layer metrics match traced.PER_LAYER")
    check_reduced_passes(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
