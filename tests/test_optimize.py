import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levsqueeze import optimize as opt
from levsqueeze.angular import QuadratureRule, gaussian_overlap
from levsqueeze.errors import ConfigError
from levsqueeze.squeeze import OverlapResult

FAST_RULE = QuadratureRule(n_theta=32, n_phi=64)
ROOT = Path(__file__).resolve().parents[1]


def beam_overlap(kind, axis, beam):
    """The exact overlap of the make_beam beam of parameters `beam`."""
    return OverlapResult(xi=gaussian_overlap(kind, axis, **beam))


def phase_problem(objective="recoil_ratio", phi=0.0):
    """An na search at a fixed phase offset; |xi| grows with na."""
    return opt.OptimizationProblem(
        objective=objective,
        mode_kind="motion",
        mode_axis="z",
        r_s=1.0,
        free={"na": (0.3, 0.9)},
        fixed={"phi": phi},
        rule=FAST_RULE,
    )


def problem(free, fixed=None, **kwargs):
    spec = dict(objective="recoil_ratio", mode_kind="motion", mode_axis="z", r_s=1.0, rule=FAST_RULE)
    return opt.OptimizationProblem(free=free, fixed=fixed or {}, **{**spec, **kwargs})


def test_problem_validation():
    for kwargs in (
        dict(objective="nope", free={"na": (0.1, 0.9)}),
        dict(free={}),
        dict(free={"na": (0.9, 0.1)}),
        dict(free={"phi": (0.0, 1.0)}),
        dict(free={"polarization": (0.0, 1.0)}),
        dict(free={"na": (0.3, 0.9)}, fixed={"nope": 1.0}),
    ):
        with pytest.raises(ConfigError):
            problem(**kwargs)


@pytest.mark.parametrize(
    "free, fixed, named",
    [
        ({"na": (0.3, 0.9)}, {"na": 0.5}, "both free and fixed"),
        ({"na": (0.5, 1.5)}, {}, "upper bound 1.5 of 'na'"),
        ({"na": (0.0, 0.5)}, {}, "lower bound 0.0 of 'na'"),
        ({"weight": (-0.1, 0.5)}, {}, "lower bound -0.1 of 'weight'"),
        ({"na": (0.3, 0.9)}, {"weight": 2.0}, "fixed value 2.0 of 'weight'"),
        ({"axis_theta": (0.0, 1.0)}, {"na": 1.5}, "fixed value 1.5 of 'na'"),
    ],
)
def test_problem_rejects_names_and_bounds_before_evaluating(free, fixed, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        problem(free, fixed)


def test_budget_validation():
    with pytest.raises(ConfigError):
        opt.optimize(phase_problem(), budget=2)
    with pytest.raises(ConfigError):
        opt.optimize(problem({"na": (0.3, 0.9), "axis_theta": (0.0, np.pi)}), budget=8)


def test_phase_only_finds_closed_form_optimum():
    # at phi = 0 the squeezed quadrature heats least, so the largest |xi|
    # (na = 0.9) wins; at phi = pi the smallest (na = 0.3) does
    for phi, na in ((0.0, 0.9), (np.pi, 0.3)):
        result = opt.optimize(phase_problem(phi=phi), budget=120)
        assert result.best_params == {"na": na}
        m2 = result.xi_modulus**2
        bracket = 1.0 - math.exp(2.0) * math.sin(phi / 2.0) ** 2 - math.exp(-2.0) * math.cos(phi / 2.0) ** 2
        expected = 1.0 - m2 * bracket
        assert result.best_value == pytest.approx(expected, rel=1e-12)


def test_determinism():
    a = opt.optimize(phase_problem(), budget=80)
    b = opt.optimize(phase_problem(), budget=80)
    assert a.best_params == b.best_params
    assert a.best_value == b.best_value
    assert a.trace == b.trace


def reproduce(problem, result):
    """The objective at the reported best parameters, from the exact overlap."""
    evaluator = opt._Evaluator(problem)
    params = {**evaluator.params(), **result.best_params}
    xi = beam_overlap(problem.mode_kind, problem.mode_axis, evaluator.beam(params))
    return evaluator.value(xi, params["phi"])


def test_best_not_worse_than_trace():
    three = problem({"na": (0.1, 0.95), "weight": (0.0, 1.0), "axis_theta": (0.0, np.pi)}, {"phi": 0.0})
    for prob, budget in ((phase_problem(), 80), (three, 40)):
        result = opt.optimize(prob, budget=budget)
        assert result.best_value == min(result.trace)
        assert result.evaluations == len(result.trace) <= budget
        assert reproduce(prob, result) == result.best_value


def test_na_scan_monotone():
    prob = problem({"na": (0.1, 0.95)}, {"phi": 0.0}, r_s=1.7269)
    evaluator = opt._Evaluator(prob)
    values = [evaluator([na]) for na in np.linspace(0.1, 0.95, 9)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_na_overlap_ordering():
    # tighter focusing monotonically improves the overlap with z-motion
    evaluator = opt._Evaluator(phase_problem())
    moduli = [
        beam_overlap("motion", "z", evaluator.beam(evaluator.params([na]))).modulus for na in (0.3, 0.5, 0.7, 0.9)
    ]
    assert moduli == sorted(moduli)


def test_phase_scan_extrema():
    phases = np.linspace(0.0, 2.0 * np.pi, 9)
    values = [opt.optimize(phase_problem(phi=phi), budget=40).best_value for phi in phases]
    assert np.argmin(values) in (0, 8)
    assert np.argmax(values) == 4  # phi = pi


def test_two_beam_superposition_not_worse():
    fixed = {"phi": 0.0, "axis_theta": 0.0}
    kwargs = dict(mode_kind="libration", mode_axis="y")
    single = opt.optimize(problem({"na": (0.3, 0.9)}, fixed, **kwargs), budget=60)
    both = opt.optimize(problem({"na": (0.3, 0.9), "weight": (0.0, 0.9)}, fixed, **kwargs), budget=200)
    assert both.best_value <= single.best_value + 1e-9


def test_sensitivity_objective_runs():
    result = opt.optimize(phase_problem("s_min_opt", phi=1.5 * np.pi), budget=80)
    assert 0.0 < result.best_value <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "mode_axis, free, phi",
    [
        # three outer dimensions; the best axis is off every Cartesian axis
        ("x", {"na": (0.3, 0.9), "axis_theta": (0.0, np.pi), "axis_phi": (0.0, 2.0 * np.pi),
               "polarization_angle": (0.0, np.pi)}, 0.0),
        # anti-squeezing: the smallest |xi| of the box wins, and it is not 0
        ("z", {"na": (0.5, 0.9), "axis_theta": (2.5, np.pi), "polarization_angle": (0.0, 1.0),
               "weight": (0.0, 0.3)}, np.pi),
    ],
)
def test_not_beaten_by_a_dense_sample(mode_axis, free, phi):
    prob = problem(free, {"phi": phi}, mode_axis=mode_axis)
    result = opt.optimize(prob, budget=400)
    assert reproduce(prob, result) == result.best_value
    evaluator = opt._Evaluator(prob)
    rng = np.random.default_rng(0)
    lower, upper = np.array(list(free.values())).T
    for x in lower + rng.random((2000, len(free))) * (upper - lower):
        params = {**evaluator.params(), **dict(zip(free, x))}
        xi = beam_overlap("motion", mode_axis, evaluator.beam(params))
        assert evaluator.value(xi, phi) >= result.best_value - 1e-12


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


def test_cli_import_builds_no_polynomial_module_and_no_csv_tables():
    # both are paid on first use, not by every command's start-up
    proc = run_python(
        "import sys, levsqueeze.cli, levsqueeze.io as io\n"
        "print(sorted(k for k in sys.modules if k.startswith('numpy.polynomial')), io._tables.cache_info().currsize)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "0"]


def test_cli_neither_imports_nor_needs_scipy(tmp_path):
    proc = run_python(
        "import sys, levsqueeze.cli; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

    out = tmp_path / "out"
    proc = run_python(
        "import sys; sys.modules['scipy'] = None\n"
        "from levsqueeze.cli import main\n"
        "sys.exit(main(['--out', sys.argv[1], '--quad', '16x32', '--seed', '1', 'optimize',\n"
        "               '--free', 'na=0.1:0.95', '--free', 'axis_theta=0:pi', '--fixed', 'phi=0',\n"
        "               '--budget', '40']))",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((out / "optimize_result.json").read_text())
    trace = (out / "optimize_trace.csv").read_text().splitlines()
    assert 0 < result["evaluations"] == len(trace) - 1 <= 40
    lowest = min(float(line.split(",")[1]) for line in trace[1:])
    assert result["best_value"] == pytest.approx(lowest, rel=1e-11)
    assert (out / "optimize_config.json").exists()
