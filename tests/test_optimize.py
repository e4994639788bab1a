import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levsqueeze import optimize as opt
from levsqueeze.angular import QuadratureRule
from levsqueeze.errors import ConfigError

FAST_RULE = QuadratureRule(n_theta=32, n_phi=64)
ROOT = Path(__file__).resolve().parents[1]


def phase_problem(objective="recoil_ratio"):
    return opt.OptimizationProblem(
        objective=objective,
        mode_kind="motion",
        mode_axis="z",
        r_s=1.0,
        free={"phi": (0.0, 2.0 * np.pi)},
        fixed={"na": 0.9},
        rule=FAST_RULE,
    )


def test_problem_validation():
    with pytest.raises(ConfigError):
        opt.OptimizationProblem(
            objective="nope", mode_kind="motion", mode_axis="z", r_s=1.0,
            free={"phi": (0.0, 1.0)},
        )
    with pytest.raises(ConfigError):
        opt.OptimizationProblem(
            objective="recoil_ratio", mode_kind="motion", mode_axis="z", r_s=1.0,
            free={},
        )
    with pytest.raises(ConfigError):
        opt.OptimizationProblem(
            objective="recoil_ratio", mode_kind="motion", mode_axis="z", r_s=1.0,
            free={"phi": (1.0, 0.0)},
        )


def test_budget_validation():
    with pytest.raises(ConfigError):
        opt.optimize(phase_problem(), budget=5)


def test_phase_only_finds_closed_form_optimum():
    result = opt.optimize(phase_problem(), budget=120, seed=3)
    phi = result.best_params["phi"] % (2.0 * np.pi)
    distance = min(phi, 2.0 * np.pi - phi)
    assert distance < 1e-3
    assert result.best_value == pytest.approx(
        1.0 - result.xi_modulus**2 * (1.0 - math.exp(-2.0)), abs=1e-6
    )


def test_determinism():
    a = opt.optimize(phase_problem(), budget=80, seed=11)
    b = opt.optimize(phase_problem(), budget=80, seed=11)
    assert a.best_params == b.best_params
    assert a.best_value == b.best_value
    assert a.trace == b.trace


def test_best_not_worse_than_trace():
    # the second problem's simplex stops at its budget before accepting its
    # best vertex, 1.9e-4 above the lowest point it evaluated
    stopped = opt.OptimizationProblem(
        objective="recoil_ratio",
        mode_kind="motion",
        mode_axis="z",
        r_s=1.0,
        free={"na": (0.1, 0.95), "weight": (0.0, 1.0), "axis_theta": (0.0, np.pi)},
        fixed={"phi": 0.0},
        rule=FAST_RULE,
    )
    for problem, budget, seed in ((phase_problem(), 80, 5), (stopped, 40, 13)):
        result = opt.optimize(problem, budget=budget, seed=seed)
        assert result.best_value == min(result.trace)
        assert result.evaluations == len(result.trace)
        evaluator = opt._Evaluator(problem)
        assert evaluator([result.best_params[n] for n in problem.names]) == result.best_value


def test_na_scan_monotone():
    problem = opt.OptimizationProblem(
        objective="recoil_ratio",
        mode_kind="motion",
        mode_axis="z",
        r_s=1.7269,
        free={"na": (0.1, 0.95)},
        fixed={"phi": 0.0},
        rule=FAST_RULE,
    )
    evaluator = opt._Evaluator(problem)
    values = [evaluator([na]) for na in np.linspace(0.1, 0.95, 9)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_na_overlap_ordering():
    # tighter focusing monotonically improves the overlap with z-motion
    problem = opt.OptimizationProblem(
        objective="recoil_ratio",
        mode_kind="motion",
        mode_axis="z",
        r_s=1.0,
        free={"na": (0.3, 0.9)},
        fixed={"phi": 0.0},
        rule=FAST_RULE,
    )
    evaluator = opt._Evaluator(problem)
    moduli = [
        evaluator._overlap(evaluator.params_from_vector([na])).modulus
        for na in (0.3, 0.5, 0.7, 0.9)
    ]
    assert moduli == sorted(moduli)


def test_phase_scan_extrema():
    evaluator = opt._Evaluator(phase_problem())
    values = [evaluator([phi]) for phi in np.linspace(0.0, 2.0 * np.pi, 9)]
    assert np.argmin(values) in (0, 8)
    assert np.argmax(values) == 4  # phi = pi


def test_two_beam_superposition_not_worse():
    base = opt.OptimizationProblem(
        objective="recoil_ratio",
        mode_kind="libration",
        mode_axis="y",
        r_s=1.0,
        free={"na": (0.3, 0.9)},
        fixed={"phi": 0.0, "axis_theta": 0.0},
        rule=FAST_RULE,
    )
    single = opt.optimize(base, budget=60, seed=2)
    both = opt.OptimizationProblem(
        objective="recoil_ratio",
        mode_kind="libration",
        mode_axis="y",
        r_s=1.0,
        free={"na": (0.3, 0.9), "weight": (0.0, 0.9)},
        fixed={"phi": 0.0, "axis_theta": 0.0},
        rule=FAST_RULE,
    )
    extended = opt.optimize(both, budget=200, seed=2)
    assert extended.best_value <= single.best_value + 1e-9


def test_sensitivity_objective_runs():
    result = opt.optimize(phase_problem("s_min_opt"), budget=80, seed=1)
    assert 0.0 < result.best_value <= 1.0 + 1e-12


# --- numpy search against scipy, and without it --------------------------


@pytest.mark.parametrize("d, n", [(1, 66), (4, 133), (2, 20), (3, 133), (5, 50)])
def test_latin_hypercube_matches_scipy(d, n):
    qmc = pytest.importorskip("scipy.stats.qmc")
    for seed in (0, 3, 7, 11, 779139965):
        expected = qmc.LatinHypercube(d=d, seed=seed).random(n)
        assert np.array_equal(opt.latin_hypercube(d, n, seed), expected)


def both_simplex_runs(func, x0, lower, upper, maxfev, xatol=1e-10, fatol=1e-14):
    """Evaluated points and final (x, f) of the port, then of scipy's simplex."""
    sopt = pytest.importorskip("scipy.optimize")

    def port(f):
        return opt.nelder_mead(f, x0, lower, upper, maxfev=maxfev, xatol=xatol, fatol=fatol)

    def scipy(f):
        res = sopt.minimize(
            f, x0, method="Nelder-Mead", bounds=list(zip(lower, upper)),
            options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol},
        )
        return res.x, res.fun

    runs = []
    for minimize in (port, scipy):
        points = []
        x, value = minimize(lambda p: points.append(p) or func(p))
        runs.append((np.array(points), x, value))
    return runs


def assert_same_run(port, reference):
    assert port[0].shape == reference[0].shape and np.array_equal(port[0], reference[0])
    assert np.array_equal(port[1], reference[1]) and port[2] == reference[2]


def test_nelder_mead_matches_scipy_at_a_bound():
    # minimum at (1, 0.6) on the upper bound of x; x0 within 5 % of it, so
    # the initial simplex is reflected and trial points are clipped
    lower, upper = np.array([-1.0, -2.0]), np.array([1.0, 2.0])
    x0 = np.array([0.99, -1.5])
    port, reference = both_simplex_runs(
        lambda p: float((p[0] - 1.7) ** 2 + 3.0 * (p[1] - 0.6) ** 2), x0, lower, upper, maxfev=300
    )
    assert_same_run(port, reference)
    points = port[0]
    assert points[1, 0] == 2.0 * upper[0] - (1 + 0.05) * x0[0]  # reflected vertex
    assert np.sum(points[:, 0] == upper[0]) > 1  # clipped trial points
    assert len(points) < 300 and port[1][0] == upper[0]
    # at a corner the vertices collapse onto it exactly, which meets zero
    # tolerances
    port, reference = both_simplex_runs(
        lambda p: float((p[0] - 1.7) ** 2 + 3.0 * (p[1] - 2.5) ** 2), x0, lower, upper,
        maxfev=300, xatol=0.0, fatol=0.0,
    )
    assert_same_run(port, reference)
    assert len(port[0]) < 300 and np.array_equal(port[1], upper)


@pytest.mark.filterwarnings("ignore:Initial guess is not within the specified bounds")
def test_nelder_mead_matches_scipy_at_its_budget():
    lower, upper = np.array([0.0, 0.0, 0.0]), np.array([1.0, 2.0, 3.0])
    x0 = np.array([0.2, 0.0, 3.4])  # clipped into the box first

    def objective(p):
        return float(np.sin(3.0 * p[0]) + (p[1] - 1.1) ** 2 + np.cos(p[0] * p[2]))

    for maxfev in range(5, 60):  # stops inside reflections, expansions and shrinks
        port, reference = both_simplex_runs(objective, x0, lower, upper, maxfev=maxfev)
        assert len(port[0]) == maxfev
        assert_same_run(port, reference)
    # with maxfev given, iterations are not capped at 200 per dimension
    port, reference = both_simplex_runs(
        lambda p: float((p[0] - 0.3) ** 2), np.array([0.9]), np.array([0.0]), np.array([1.0]),
        maxfev=1500, xatol=-1.0, fatol=-1.0,
    )
    assert len(port[0]) == 1500
    assert_same_run(port, reference)


def scipy_search(problem, budget, seed):
    """The search as written on scipy: its Latin hypercube, then its simplex."""
    qmc = pytest.importorskip("scipy.stats.qmc")
    sopt = pytest.importorskip("scipy.optimize")
    evaluator = opt._Evaluator(problem)
    lower = np.array([problem.free[n][0] for n in problem.names])
    upper = np.array([problem.free[n][1] for n in problem.names])
    n_scan = max(budget // 3, 5 * problem.dimension)
    for point in lower + qmc.LatinHypercube(d=problem.dimension, seed=seed).random(n_scan) * (upper - lower):
        evaluator(point)
    sopt.minimize(
        evaluator, evaluator.best[0], method="Nelder-Mead", bounds=list(zip(lower, upper)),
        options={"maxfev": budget - n_scan, "xatol": 1e-10, "fatol": 1e-14},
    )
    return evaluator


def test_search_matches_scipy_at_32x64():
    # the recoil search converges on a corner of the box after 51
    # evaluations; the s_min_opt search stops at its budget
    for objective, phi, evaluations in (("recoil_ratio", 0.0, 51), ("s_min_opt", 0.3, 90)):
        problem = opt.OptimizationProblem(
            objective=objective,
            mode_kind="motion",
            mode_axis="z",
            r_s=1.0,
            free={"na": (0.1, 0.95), "weight": (0.0, 1.0), "axis_theta": (0.0, np.pi)},
            fixed={"phi": phi},
            rule=FAST_RULE,
        )
        result = opt.optimize(problem, budget=90, seed=13)
        reference = scipy_search(problem, budget=90, seed=13)
        assert result.evaluations == reference.count == evaluations
        assert result.trace == reference.trace
        assert result.best_value == reference.best[1]
        assert list(result.best_params.values()) == reference.best[0].tolist()


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


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
