import math

import numpy as np
import pytest

from levsqueeze import optimize as opt
from levsqueeze.angular import QuadratureRule
from levsqueeze.errors import ConfigError

FAST_RULE = QuadratureRule(n_theta=32, n_phi=64)


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
