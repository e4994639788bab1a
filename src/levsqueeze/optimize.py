"""Derivative-free search over beam parameters.

Minimizes the recoil ratio or the phase-optimized sensitivity over a small
parametric family of squeezed beams (numerical aperture, propagation axis,
polarization angle, squeezing phase, optional two-beam superposition
weight). Geometry is the expensive part: the overlap xi requires sphere
quadrature, while the squeezing phase enters only through trigonometry, so
overlap evaluations are cached by quantized geometry tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as sopt
from scipy.stats import qmc

from .angular import DEFAULT_RULE, QuadratureRule, make_beam, make_mode
from .detect import low_frequency_susceptibility, s_min_opt_u
from .errors import ConfigError
from .squeeze import OverlapResult, SqueezeParams, input_spectra, mode_overlap, recoil_ratio

GEOMETRY_PARAMETERS = ("na", "axis_theta", "axis_phi", "polarization_angle", "weight")
PHASE_PARAMETER = "phi"
SUPPORTED_PARAMETERS = GEOMETRY_PARAMETERS + (PHASE_PARAMETER,)
CACHE_QUANTUM = 1e-12

OBJECTIVES = ("recoil_ratio", "s_min_opt")


@dataclass
class OptimizationProblem:
    """Search specification.

    free: parameter name -> (lower, upper) bounds. fixed: values for the
    parameters not searched. phi is the phase offset phi_s - 2 arg(xi);
    weight in [0, 1] mixes the primary beam with one counter-propagating
    along the same axis (0 = primary only).
    """

    objective: str
    mode_kind: str  # "motion" or "libration"
    mode_axis: str
    r_s: float
    free: dict
    fixed: dict = field(default_factory=dict)
    rule: QuadratureRule = DEFAULT_RULE

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}")
        if not self.free:
            raise ConfigError("at least one free parameter is required")
        for name, bounds in self.free.items():
            if name not in SUPPORTED_PARAMETERS:
                raise ConfigError(f"unknown parameter {name!r}")
            lo, hi = bounds
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ConfigError(f"bounds for {name!r} must be finite with lo < hi")
        for name in self.fixed:
            if name not in SUPPORTED_PARAMETERS:
                raise ConfigError(f"unknown parameter {name!r}")
        if self.r_s < 0:
            raise ConfigError("squeezing degree must be non-negative")

    @property
    def names(self):
        return tuple(sorted(self.free))

    @property
    def dimension(self):
        return len(self.free)


@dataclass
class OptimizationResult:
    best_params: dict
    best_value: float
    xi_modulus: float
    evaluations: int
    trace: list  # objective value per evaluation, in order


class _Evaluator:
    """Objective with a geometry-level overlap cache."""

    def __init__(self, problem: OptimizationProblem):
        self.problem = problem
        self.mode = make_mode(problem.mode_kind, problem.mode_axis, rule=problem.rule)
        self.chi = low_frequency_susceptibility(1.0)
        self._cache = {}
        self.count = 0
        self.trace = []
        self.best = None  # (x, value) of the lowest evaluation so far

    def params_from_vector(self, x):
        params = dict(self.problem.fixed)
        for name, value in zip(self.problem.names, x):
            params[name] = float(value)
        params.setdefault("na", 0.5)
        params.setdefault("axis_theta", np.pi)  # default: counter-propagating
        params.setdefault("axis_phi", 0.0)
        params.setdefault("polarization_angle", 0.0)
        params.setdefault("weight", 0.0)
        params.setdefault("phi", 0.0)
        return params

    def _overlap(self, params) -> OverlapResult:
        key = tuple(
            round(params[name] / CACHE_QUANTUM) for name in GEOMETRY_PARAMETERS
        )
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        axis = np.array(
            [
                math.sin(params["axis_theta"]) * math.cos(params["axis_phi"]),
                math.sin(params["axis_theta"]) * math.sin(params["axis_phi"]),
                math.cos(params["axis_theta"]),
            ]
        )
        beam = make_beam(
            na=params["na"],
            axis=axis,
            polarization_angle=params["polarization_angle"],
            weight=params["weight"],
            rule=self.problem.rule,
        )
        result = mode_overlap(beam, self.mode)
        self._cache[key] = result
        return result

    def __call__(self, x):
        params = self.params_from_vector(x)
        xi = self._overlap(params)
        sq = SqueezeParams(r_s=self.problem.r_s, phi_s=params["phi"])
        if self.problem.objective == "recoil_ratio":
            value = recoil_ratio(xi, sq, absolute_phase=False)
        else:
            spectra = input_spectra(xi, sq, absolute_phase=False)
            _, value = s_min_opt_u(spectra, self.chi)
        value = float(value)
        self.count += 1
        self.trace.append(value)
        if self.best is None or value < self.best[1]:
            self.best = (np.array(x, dtype=float), value)
        return value


def optimize(problem: OptimizationProblem, budget: int = 200, seed: int = 0) -> OptimizationResult:
    """Latin-hypercube scan followed by simplex refinement.

    Deterministic for fixed (problem, budget, seed); returns the lowest
    point evaluated, which the simplex may not have accepted when it
    stopped at its evaluation budget.
    """
    d = problem.dimension
    if budget < 10 * d:
        raise ConfigError(f"budget must be at least 10x dimension ({10 * d})")
    evaluator = _Evaluator(problem)
    lower = np.array([problem.free[n][0] for n in problem.names])
    upper = np.array([problem.free[n][1] for n in problem.names])

    n_scan = max(budget // 3, 5 * d)
    sampler = qmc.LatinHypercube(d=d, seed=seed)
    for point in lower + sampler.random(n=n_scan) * (upper - lower):
        evaluator(point)

    remaining = budget - n_scan
    if remaining > d + 1:
        sopt.minimize(
            evaluator,
            evaluator.best[0],
            method="Nelder-Mead",
            bounds=list(zip(lower, upper)),
            options={"maxfev": remaining, "xatol": 1e-10, "fatol": 1e-14},
        )
    x0, best = evaluator.best

    params = evaluator.params_from_vector(x0)
    xi = evaluator._overlap(params)
    return OptimizationResult(
        best_params={n: float(v) for n, v in zip(problem.names, x0)},
        best_value=best,
        xi_modulus=xi.modulus,
        evaluations=evaluator.count,
        trace=evaluator.trace,
    )
