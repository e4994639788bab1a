"""Derivative-free search over beam parameters.

Minimizes the recoil ratio or the phase-optimized sensitivity over a small
parametric family of squeezed beams (numerical aperture, propagation axis,
polarization angle, squeezing phase, optional two-beam superposition
weight): a Latin hypercube scan, then a bounded Nelder-Mead simplex from
its best point. Both are plain numpy and evaluate the same points, in the
same order, as scipy's qmc.LatinHypercube and bounded
minimize(method="Nelder-Mead") do. Geometry is the expensive part: the
overlap xi requires sphere quadrature, while the squeezing phase enters
only through trigonometry, so overlap evaluations are cached by quantized
geometry tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


def latin_hypercube(d: int, n: int, seed: int) -> np.ndarray:
    """n points in [0, 1)^d, one in each of the n strata of every coordinate.

    Draws the jitter first, then one permutation per dimension, from
    default_rng(seed), as scipy.stats.qmc.LatinHypercube(d, seed=seed)
    .random(n) does, so the points are bit-identical to it.
    """
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(size=(n, d))
    strata = np.tile(np.arange(1, n + 1), (d, 1))
    for row in strata:
        rng.shuffle(row)
    return (strata.T - jitter) / n


class _BudgetSpent(Exception):
    """The simplex asked for an evaluation past its budget."""


def _sorted(sim, fsim):
    order = np.argsort(fsim)
    return sim[order], fsim[order]


def nelder_mead(func, x0, lower, upper, maxfev: int, xatol: float, fatol: float):
    """Bounded Nelder-Mead simplex; returns (x, f) of its best vertex.

    Standard coefficients (reflect 1, expand 2, contract 1/2, shrink 1/2),
    every trial point clipped into [lower, upper]. The initial simplex
    steps each coordinate of the clipped x0 by 5 % (0.00025 from zero),
    reflected back below the upper bound. Stops when every vertex lies
    within xatol of the best and every value within fatol, or after maxfev
    calls of func, which receives a copy of each point. This is scipy's
    minimize(method="Nelder-Mead", bounds=..., options={"maxfev", "xatol",
    "fatol"}) step for step: the same points in the same order.
    """
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return func(np.copy(x))

    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts the initial simplex twice; argsort need not keep ties in place
    sim, fsim = _sorted(*_sorted(sim, fsim))

    while calls < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip(2 * xbar - sim[-1], lower, upper)
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], lower, upper)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lower, upper)
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = np.clip(0.5 * xbar + 0.5 * sim[-1], lower, upper)
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lower, upper)
                    fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = _sorted(sim, fsim)
    return sim[0], fsim[0]


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
    for point in lower + latin_hypercube(d, n_scan, seed) * (upper - lower):
        evaluator(point)

    remaining = budget - n_scan
    if remaining > d + 1:
        nelder_mead(
            evaluator, evaluator.best[0], lower, upper, maxfev=remaining, xatol=1e-10, fatol=1e-14
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
