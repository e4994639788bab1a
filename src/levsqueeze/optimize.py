"""Exact, deterministic search over beam parameters.

Minimizes the recoil ratio or the phase-optimized sensitivity, at a fixed
squeezing phase, over Gaussian beams of given numerical aperture,
propagation axis, polarization angle and two-beam superposition weight.
Their overlap is the bilinear form c (sqrt(1 - w), sqrt(w)) R
(cos alpha, sin alpha)^T of angular.overlap_form. Both objectives are
concave in |xi|^2 (the recoil ratio is affine, s_min_opt a geometric mean
of affine terms plus a linear one), so over the polarization and weight box
the best value lies at the smallest or largest |xi|^2, both in closed form
(_inner_extremes). Only (na, axis_theta, axis_phi) are searched, on a grid
of 3 points per free dimension halved around the best point each round,
until the budget is spent or the box is narrower than 1e-10. Nothing is
random. The best xi is also integrated on the problem's rule, and their
distance is the result's quadrature_error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .angular import DEFAULT_RULE, QuadratureRule, check_na, form_overlap, overlap_form
from .detect import low_frequency_susceptibility, s_min_opt_u
from .errors import ConfigError
from .squeeze import OverlapResult, SqueezeParams, checked_overlap, input_spectra, recoil_ratio

OUTER_PARAMETERS = ("na", "axis_theta", "axis_phi")
SEARCHABLE_PARAMETERS = OUTER_PARAMETERS + ("polarization_angle", "weight")
FIXABLE_PARAMETERS = SEARCHABLE_PARAMETERS + ("phi",)
DEFAULTS = {"na": 0.5, "axis_theta": math.pi, "axis_phi": 0.0, "polarization_angle": 0.0, "weight": 0.0, "phi": 0.0}

OBJECTIVES = ("recoil_ratio", "s_min_opt")
# The outer search stops once every free dimension of its box is narrower.
BOX_TOLERANCE = 1e-10


def _check_value(name, value, what):
    if name == "na":
        check_na(value, f"{what} {value} of 'na'")
    if name == "weight" and not 0.0 <= value <= 1.0:
        raise ConfigError(f"{what} {value} of 'weight' lies outside [0, 1]")


@dataclass
class OptimizationProblem:
    """Search specification.

    free: parameter name -> (lower, upper) bounds. fixed: values for the
    parameters not searched. phi is the phase offset phi_s - 2 arg(xi),
    which is never searched; weight in [0, 1] mixes the primary beam with
    one counter-propagating along the same axis (0 = primary only). The
    search uses exact overlaps; `rule` only checks the best one.
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
            if name == "phi":
                raise ConfigError("phi is not searched; give the phase offset with --fixed phi=")
            if name not in SEARCHABLE_PARAMETERS:
                raise ConfigError(f"unknown parameter {name!r}")
            lo, hi = bounds
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ConfigError(f"bounds for {name!r} must be finite with lo < hi")
            _check_value(name, lo, "lower bound")
            _check_value(name, hi, "upper bound")
        for name, value in self.fixed.items():
            if name not in FIXABLE_PARAMETERS:
                raise ConfigError(f"unknown parameter {name!r}")
            if name in self.free:
                raise ConfigError(f"parameter {name!r} is both free and fixed")
            _check_value(name, value, "fixed value")
        if self.r_s < 0:
            raise ConfigError("squeezing degree must be non-negative")

    @property
    def names(self):
        return tuple(sorted(self.free))


@dataclass
class OptimizationResult:
    best_params: dict
    best_value: float
    xi_modulus: float
    evaluations: int
    trace: list  # objective value per evaluation, in order
    quadrature_error: float  # |xi - its integral on the problem's rule| at the best point


def _in_period(t, lo, hi):
    """The t + k pi in [lo, hi] nearest above lo, or None."""
    t = lo + (t - lo) % math.pi
    return t if t <= hi else None


def _inner_extremes(R, alpha, weight):
    """(alpha, w) of the smallest and of the largest f = (a(w)^T R b(alpha))^2,
    a(w) = (sqrt(1 - w), sqrt(w)), b = (cos alpha, sin alpha), over the box
    alpha in [alpha_lo, alpha_hi], w in [w_lo, w_hi] (either may have zero
    width).

    With w = sin^2 beta, f is pi-periodic in alpha and in beta. Inside the
    box its only maximum is the top singular pair of R, taken if some
    alpha and beta congruent to it mod pi lie in the box; f = 0 inside the
    box also reaches an edge. On each edge f is A cos^2(t - t0), stationary
    at t0 and t0 + pi/2; the corners close the list of candidates.
    """
    (a_lo, a_hi), (w_lo, w_hi) = alpha, weight
    b_lo, b_hi = math.asin(math.sqrt(w_lo)), math.asin(math.sqrt(w_hi))

    def weight_at(beta):
        return min(max(math.sin(beta) ** 2, w_lo), w_hi)

    def stationary(h, lo, hi):
        """Where (h . (cos t, sin t))^2 is stationary in [lo, hi], mod pi."""
        t0 = math.atan2(h[1], h[0])
        return [t for t in (_in_period(t0, lo, hi), _in_period(t0 + math.pi / 2.0, lo, hi)) if t is not None]

    points = [(a, w) for a in alpha for w in weight]
    u, _, vt = np.linalg.svd(R)
    a_top = _in_period(math.atan2(vt[0, 1], vt[0, 0]), a_lo, a_hi)
    b_top = _in_period(math.atan2(u[1, 0], u[0, 0]), b_lo, b_hi)
    if a_top is not None and b_top is not None:
        points.append((a_top, weight_at(b_top)))
    for w in weight:
        points += [(t, w) for t in stationary(np.array([math.sqrt(1.0 - w), math.sqrt(w)]) @ R, a_lo, a_hi)]
    for a in alpha:
        points += [(a, weight_at(t)) for t in stationary(R @ np.array([math.cos(a), math.sin(a)]), b_lo, b_hi)]

    a, w = np.array(points).T
    f = (np.stack([np.sqrt(1.0 - w), np.sqrt(w)]) * (R @ np.stack([np.cos(a), np.sin(a)]))).sum(axis=0) ** 2
    return points[int(np.argmin(f))], points[int(np.argmax(f))]


class _Evaluator:
    """Objective of the search, recording every value and the lowest point."""

    def __init__(self, problem: OptimizationProblem):
        self.problem = problem
        self.outer = tuple(n for n in OUTER_PARAMETERS if n in problem.free)
        self.chi = low_frequency_susceptibility(1.0)
        self.trace = []
        self.best = None  # (params, value) of the lowest evaluation so far

    def params(self, outer_point=()) -> dict:
        """Every parameter: the outer point's, then fixed values, then defaults."""
        return {**DEFAULTS, **self.problem.fixed, **dict(zip(self.outer, outer_point))}

    @staticmethod
    def beam(params) -> dict:
        """make_beam parameters of the search parameters."""
        theta, phi = params["axis_theta"], params["axis_phi"]
        return {
            "na": params["na"],
            "axis": (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)),
            "polarization_angle": params["polarization_angle"],
            "weight": params["weight"],
        }

    def value(self, xi: OverlapResult, phi) -> float:
        """The objective at overlap xi and phase offset phi."""
        sq = SqueezeParams(r_s=self.problem.r_s, phi_s=phi)
        if self.problem.objective == "recoil_ratio":
            return float(recoil_ratio(xi, sq, absolute_phase=False))
        return float(s_min_opt_u(input_spectra(xi, sq, absolute_phase=False), self.chi)[1])

    def __call__(self, outer_point) -> float:
        """Lowest objective over polarization and weight at an outer point."""
        params = self.params(outer_point)
        beam = self.beam(params)
        c, R = overlap_form(self.problem.mode_kind, self.problem.mode_axis, beam["na"], beam["axis"])
        box = [self.problem.free.get(n, (params[n], params[n])) for n in ("polarization_angle", "weight")]
        candidates = [
            (self.value(OverlapResult(xi=form_overlap(c, R, a, w)), params["phi"]), (a, w))
            for a, w in _inner_extremes(R, *box)
        ]
        value, (alpha, w) = min(candidates, key=lambda candidate: candidate[0])
        self.trace.append(value)
        if self.best is None or value < self.best[1]:
            self.best = ({**params, "polarization_angle": alpha, "weight": w}, value)
        return value


def _zoom(best, width, lower, upper):
    """The grid (lo, mid, hi) of width `width` centred on `best`, shifted
    to lie within [lower, upper]; the centre is `best` itself when it fits."""
    half = 0.5 * width
    if best - half <= lower:
        return lower, lower + half, lower + width
    if best + half >= upper:
        return upper - width, upper - half, upper
    return best - half, best, best + half


def optimize(problem: OptimizationProblem, budget: int) -> OptimizationResult:
    """Grid search over the free outer parameters, 3 points per dimension,
    halving the box around the best point each round; polarization and
    weight are exact at each point. Deterministic; a point that a later
    grid repeats is not evaluated again."""
    evaluator = _Evaluator(problem)
    first_grid = 3 ** len(evaluator.outer)
    if budget < first_grid:
        raise ConfigError(f"budget must cover the first grid of {first_grid} evaluations")
    bounds = [problem.free[n] for n in evaluator.outer]
    width = [hi - lo for lo, hi in bounds]
    grids = [(lo, lo + 0.5 * w, hi) for (lo, hi), w in zip(bounds, width)]
    seen = set()
    while True:
        for point in itertools.product(*grids):
            if point not in seen and len(seen) < budget:
                seen.add(point)
                evaluator(point)
        width = [0.5 * w for w in width]
        if len(seen) >= budget or all(w < BOX_TOLERANCE for w in width):
            break
        best = evaluator.best[0]
        grids = [_zoom(best[n], w, *b) for n, w, b in zip(evaluator.outer, width, bounds)]

    params, best = evaluator.best
    xi, error = checked_overlap(problem.mode_kind, problem.mode_axis, evaluator.beam(params), problem.rule)
    return OptimizationResult(
        best_params={n: float(params[n]) for n in problem.names},
        best_value=best,
        xi_modulus=xi.modulus,
        evaluations=len(evaluator.trace),
        trace=evaluator.trace,
        quadrature_error=error,
    )
