"""Squeezing-modified recoil heating and the input spectra behind it.

The central object is the overlap xi of the squeezed beam profile with a
mechanical mode's pattern: checked_overlap gives it exactly for a Gaussian
beam, with its quadrature error. Everything downstream is input_spectra, one
closed form in (|xi|^2, r, Phi): the recoil ratio is its sxx, and detection
and the Wigner data read all three spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import (
    AngularDistribution,
    DEFAULT_RULE,
    QuadratureRule,
    gaussian_overlap,
    make_beam,
    make_mode,
    overlap,
)
from .errors import ConfigError, NumericalFailure

OVERLAP_BOUND_TOLERANCE = 1e-10
UNCERTAINTY_SLACK = 1e-10


@dataclass(frozen=True)
class SqueezeParams:
    """Degree and phase of the squeezed input, flat over the mechanical band."""

    r_s: float
    phi_s: float = 0.0

    def __post_init__(self):
        if self.r_s < 0:
            raise ConfigError("squeezing degree r_s must be non-negative")
        object.__setattr__(self, "phi_s", float(self.phi_s) % (2.0 * np.pi))


class OverlapBoundError(ConfigError):
    """An overlap modulus above 1; `xi` holds the overlap."""

    def __init__(self, xi):
        super().__init__(f"overlap modulus {abs(xi):.6g} exceeds 1")
        self.xi = xi


@dataclass(frozen=True)
class OverlapResult:
    """Complex overlap between beam and mode pattern."""

    xi: complex

    def __post_init__(self):
        if abs(self.xi) > 1.0 + OVERLAP_BOUND_TOLERANCE:
            raise OverlapBoundError(self.xi)

    @property
    def modulus(self):
        return abs(self.xi)

    @property
    def phase(self):
        return float(np.angle(self.xi))


def db_to_r(db: float) -> float:
    """Convert a squeezing level in dB to the dimensionless degree r."""
    if db < 0:
        raise ConfigError("squeezing level in dB must be non-negative")
    return db * math.log(10.0) / 20.0


def _bounded(xi: complex) -> OverlapResult:
    # rounding can push |xi| epsilon past 1; clamp within tolerance
    m = abs(xi)
    if 1.0 < m <= 1.0 + OVERLAP_BOUND_TOLERANCE:
        xi = xi / m
    return OverlapResult(xi=complex(xi))


def mode_overlap(beam: AngularDistribution, mode: AngularDistribution, rule=DEFAULT_RULE) -> OverlapResult:
    """Overlap of the beam with a mode pattern, no conjugation, integrated
    on `rule`."""
    return _bounded(overlap(beam, mode, rule))


def checked_overlap(kind: str, axis: str, beam: dict, rule: QuadratureRule) -> tuple[OverlapResult, float]:
    """The exact overlap xi of make_beam(**beam) with make_mode(kind, axis),
    and its quadrature error: the distance of their mode_overlap on `rule`,
    which a rule too coarse for the beam may integrate to above 1."""
    xi = _bounded(gaussian_overlap(kind, axis, **beam))
    try:
        integral = mode_overlap(make_beam(**beam), make_mode(kind, axis), rule).xi
    except OverlapBoundError as exc:
        integral = exc.xi
    return xi, abs(xi.xi - integral)


def relative_phase(xi: OverlapResult, sq: SqueezeParams, absolute_phase=True) -> float:
    """The physically meaningful phase Phi = phi_s - 2 arg(xi).

    With absolute_phase=False, sq.phi_s is already the offset Phi.
    """
    if absolute_phase:
        return (sq.phi_s - 2.0 * xi.phase) % (2.0 * np.pi)
    return sq.phi_s % (2.0 * np.pi)


@dataclass(frozen=True)
class InputSpectra:
    """Quadrature spectra of the interacting input mode (times 2 pi, so the
    vacuum level is exactly 1)."""

    sxx: float
    syy: float
    scross: float
    determinant: float  # det S in closed form, from |xi| and r

    def __post_init__(self):
        terms = {
            "sxx": self.sxx,
            "syy": self.syy,
            "scross": self.scross,
            "det": self.determinant,
            "sxx*syy": self.sxx * self.syy,
            "scross^2": self.scross * self.scross,
        }
        if not all(map(math.isfinite, terms.values())):
            named = ", ".join(f"{name} = {value:.12g}" for name, value in terms.items())
            raise NumericalFailure(f"input spectra overflow double precision: {named}")
        det = terms["sxx*syy"] - terms["scross^2"]
        # The product of rounded spectra equals the closed form only to a few
        # roundings of the terms it subtracts; the closed form carries the
        # bound.
        rounding = 16.0 * np.finfo(float).eps * (terms["sxx*syy"] + terms["scross^2"] + self.determinant)
        physical = self.determinant >= 1.0 - UNCERTAINTY_SLACK and abs(det - self.determinant) <= rounding
        if not physical:
            raise NumericalFailure(
                f"input spectra violate the uncertainty bound (det = {det:.12g})"
            )

    @property
    def uncertainty_determinant(self):
        return self.sxx * self.syy - self.scross * self.scross


def input_spectra(xi: OverlapResult, sq: SqueezeParams, absolute_phase=True) -> InputSpectra:
    """Quadrature spectra of the interacting input mode at offset Phi.

    sxx = (1 - |xi|^2) + |xi|^2 [e^{-2r} + 2 sinh(2r) sin^2(Phi/2)], which
    equals (1 - |xi|^2) + |xi|^2 [e^{2r} sin^2(Phi/2) + e^{-2r} cos^2(Phi/2)],
    is the recoil heating ratio Gamma/Gamma0; syy swaps sin and cos, and
    scross = -|xi|^2 sinh(2r) sin Phi. Sums of non-negative terms keep full
    relative precision at any squeezing degree, and the bracket is exactly 1
    without squeezing.
    """
    phi = relative_phase(xi, sq, absolute_phase)
    m2 = xi.modulus**2
    sinh2r = math.sinh(2.0 * sq.r_s)
    shrink = math.exp(-2.0 * sq.r_s)
    return InputSpectra(
        sxx=(1.0 - m2) + m2 * (shrink + 2.0 * sinh2r * math.sin(phi / 2.0) ** 2),
        syy=(1.0 - m2) + m2 * (shrink + 2.0 * sinh2r * math.cos(phi / 2.0) ** 2),
        scross=-m2 * sinh2r * math.sin(phi),
        determinant=spectra_determinant(xi, sq.r_s),
    )


def pure_spectra(r_s: float, phase: float) -> InputSpectra:
    """The |xi| = 1 input spectra at offset `phase`: those of the squeezed
    mode itself."""
    return input_spectra(OverlapResult(xi=1.0), SqueezeParams(r_s=r_s, phi_s=phase), absolute_phase=False)


def spectra_determinant(xi: OverlapResult, r_s: float) -> float:
    """det S = sxx syy - scross^2 in closed form,
    (1 - |xi|^2)^2 + 2 (1 - |xi|^2) |xi|^2 cosh 2r + |xi|^4: a sum of
    non-negative terms, exactly 1 for |xi| = 1, where the product of the
    rounded spectra cancels at high squeezing."""
    m2 = xi.modulus**2
    return (1.0 - m2) ** 2 + 2.0 * (1.0 - m2) * m2 * math.cosh(2.0 * r_s) + m2**2


def recoil_ratio(xi: OverlapResult, sq: SqueezeParams, absolute_phase=True) -> float:
    """Heating-rate ratio Gamma/Gamma0 of one mechanical mode, the sxx of
    its input spectra."""
    return input_spectra(xi, sq, absolute_phase).sxx


def recoil_sweep(
    beams: dict[str, dict] | None,
    axis: str,
    db_values,
    phi: float = 0.0,
    kind: str = "motion",
    include_perfect: bool = True,
    rule: QuadratureRule = DEFAULT_RULE,
    absolute_phase: bool = False,
):
    """Recoil ratio versus squeezing level in dB for one or more beams.

    beams maps column label -> make_beam parameter dict (na, axis,
    polarization_angle, weight). phi is the phase offset
    Phi = phi_s - 2 psi by default (absolute_phase=False). Each beam's
    overlap is exact, with its quadrature error on `rule` reported beside
    it (checked_overlap). Returns (header, rows, overlaps, errors): the
    recoil.csv table, one r_db row per dB value, and per column its overlap
    and quadrature error.
    """
    make_mode(kind, axis)  # checks the mode, which the |xi| = 1 column alone does not read
    columns = []
    errors = {}
    if include_perfect:
        columns.append(("ratio_perfect", OverlapResult(xi=1.0 + 0.0j)))
    for label, params in (beams or {}).items():
        res, errors[f"ratio_{label}"] = checked_overlap(kind, axis, params, rule)
        columns.append((f"ratio_{label}", res))

    header = ["r_db"] + [name for name, _ in columns]
    rows = []
    for db in db_values:
        sq = SqueezeParams(r_s=db_to_r(db), phi_s=phi)
        row = [float(db)]
        for _, res in columns:
            row.append(recoil_ratio(res, sq, absolute_phase=absolute_phase))
        rows.append(row)
    return header, rows, {name: res.xi for name, res in columns}, errors
