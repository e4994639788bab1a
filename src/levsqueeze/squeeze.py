"""Squeezing-modified recoil heating and the input spectra behind it.

The central object is the overlap xi between the squeezed beam profile and
the angular pattern of a mechanical mode. Everything downstream is one
Gaussian closed form in (|xi|^2, r, Phi), input_spectra: the recoil ratio
is its sxx, and detection and the Wigner data read all three spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import (
    AngularDistribution,
    DEFAULT_RULE,
    QuadratureRule,
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


@dataclass(frozen=True)
class OverlapResult:
    """Complex overlap between beam and mode pattern."""

    xi: complex

    def __post_init__(self):
        if abs(self.xi) > 1.0 + OVERLAP_BOUND_TOLERANCE:
            raise ConfigError(f"overlap modulus {abs(self.xi):.6g} exceeds 1")

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


def mode_overlap(beam: AngularDistribution, mode: AngularDistribution) -> OverlapResult:
    """Overlap of the (normalized) beam with a mode pattern, no conjugation."""
    xi = overlap(beam, mode)
    # quadrature noise can push |xi| epsilon past 1; clamp within tolerance
    m = abs(xi)
    if 1.0 < m <= 1.0 + OVERLAP_BOUND_TOLERANCE:
        xi = xi / m
    return OverlapResult(xi=complex(xi))


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
    determinant: float | None = None  # det S in closed form, where |xi| and r are known

    def __post_init__(self):
        det = self.uncertainty_determinant
        if self.determinant is None:
            physical = det >= 1.0 - UNCERTAINTY_SLACK
        else:
            # The product of rounded spectra is resolved only to a relative
            # precision of the terms it subtracts; the closed form carries
            # the bound.
            physical = (
                self.determinant >= 1.0 - UNCERTAINTY_SLACK
                and abs(det - self.determinant) <= UNCERTAINTY_SLACK * max(1.0, self.sxx * self.syy)
            )
        if not physical:
            raise NumericalFailure(
                f"input spectra violate the uncertainty bound (det = {det:.12g})"
            )

    @property
    def uncertainty_determinant(self):
        return self.sxx * self.syy - self.scross**2


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


def cross_rate(
    xi_a: OverlapResult,
    xi_b: OverlapResult,
    g0_a: float,
    g0_b: float,
    sq: SqueezeParams,
    diagonal: bool = False,
) -> float:
    """Squeezing-mediated rate coupling two mechanical modes, rad/s.

    Gamma_ab = Gamma0 delta_ab
             + 2 sqrt(Gamma0_a Gamma0_b) |xi_a xi_b|
               [s0^2 - s0 c0 cos(phi_s - psi_a - psi_b)]
             = Gamma0 delta_ab + sqrt(Gamma0_a Gamma0_b) |xi_a xi_b| (sxx - 1)

    with sxx of the pure spectra at phase phi_s - psi_a - psi_b. The
    coupling is subtracted before sxx is added, so the diagonal keeps the
    squeezed floor Gamma0 e^{-2r} at full precision.
    """
    if g0_a < 0 or g0_b < 0:
        raise ConfigError("bare recoil rates must be non-negative")
    sxx = pure_spectra(sq.r_s, sq.phi_s - xi_a.phase - xi_b.phase).sxx
    coupling = math.sqrt(g0_a * g0_b) * xi_a.modulus * xi_b.modulus
    return ((g0_a if diagonal else 0.0) - coupling) + coupling * sxx


def recoil_sweep(
    beams: dict[str, dict] | None,
    axis: str,
    r_values,
    phi: float = 0.0,
    kind: str = "motion",
    include_perfect: bool = True,
    rule: QuadratureRule = DEFAULT_RULE,
    absolute_phase: bool = False,
):
    """Recoil ratio versus squeezing degree for one or more beams.

    beams maps column label -> beam parameter dict (na, axis,
    polarization_angle). phi is the phase offset Phi = phi_s - 2 psi by
    default (absolute_phase=False). Returns (header, rows, overlaps).
    """
    mode = make_mode(kind, axis, rule=rule)
    columns = []
    overlaps = {}
    if include_perfect:
        columns.append(("ratio_perfect", OverlapResult(xi=1.0 + 0.0j)))
        overlaps["ratio_perfect"] = 1.0 + 0.0j
    for label, params in (beams or {}).items():
        res = mode_overlap(make_beam(**params, rule=rule), mode)
        columns.append((f"ratio_{label}", res))
        overlaps[f"ratio_{label}"] = res.xi

    header = ["r_s"] + [name for name, _ in columns]
    rows = []
    for r in np.atleast_1d(np.asarray(r_values, dtype=float)):
        sq = SqueezeParams(r_s=float(r), phi_s=phi)
        row = [float(r)]
        for _, res in columns:
            row.append(recoil_ratio(res, sq, absolute_phase=absolute_phase))
        rows.append(row)
    return header, rows, overlaps
