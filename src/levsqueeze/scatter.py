"""Scattering amplitudes, differential cross sections and information
radiation patterns (IRPs) for a mechanical mode illuminated by squeezed
light.

Amplitudes are first-order in the mechanical zero-point motion. The cross
section, wherever it is used the component sum of |f_plus|^2 minus that of
|f_minus|^2, is reported as a dimensionless shape factor, in units of
(2 pi)^3 |alpha0|^2 Gamma0 / c; its integral over the sphere is the exact
ratio Gamma/Gamma0 = sxx (ScatterConfig.ratio). irp_grid builds the IRP
table once, in the shape irp.csv writes: one row per direction of an
equiangular grid, one column per IRP_COLUMNS name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import BLOCK, AngularDistribution, DEFAULT_RULE, QuadratureRule, integrate_sphere, spherical_basis
from .errors import ConfigError
from .squeeze import OverlapResult, SqueezeParams, mode_overlap, pure_spectra, recoil_ratio, relative_phase


@dataclass
class ScatterConfig:
    """Mode pattern + squeezed beam + squeezing parameters.

    phi convention: sq.phi_s is the absolute squeezing phase when
    absolute_phase is True, otherwise the offset phi_s - 2 arg(xi).
    The beam is square-normalized, as every built-in distribution is. xi
    is its overlap with the mode: given (e.g. the exact
    squeeze.checked_overlap of a Gaussian beam), or integrated on `rule` by
    mode_overlap. integrated_cross_section also integrates on `rule`.
    """

    mode: AngularDistribution
    beam: AngularDistribution
    sq: SqueezeParams
    absolute_phase: bool = True
    rule: QuadratureRule = DEFAULT_RULE
    xi: OverlapResult | None = None

    def __post_init__(self):
        if self.xi is None:
            self.xi = mode_overlap(self.beam, self.mode, self.rule)

    @property
    def relative_phase(self):
        return relative_phase(self.xi, self.sq, self.absolute_phase)

    @property
    def g(self):
        """Squeezing coefficient xi s0 (s0 - c0 e^{i Phi}) (s0 = sinh r,
        c0 = cosh r), read as xi ((sxx - 1) + i scross) / 2 from the pure
        spectra at Phi, which do not cancel at high squeezing."""
        pure = pure_spectra(self.sq.r_s, self.relative_phase)
        return self.xi.xi * complex(pure.sxx - 1.0, pure.scross) / 2.0

    @property
    def ratio(self):
        """Gamma/Gamma0 for this configuration."""
        return recoil_ratio(self.xi, self.sq, absolute_phase=self.absolute_phase)


def scattering_amplitudes(cfg: ScatterConfig, k):
    """Scattered transverse fields (f_plus, f_minus) at the (3, n) unit
    vectors k, each of shape (3, n).

    f_plus annihilates a photon into direction k while creating a phonon;
    f_minus annihilates both (it exists only with squeezing and only on the
    beam support).
    """
    g = cfg.g
    beam_conj = np.conj(cfg.beam.amplitude(k))
    f_plus = -(cfg.mode.amplitude(k) + beam_conj * g)
    f_minus = -np.conj(g) * beam_conj
    return f_plus, f_minus


def _polarization_sums(cfg: ScatterConfig, k):
    """Component sums of |f_plus|^2 and of |f_minus|^2 at the unit vectors k."""
    f_plus, f_minus = scattering_amplitudes(cfg, k)
    return np.sum(np.abs(f_plus) ** 2, axis=0), np.sum(np.abs(f_minus) ** 2, axis=0)


def differential_cross_section(cfg: ScatterConfig, k):
    """Polarization-summed d sigma / d Omega at the unit vectors k.

    Pointwise values may be negative for strong squeezing; only the
    integral is guaranteed positive. Values are reported unclipped.
    """
    return np.subtract(*_polarization_sums(cfg, k))


def integrated_cross_section(cfg: ScatterConfig):
    """Integral of d sigma / d Omega over the sphere, on cfg.rule about the beam axis."""
    return float(integrate_sphere(lambda k: [differential_cross_section(cfg, k)], cfg.rule, cfg.beam.support_axis))


# Columns of the irp_grid table, in the order irp.csv writes them.
IRP_COLUMNS = ("theta", "phi", "dsigma", "irp", "f_plus_sq", "f_minus_sq")


def irp_grid(cfg: ScatterConfig, n_theta, n_phi):
    """Tabulate d sigma / d Omega and the normalized IRP as (table, metadata):
    the rows of irp.csv, one per grid point (theta-major) and one column per
    IRP_COLUMNS name, and the fields of irp_meta.json.

    The irp column is dsigma over the exact total cfg.ratio, `normalization`
    in metadata, so it does not depend on the quadrature rule. The grid is
    filled in blocks of whole theta rows, at most BLOCK points (but at least
    one row) each, so the amplitude temporaries stay bounded at any grid
    size; every value is computed pointwise and does not depend on the
    blocking.
    """
    if n_theta < 2 or n_phi < 2:
        raise ConfigError("IRP grid must be at least 2x2")
    total = cfg.ratio
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    grid = np.empty((n_theta, n_phi, len(IRP_COLUMNS)))
    grid[..., 0] = theta[:, None]
    grid[..., 1] = phi
    dsigma, irp, fp2, fm2 = np.moveaxis(grid[..., 2:], -1, 0)
    rows = max(1, BLOCK // n_phi)
    for start in range(0, n_theta, rows):
        block = slice(start, start + rows)
        k = spherical_basis(theta[block], phi)
        fp2[block], fm2[block] = (sums.reshape(-1, n_phi) for sums in _polarization_sums(cfg, k))
        np.subtract(fp2[block], fm2[block], out=dsigma[block])
        np.divide(dsigma[block], total, out=irp[block])

    metadata = {
        "normalization": total,
        "xi_modulus": cfg.xi.modulus,
        "xi_phase": cfg.xi.phase,
        "r_s": cfg.sq.r_s,
        "phi_s": cfg.sq.phi_s,
        "relative_phase": cfg.relative_phase,
        "ratio": total,
        "si_units": False,
        "min_dsigma": float(dsigma.min()),
        "max_dsigma": float(dsigma.max()),
        "has_negative_values": bool(dsigma.min() < 0),
    }
    return grid.reshape(-1, len(IRP_COLUMNS)), metadata
