"""Scattering amplitudes, differential cross sections and information
radiation patterns (IRPs) for a mechanical mode illuminated by squeezed
light.

Amplitudes are first-order in the mechanical zero-point motion. The cross
section is reported as a dimensionless shape factor, in units of
(2 pi)^3 |alpha0|^2 Gamma0 / c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import BLOCK, AngularDistribution, DEFAULT_RULE, QuadratureRule, integrate_sphere, spherical_basis
from .errors import ConfigError, NumericalFailure
from .squeeze import OverlapResult, SqueezeParams, mode_overlap, pure_spectra, recoil_ratio, relative_phase


@dataclass
class ScatterConfig:
    """Mode pattern + squeezed beam + squeezing parameters.

    phi convention: sq.phi_s is the absolute squeezing phase when
    absolute_phase is True, otherwise the offset phi_s - 2 arg(xi).
    xi is the beam's overlap with the mode: given (e.g. the exact
    squeeze.beam_overlap of a Gaussian beam), or integrated by mode_overlap.
    """

    mode: AngularDistribution
    beam: AngularDistribution
    sq: SqueezeParams
    absolute_phase: bool = True
    rule: QuadratureRule = DEFAULT_RULE
    xi: OverlapResult | None = None

    def __post_init__(self):
        if not self.beam.is_normalized:
            raise ConfigError("beam distribution must be square-normalized")
        if self.xi is None:
            self.xi = mode_overlap(self.beam, self.mode)

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


def differential_cross_section(cfg: ScatterConfig, k):
    """Polarization-summed d sigma / d Omega at the unit vectors k.

    Pointwise values may be negative for strong squeezing; only the
    integral is guaranteed positive. Values are reported unclipped.
    """
    f_plus, f_minus = scattering_amplitudes(cfg, k)
    return np.sum(np.abs(f_plus) ** 2 - np.abs(f_minus) ** 2, axis=0)


def integrated_cross_section(cfg: ScatterConfig):
    """Quadrature integral of d sigma / d Omega over the full sphere."""

    def integrand(k):
        f_plus, f_minus = scattering_amplitudes(cfg, k)
        return np.abs(f_plus) ** 2 - np.abs(f_minus) ** 2

    axis = cfg.beam.support_axis
    return float(integrate_sphere(integrand, cfg.rule, axis=axis).real)


# Columns of IRPGrid.table, in the order irp.csv writes them.
IRP_COLUMNS = ("theta", "phi", "dsigma", "irp", "f_plus_sq", "f_minus_sq")


@dataclass
class IRPGrid:
    """Equiangular grid of cross-section and IRP values.

    The per-point fields are (n_theta, n_phi) views of `table`, which holds
    one row per grid point (theta-major) and one column per IRP_COLUMNS name.
    """

    theta: np.ndarray  # (n_theta,)
    phi: np.ndarray  # (n_phi,)
    dsigma: np.ndarray  # (n_theta, n_phi)
    irp: np.ndarray  # (n_theta, n_phi), integrates to 1
    f_plus_sq: np.ndarray
    f_minus_sq: np.ndarray
    normalization: float  # integral of dsigma over the sphere
    metadata: dict
    table: np.ndarray  # (n_theta * n_phi, len(IRP_COLUMNS))


def irp_grid(cfg: ScatterConfig, n_theta=181, n_phi=360) -> IRPGrid:
    """Tabulate d sigma / d Omega and the normalized IRP.

    The normalization integral is evaluated first, with the configured
    quadrature rule (not the export grid), so the IRP normalization is
    accurate at any export resolution. The grid is then filled in blocks of
    whole theta rows, at most BLOCK points (but at least one row) each, so
    the amplitude temporaries stay bounded at any grid size; every value is
    computed pointwise and does not depend on the blocking.
    """
    if n_theta < 2 or n_phi < 2:
        raise ConfigError("IRP grid must be at least 2x2")
    total = integrated_cross_section(cfg)
    if total <= 0:
        raise NumericalFailure(
            f"total scattered power is non-positive ({total:.6g}); "
            "unphysical parameter combination"
        )
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    grid = np.empty((n_theta, n_phi, len(IRP_COLUMNS)))
    grid[..., 0] = theta[:, None]
    grid[..., 1] = phi
    tt, pp, dsigma, irp, fp2, fm2 = np.moveaxis(grid, -1, 0)
    rows = max(1, BLOCK // n_phi)
    for start in range(0, n_theta, rows):
        block = slice(start, start + rows)
        k = spherical_basis(tt[block].ravel(), pp[block].ravel())[0]
        f_plus, f_minus = scattering_amplitudes(cfg, k)
        fp2[block] = np.sum(np.abs(f_plus) ** 2, axis=0).reshape(-1, n_phi)
        fm2[block] = np.sum(np.abs(f_minus) ** 2, axis=0).reshape(-1, n_phi)
        np.subtract(fp2[block], fm2[block], out=dsigma[block])
        np.divide(dsigma[block], total, out=irp[block])

    metadata = {
        "xi_modulus": cfg.xi.modulus,
        "xi_phase": cfg.xi.phase,
        "r_s": cfg.sq.r_s,
        "phi_s": cfg.sq.phi_s,
        "relative_phase": cfg.relative_phase,
        "ratio": cfg.ratio,
        "si_units": False,
        "min_dsigma": float(dsigma.min()),
        "max_dsigma": float(dsigma.max()),
        "has_negative_values": bool(dsigma.min() < 0),
    }
    return IRPGrid(
        theta=theta,
        phi=phi,
        dsigma=dsigma,
        irp=irp,
        f_plus_sq=fp2,
        f_minus_sq=fm2,
        normalization=total,
        metadata=metadata,
        table=grid.reshape(-1, len(IRP_COLUMNS)),
    )
