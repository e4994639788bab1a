"""Detection noise: the minimum detectable displacement signal relative to
the standard quantum limit, which trades imprecision against back-action,
and Gaussian Wigner-function data for the input light. The input spectra
they read come from squeeze.input_spectra.

Convention: every spectral density in this module is stored pre-multiplied
by 2 pi, so the vacuum level is exactly 1 and dimensionless formulas carry
no stray 2 pi factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .squeeze import OVERLAP_BOUND_TOLERANCE, InputSpectra, OverlapResult, SqueezeParams, input_spectra, spectra_determinant

# "omega << Omega" idealization: |Re chi/chi| differs from 1 by < 1e-6 here
LOW_FREQ_OMEGA_RATIO = 1e-3
LOW_FREQ_DAMPING_RATIO = 1e-6  # gamma / Omega of every mode, physics.derived_report's too
WIGNER_HALF_WIDTH_SIGMAS = 8.0  # half width of the Wigner lattice, in sigmas of each principal axis


@dataclass(frozen=True)
class Susceptibility:
    """Mechanical response at one frequency.

    chi_tilde = Omega^2 / (Omega^2 - omega^2 - i gamma omega); the
    dimensionful 2 m Omega chi equals 2 chi_tilde / Omega.
    """

    omega: float  # rad/s, may be negative (two-sided spectra)
    mode_frequency: float  # rad/s
    damping: float  # rad/s

    def __post_init__(self):
        if self.mode_frequency <= 0:
            raise ConfigError("mode frequency must be positive")
        if self.damping < 0:
            raise ConfigError("damping must be non-negative")

    @property
    def chi_tilde(self) -> complex:
        om2 = self.mode_frequency**2
        denom = om2 - self.omega**2 - 1j * self.damping * self.omega
        if denom == 0:
            raise NumericalFailure(
                "mechanical susceptibility pole: omega = mode frequency with zero damping"
            )
        return om2 / denom

    @property
    def cos_response(self):
        """Re(chi_tilde)/|chi_tilde|, the correlation-term weight."""
        c = self.chi_tilde
        return c.real / abs(c)


def low_frequency_susceptibility(mode_frequency: float) -> Susceptibility:
    """The omega << Omega idealization used for sensitivity floors."""
    return Susceptibility(
        omega=LOW_FREQ_OMEGA_RATIO * mode_frequency,
        mode_frequency=mode_frequency,
        damping=LOW_FREQ_DAMPING_RATIO * mode_frequency,
    )


def s_min(spectra: InputSpectra, chi: Susceptibility, u):
    """Minimum detectable signal over the SQL at each measurement strength u.

    u = 4 Gamma0 / Omega balances imprecision (syy term) against
    back-action (sxx term); the cross term rewards amplitude-phase
    correlations of the input light.
    """
    if not np.all(np.greater(u, 0)):
        raise ConfigError("measurement strength u must be positive")
    mod = abs(chi.chi_tilde)
    return 0.5 * (
        u * mod * spectra.sxx
        + spectra.syy / (u * mod)
        - 2.0 * chi.cos_response * spectra.scross
    )


def s_min_opt_u(spectra: InputSpectra, chi: Susceptibility):
    """Closed-form optimum of s_min over u: returns (u_opt, value)."""
    if spectra.sxx <= 0:
        raise NumericalFailure("sxx must be positive to optimize the trade-off")
    mod = abs(chi.chi_tilde)
    u_opt = math.sqrt(spectra.syy / spectra.sxx) / mod
    value = math.sqrt(spectra.sxx * spectra.syy) - chi.cos_response * spectra.scross
    return u_opt, value


def s_min_opt_u_phase(xi_modulus: float, r_s: float, chi: Susceptibility):
    """Optimum of s_min over both u and the squeezing phase.

    Returns (phi_opt, value) where phi_opt is the offset phi_s - 2 arg(xi).
    Over that offset Phi, s_min_opt_u is sqrt(a^2 - b^2 cos^2 Phi) + c b sin Phi,
    with a = 1 - m^2 + m^2 cosh 2r, b = m^2 sinh 2r, c = cos_response and
    m = |xi|, which is convex in sin Phi. With D = a^2 - b^2 = det S, the
    minimum is sqrt(D (1 - c^2)) at sin Phi = -c sqrt(D) / (b sqrt(1 - c^2))
    when c^2 D <= b^2 (1 - c^2). Otherwise it is a - |c| b, at sin Phi = -1
    (3 pi/2) when Re chi_tilde >= 0 (below resonance) and +1 (pi/2) above.
    """
    if not 0.0 <= xi_modulus <= 1.0 + OVERLAP_BOUND_TOLERANCE:
        raise ConfigError("overlap modulus must lie in [0, 1]")
    cosr = chi.cos_response
    m2 = xi_modulus**2
    det = spectra_determinant(OverlapResult(xi=xi_modulus), r_s)
    imag2 = 1.0 - cosr**2  # (Im chi_tilde / |chi_tilde|)^2
    # the stationary point has |sin Phi| <= 1 when |c| sqrt(D) <= b sqrt(1 - c^2);
    # nothing is squared, so b may reach the float range
    lhs, rhs = abs(cosr) * math.sqrt(det), m2 * math.sinh(2.0 * r_s) * math.sqrt(imag2)
    if imag2 > 0.0 and lhs <= rhs:
        cos_term = math.sqrt(rhs - lhs) * math.sqrt(rhs + lhs)  # b sqrt(1 - c^2) cos Phi there
        return math.atan2(-cosr * math.sqrt(det), cos_term) % (2.0 * np.pi), math.sqrt(det * imag2)
    phi_opt = 1.5 * np.pi if cosr >= 0 else 0.5 * np.pi
    value = 1.0 - m2
    for eta in (+1.0, -1.0):
        value += m2 * 0.5 * math.exp(2.0 * eta * r_s) * (1.0 - eta * abs(cosr))
    return phi_opt, value


def sensitivity_curve(spectra: InputSpectra, chi: Susceptibility, u_values):
    """s_min over a grid of measurement strengths: the (n, 2) table of u and value."""
    table = np.empty((np.size(u_values), 2))
    table[:, 0] = u_values
    table[:, 1] = s_min(spectra, chi, table[:, 0])
    return table


def sensitivity_heatmap(e2r_values, xi2_values, chi: Susceptibility):
    """Optimal-phase sensitivity over (e^{2r}, |xi|^2): the header and the
    (n_e2r * n_xi2, 3) table, e2r-major, allocated before the first cell."""
    table = np.empty((np.size(e2r_values), np.size(xi2_values), 3))
    for i, e2r in enumerate(np.atleast_1d(e2r_values)):
        if e2r < 1.0:
            raise ConfigError("e^(2r) must be >= 1")
        r_s = 0.5 * math.log(float(e2r))
        for j, x2 in enumerate(np.atleast_1d(xi2_values)):
            _, value = s_min_opt_u_phase(math.sqrt(float(x2)), r_s, chi)
            table[i, j] = float(e2r), float(x2), value
    return ["e2r", "xi_squared", "s_min_over_sql"], table.reshape(-1, 3)


def wigner_covariance(source: str, *, r: float, phi: float, xi: complex = 1.0):
    """Covariance matrix of the requested Gaussian state and its determinant.

    source "input" is the interacting input mode of overlap xi at offset
    phi, [[sxx, -scross], [-scross, syy]] of its spectra; "bare" is the
    squeezed mode itself at phase phi, the |xi| = 1 spectra with the
    quadratures swapped (vacuum = identity). The determinant is the closed
    form of the spectra, exactly 1 for the bare mode. Raises on a
    non-positive-definite result, which would signal a convention bug
    rather than a physical regime.
    """
    if source not in ("bare", "input"):
        raise ConfigError(f"wigner source must be bare or input, got {source!r}")
    overlap = OverlapResult(xi=xi if source == "input" else 1.0)
    s = input_spectra(overlap, SqueezeParams(r_s=r, phi_s=phi), absolute_phase=False)
    if source == "input":
        cov = np.array([[s.sxx, -s.scross], [-s.scross, s.syy]])
    else:
        cov = np.array([[s.syy, s.scross], [s.scross, s.sxx]])
    if s.determinant <= 0 or cov[0, 0] <= 0:
        raise NumericalFailure("covariance matrix is not positive definite")
    return cov, s.determinant


def wigner_grid(cov: np.ndarray, det: float, n: int):
    """Gaussian Wigner function of cov (determinant det) on a lattice along
    its principal axes: the (n * n, 3) table of lab x, y and w that
    wigner.csv holds, u-major. Node (u, v), each evenly spaced on
    +-WIGNER_HALF_WIDTH_SIGMAS, lies at R(theta) diag(sqrt(l+), sqrt(l-)) (u, v)
    and weighs g(u) g(v) / (2 pi sqrt(det)), g(t) = exp(-t^2 / 2). Since
    sqrt(l+ l-) = sqrt(det), the sum of w dA is the standard normal's on the
    lattice, whatever the state."""
    if n < 2:
        raise ConfigError("Wigner grid needs at least 2 points per axis")
    a, b, c = cov[0, 0], cov[1, 1], cov[0, 1]
    # l+ from halves stays finite wherever a and b are; sqrt(l-) = sqrt(det) / sqrt(l+) subtracts nothing
    major = math.sqrt(0.5 * a + 0.5 * b + math.hypot(0.5 * (a - b), c))
    theta = 0.5 * math.atan2(c, 0.5 * (a - b))
    t = np.linspace(-WIGNER_HALF_WIDTH_SIGMAS, WIGNER_HALF_WIDTH_SIGMAS, n)
    along, across, g = major * t, math.sqrt(det) / major * t, np.exp(-0.5 * t * t)  # lab lengths of u and v
    table = np.empty((n, n, 3))
    np.add.outer(math.cos(theta) * along, -math.sin(theta) * across, out=table[..., 0])
    np.add.outer(math.sin(theta) * along, math.cos(theta) * across, out=table[..., 1])
    np.multiply.outer(g, g / (2.0 * np.pi * math.sqrt(det)), out=table[..., 2])
    return table.reshape(-1, 3)
