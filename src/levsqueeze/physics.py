"""Derived trap quantities: displaced-mode amplitude, mechanical and
libration frequencies, zero-point amplitudes, and bare recoil rates.

All quantities in SI units; angular frequencies in rad/s. derived_report
builds the nested report the CLI writes, whose keys are the only names of
the mode quantities; every mode is damped at detect.LOW_FREQ_DAMPING_RATIO
times its frequency. A quantity that extreme inputs take to zero or out of
range is a NumericalFailure that names its key.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .angular import MOTION_GEOMETRY_FACTORS
from .constants import C, EPS0, HBAR
from .detect import LOW_FREQ_DAMPING_RATIO
from .errors import ConfigError, NumericalFailure


def _require_finite(inputs):
    """Every field of a physics input is a finite real number; a bool is not one."""
    for field in fields(inputs):
        value = getattr(inputs, field.name)
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int beyond float range
            finite = False
        if not finite:
            raise ConfigError(f"{field.name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class Particle:
    """Homogeneous dielectric sphere."""

    radius: float  # m
    density: float  # kg/m^3
    permittivity: float  # relative

    def __post_init__(self):
        _require_finite(self)
        if self.radius <= 0:
            raise ConfigError("particle radius must be positive")
        if self.density <= 0:
            raise ConfigError("particle density must be positive")
        if self.permittivity <= 1:
            raise ConfigError("relative permittivity must exceed 1")

    @property
    def volume(self):
        return 4.0 * np.pi * self.radius**3 / 3.0

    @property
    def mass(self):
        return self.density * self.volume

    @property
    def polarizability(self):
        """Clausius-Mossotti point-dipole polarizability, F m^2."""
        eps = self.permittivity
        return 3.0 * EPS0 * self.volume * (eps - 1.0) / (eps + 2.0)


@dataclass(frozen=True)
class Rotor:
    """Anisotropic sub-wavelength rotor (cylindrically symmetric)."""

    alpha_parallel: float  # F m^2, long-axis polarizability
    alpha_perp: float  # F m^2, transverse polarizability
    moment_of_inertia: float  # kg m^2
    volume: float  # m^3

    def __post_init__(self):
        _require_finite(self)
        if not (self.alpha_parallel > self.alpha_perp > 0):
            raise ConfigError("rotor requires alpha_parallel > alpha_perp > 0")
        if self.moment_of_inertia <= 0:
            raise ConfigError("moment of inertia must be positive")
        if self.volume <= 0:
            raise ConfigError("rotor volume must be positive")

    @property
    def delta_alpha(self):
        return self.alpha_parallel - self.alpha_perp


@dataclass(frozen=True)
class Laser:
    """Trapping laser: power, focal waist, vacuum wavelength."""

    power: float  # W
    waist: float  # m
    wavelength: float  # m

    def __post_init__(self):
        _require_finite(self)
        if min(self.power, self.waist, self.wavelength) <= 0:
            raise ConfigError("laser power, waist and wavelength must be positive")
        if self.waist < self.wavelength / 2.0:
            warnings.warn(
                "waist below wavelength/2: paraxial trap-frequency formulas "
                "are unreliable here",
                stacklevel=2,
            )

    @property
    def omega0(self):
        return 2.0 * np.pi * C / self.wavelength

    @property
    def k0(self):
        return self.omega0 / C


def derived_report(laser: Laser, particle: Particle = None, rotor: Rotor = None):
    """JSON-ready dictionary echoing the inputs and every derived quantity:
    the squared displaced-mode amplitude alpha0^2 = 16 pi^2 P / (hbar c^2 k0 W^2)
    of the trapping laser, and the entry (_mode) of each motional mode of the
    particle and each libration mode of the rotor. NumericalFailure if
    extreme inputs take a quantity to zero or out of range."""
    try:
        # numpy's warnings would only precede _checked's name for the quantity
        with np.errstate(all="ignore"):
            a2 = 16.0 * np.pi**2 * laser.power / (HBAR * C**2 * laser.k0 * laser.waist**2)
            report = {
                "laser": {
                    "power_W": laser.power,
                    "waist_m": laser.waist,
                    "wavelength_m": laser.wavelength,
                    "omega0_rad_s": laser.omega0,
                    "k0_1_m": laser.k0,
                },
                "alpha0_squared": a2,
            }
            if particle is not None:
                report["particle"] = {
                    "radius_m": particle.radius,
                    "density_kg_m3": particle.density,
                    "permittivity": particle.permittivity,
                    "volume_m3": particle.volume,
                    "mass_kg": particle.mass,
                    "polarizability_F_m2": particle.polarizability,
                }
                eps = particle.permittivity
                omega_xy = np.sqrt(
                    (eps - 1.0) / (eps + 2.0) * 12.0 * laser.power / (np.pi * C * particle.density * laser.waist**4)
                )
                omega_z = omega_xy * laser.wavelength / (np.sqrt(2.0) * np.pi * laser.waist)
                # Each rate multiplies its factors in the order written here;
                # another grouping moves the last bits of the report.
                prefactor = (
                    (2.0 * np.pi / C)
                    * a2
                    * (particle.polarizability / (2.0 * EPS0 * (2.0 * np.pi) ** 3)) ** 2
                    * laser.omega0**2
                )
                dipole = 8.0 * np.pi * laser.k0**4 / 3.0
                modes = report["motion_modes"] = {}
                for axis, omega in (("x", omega_xy), ("y", omega_xy), ("z", omega_z)):
                    factor = MOTION_GEOMETRY_FACTORS[axis]
                    modes[axis] = _mode(omega, particle.mass, "zero_point_m", lambda r0: prefactor * r0**2 * dipole * factor)
                    modes[axis]["geometry_factor"] = factor
            if rotor is not None:
                report["rotor"] = {
                    "alpha_parallel_F_m2": rotor.alpha_parallel,
                    "alpha_perp_F_m2": rotor.alpha_perp,
                    "delta_alpha_F_m2": rotor.delta_alpha,
                    "moment_of_inertia_kg_m2": rotor.moment_of_inertia,
                    "volume_m3": rotor.volume,
                }
                # the y and z modes are identical by symmetry
                omega = np.sqrt(
                    rotor.delta_alpha / rotor.moment_of_inertia * HBAR * laser.omega0 * a2 / (EPS0 * (2.0 * np.pi) ** 3)
                )
                prefactor = (
                    rotor.volume
                    / (4.0 * np.pi**2 * C)
                    * a2
                    * (rotor.delta_alpha / (2.0 * EPS0 * (2.0 * np.pi) ** 3)) ** 2
                    * (8.0 * np.pi * laser.k0**2 / 3.0)
                )
                mode = _mode(omega, rotor.moment_of_inertia, "zero_point_rad", lambda r0: prefactor * r0**2 * laser.omega0**2)
                report["libration_modes"] = {axis: dict(mode) for axis in ("y", "z")}
            return _checked(report)
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericalFailure(f"a derived trap quantity is out of floating-point range ({exc})") from None


def _mode(omega, inertia, zero_point_key, recoil):
    """Report entry of a mode of frequency `omega` (rad/s) whose mass or
    moment of inertia is `inertia`: its zero-point amplitude
    r0 = sqrt(hbar / (2 inertia omega)) under `zero_point_key`, its damping
    and its bare recoil rate recoil(r0) (rad/s)."""
    r0 = np.sqrt(HBAR / (2.0 * inertia * omega))
    return {
        "frequency_rad_s": omega,
        zero_point_key: r0,
        "damping_rad_s": LOW_FREQ_DAMPING_RATIO * omega,
        "bare_recoil_rad_s": recoil(r0),
    }


def _checked(report, prefix=""):
    """The nested `report`, once every number in it is finite and nonzero."""
    for key, value in report.items():
        if isinstance(value, dict):
            _checked(value, f"{prefix}{key}.")
        elif value == 0.0 or not math.isfinite(value):
            raise NumericalFailure(f"derived quantity {prefix}{key} is {value:g}, out of floating-point range")
    return report
