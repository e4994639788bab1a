import json
from pathlib import Path

import numpy as np
import pytest

from levsqueeze import angular, physics
from levsqueeze.constants import C, HBAR
from levsqueeze.errors import ConfigError

GOLDEN_REPORTS = Path(__file__).parent / "data" / "derived_report.json"


def test_particle_validation():
    with pytest.raises(ConfigError):
        physics.Particle(radius=-1e-9, density=2200.0, permittivity=2.1)
    with pytest.raises(ConfigError):
        physics.Particle(radius=70e-9, density=2200.0, permittivity=0.9)


@pytest.mark.parametrize("inputs", ["laser", "particle", "rotor"])
@pytest.mark.parametrize(
    "value",
    [np.nan, np.inf, -np.inf, 10**400, "1", True, None],
    ids=["nan", "inf", "-inf", "int1e400", "str", "true", "none"],
)
def test_physics_inputs_reject_non_numbers(request, inputs, value):
    valid = request.getfixturevalue(inputs)
    field = next(iter(vars(valid)))
    with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
        type(valid)(**{**vars(valid), field: value})


def motion_modes(particle, laser):
    return physics.derived_report(laser, particle=particle)["motion_modes"]


def libration_modes(rotor, laser):
    return physics.derived_report(laser, rotor=rotor)["libration_modes"]


def _leaves(report, prefix=""):
    """(key path, value) of every number of a nested report, in its order."""
    for key, value in report.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def test_derived_report_is_pinned_bit_for_bit(particle, rotor, laser):
    # every leaf, the libration modes that no workload writes included, equals
    # the value recorded in tests/data/derived_report.json: the report's
    # formulas may be regrouped only where that keeps every bit
    second = physics.Laser(power=0.2, waist=1.1e-6, wavelength=1.55e-6)
    golden = json.loads(GOLDEN_REPORTS.read_text())
    assert len(golden) == 2
    for each, expected in zip((laser, second), golden):
        report = physics.derived_report(each, particle=particle, rotor=rotor)
        assert list(_leaves(report)) == list(_leaves(expected))


def test_alpha0_linearity(laser):
    doubled = physics.Laser(
        power=2 * laser.power, waist=laser.waist, wavelength=laser.wavelength
    )
    assert physics.derived_report(doubled)["alpha0_squared"] == pytest.approx(
        2.0 * physics.derived_report(laser)["alpha0_squared"], rel=1e-14
    )


def test_paraxial_warning():
    with pytest.warns(UserWarning):
        physics.Laser(power=0.5, waist=0.4e-6, wavelength=1.064e-6)


def test_frequency_ratio(particle, laser):
    freqs = {axis: mode["frequency_rad_s"] for axis, mode in motion_modes(particle, laser).items()}
    assert freqs["x"] == freqs["y"]
    expected = np.sqrt(2.0) * np.pi * laser.waist / laser.wavelength
    assert freqs["x"] / freqs["z"] == pytest.approx(expected, rel=1e-14)


def test_frequency_order_of_magnitude(particle, laser):
    # focused optical traps sit in the 10^2 - 10^3 kHz band
    freqs = {axis: mode["frequency_rad_s"] for axis, mode in motion_modes(particle, laser).items()}
    assert 1e5 < freqs["x"] / (2 * np.pi) < 1e7


def test_recoil_rate_ratios(particle, laser):
    modes = motion_modes(particle, laser)
    gx, gy, gz = (modes[a]["bare_recoil_rad_s"] for a in "xyz")
    # x and y share a frequency, so their rates differ only by geometry
    assert gy / gx == pytest.approx(2.0, rel=1e-12)
    rz, rx = modes["z"]["zero_point_m"], modes["x"]["zero_point_m"]
    assert gz / gx == pytest.approx(7.0 * rz**2 / rx**2, rel=1e-12)
    assert all(g > 0 for g in (gx, gy, gz))


def test_zero_point_invariant(particle, laser):
    modes = motion_modes(particle, laser)
    for mode in modes.values():
        product = mode["zero_point_m"] ** 2 * 2.0 * particle.mass * mode["frequency_rad_s"]
        assert product == pytest.approx(HBAR, rel=1e-12)


def test_damping_default(particle, laser):
    modes = motion_modes(particle, laser)
    for mode in modes.values():
        assert mode["damping_rad_s"] == pytest.approx(1e-6 * mode["frequency_rad_s"], rel=1e-14)


def test_libration_modes_identical(rotor, laser):
    modes = libration_modes(rotor, laser)
    assert modes["y"]["frequency_rad_s"] == modes["z"]["frequency_rad_s"]
    assert modes["y"]["bare_recoil_rad_s"] == modes["z"]["bare_recoil_rad_s"]
    assert modes["y"]["bare_recoil_rad_s"] > 0
    product = modes["y"]["zero_point_rad"] ** 2 * 2.0 * rotor.moment_of_inertia * modes["y"]["frequency_rad_s"]
    assert product == pytest.approx(HBAR, rel=1e-12)


def test_libration_scaling(rotor, laser):
    brighter = physics.Laser(
        power=2 * laser.power, waist=laser.waist, wavelength=laser.wavelength
    )
    w1 = libration_modes(rotor, laser)["z"]["frequency_rad_s"]
    w2 = libration_modes(rotor, brighter)["z"]["frequency_rad_s"]
    assert w2 / w1 == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_isotropic_rotor_rejected(laser):
    with pytest.raises(ConfigError):
        physics.Rotor(
            alpha_parallel=4.0e-33,
            alpha_perp=4.0e-33,
            moment_of_inertia=1e-31,
            volume=2e-21,
        )


def test_rate_scaling_with_power(particle, laser):
    # Omega ~ sqrt(P), r0^2 ~ 1/Omega, Gamma0 ~ |alpha0|^2 r0^2 ~ P/sqrt(P)
    brighter = physics.Laser(
        power=4 * laser.power, waist=laser.waist, wavelength=laser.wavelength
    )
    g1 = motion_modes(particle, laser)["z"]["bare_recoil_rad_s"]
    g2 = motion_modes(particle, brighter)["z"]["bare_recoil_rad_s"]
    assert g2 / g1 == pytest.approx(2.0, rel=1e-10)


def test_coupling_normalization_consistency(particle, laser):
    # the bare rate prefactor and the unit-normalized pattern are mutually
    # consistent: scaling the pattern by the physical coupling amplitude
    # reproduces that amplitude's squared norm under quadrature
    mode = motion_modes(particle, laser)["z"]
    scale = C**3 * mode["bare_recoil_rad_s"] / (2.0 * np.pi * laser.omega0**2)
    dist = angular.make_motion_distribution("z")
    norm = angular.integrate_sphere(
        lambda k: scale * np.abs(dist.amplitude(k)) ** 2
    )
    assert norm.real == pytest.approx(scale, rel=1e-8)


def test_derived_report_round_trip(particle, rotor, laser):
    report = physics.derived_report(laser, particle=particle, rotor=rotor)
    blob = json.dumps(report)
    back = json.loads(blob)
    assert back["motion_modes"]["z"]["geometry_factor"] == pytest.approx(1.4)
    assert back["libration_modes"]["y"]["frequency_rad_s"] > 0
    # 16 pi^2 P / (hbar c^2 k0 W^2)
    a2 = 16.0 * np.pi**2 * laser.power / (HBAR * C**2 * laser.k0 * laser.waist**2)
    assert back["alpha0_squared"] == pytest.approx(a2, rel=1e-14)
