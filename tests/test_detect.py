import math

import numpy as np
import pytest

from levsqueeze import detect, squeeze
from levsqueeze.errors import ConfigError, NumericalFailure


def spectra_for(m, r, phi):
    return squeeze.input_spectra(
        squeeze.OverlapResult(xi=m + 0.0j),
        squeeze.SqueezeParams(r_s=r, phi_s=phi),
        absolute_phase=False,
    )


def chi_at(omega, gamma=1e-6):
    return detect.Susceptibility(omega=omega, mode_frequency=1.0, damping=gamma)


def test_vacuum_spectra():
    s = spectra_for(0.7, 0.0, 1.3)
    assert (s.sxx, s.syy, s.scross) == (1.0, 1.0, 0.0)


def test_perfect_overlap_spectra():
    for db in (15.0, 40.0, 60.0, 80.0):
        r = squeeze.db_to_r(db)
        s = spectra_for(1.0, r, 0.0)
        assert s.sxx == pytest.approx(math.exp(-2 * r), rel=1e-12)
        assert s.syy == pytest.approx(math.exp(2 * r), rel=1e-12)
        assert s.scross == pytest.approx(0.0, abs=1e-12)


def test_sxx_equals_recoil_ratio(rng):
    for _ in range(100):
        m, r, phi = rng.uniform(0, 1), rng.uniform(0, 3), rng.uniform(0, 2 * np.pi)
        s = spectra_for(m, r, phi)
        xi = squeeze.OverlapResult(xi=m + 0.0j)
        sq = squeeze.SqueezeParams(r_s=r, phi_s=phi)
        ratio = squeeze.recoil_ratio(xi, sq, absolute_phase=False)
        assert s.sxx == pytest.approx(ratio, rel=1e-12, abs=1e-12)


def test_uncertainty_determinant(rng):
    for _ in range(200):
        s = spectra_for(rng.uniform(0, 1), rng.uniform(0, 3), rng.uniform(0, 2 * np.pi))
        assert s.uncertainty_determinant >= 1.0 - 1e-10
    pure = spectra_for(1.0, 2.3, 0.8)
    assert pure.uncertainty_determinant == pytest.approx(1.0, abs=1e-8)


def test_susceptibility_properties():
    chi = chi_at(1.0, gamma=1e-3)
    assert abs(chi.chi_tilde.real) <= 1e-12 * abs(chi.chi_tilde)
    conj = chi_at(-0.6, gamma=1e-3)
    assert conj.chi_tilde == pytest.approx(np.conj(chi_at(0.6, 1e-3).chi_tilde))
    with pytest.raises(NumericalFailure):
        _ = chi_at(1.0, gamma=0.0).chi_tilde


def test_sql_floor_for_vacuum():
    vac = spectra_for(0.0, 0.0, 0.0)
    chi = detect.low_frequency_susceptibility(1.0)
    mod = abs(chi.chi_tilde)
    assert detect.s_min(vac, chi, 1.0 / mod) == pytest.approx(1.0, rel=1e-9)
    for u in (0.01, 0.3, 7.0):
        assert detect.s_min(vac, chi, u) >= 1.0 - 1e-12
    with pytest.raises(ConfigError):
        detect.s_min(vac, chi, 0.0)


def test_opt_u_closed_form_small_oracle(rng):
    for _ in range(50):
        s = spectra_for(rng.uniform(0, 1), rng.uniform(0, 2.5), rng.uniform(0, 2 * np.pi))
        chi = chi_at(rng.uniform(0.0, 2.0), gamma=10 ** rng.uniform(-6, -2))
        u_opt, value = detect.s_min_opt_u(s, chi)
        grid = np.geomspace(1e-4, 1e4, 4000)
        brute = min(detect.s_min(s, chi, u) for u in grid)
        assert value <= brute + 1e-12
        assert detect.s_min(s, chi, u_opt) == pytest.approx(value, rel=1e-12)


def test_opt_u_at_resonance_stays_above_sql(rng):
    chi = chi_at(1.0, gamma=1e-4)
    for _ in range(50):
        s = spectra_for(rng.uniform(0, 1), rng.uniform(0, 3), rng.uniform(0, 2 * np.pi))
        _, value = detect.s_min_opt_u(s, chi)
        assert value >= 1.0 - 1e-10


def test_low_frequency_duality(rng):
    chi = detect.low_frequency_susceptibility(1.0)
    for _ in range(50):
        m, r = rng.uniform(0, 1), rng.uniform(0, 3)
        s = spectra_for(m, r, 1.5 * np.pi)
        _, value = detect.s_min_opt_u(s, chi)
        expected = 1.0 - m**2 * (1.0 - math.exp(-2 * r))
        assert value == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_opt_phase_branches():
    below = chi_at(0.5, gamma=1e-5)  # Re chi > 0
    above = chi_at(1.5, gamma=1e-5)  # Re chi < 0
    phi_b, _ = detect.s_min_opt_u_phase(0.8, 1.0, below)
    phi_a, _ = detect.s_min_opt_u_phase(0.8, 1.0, above)
    assert phi_b == pytest.approx(1.5 * np.pi)
    assert phi_a == pytest.approx(0.5 * np.pi)


def test_opt_phase_matches_2d_minimization(rng):
    for _ in range(20):
        m, r = rng.uniform(0.1, 1), rng.uniform(0.2, 2.0)
        chi = chi_at(rng.uniform(0.0, 2.0), gamma=1e-5)
        _, value = detect.s_min_opt_u_phase(m, r, chi)
        brute = np.inf
        for phi in np.linspace(0, 2 * np.pi, 721):
            s = spectra_for(m, r, phi)
            _, v = detect.s_min_opt_u(s, chi)
            brute = min(brute, v)
        assert value == pytest.approx(brute, abs=1e-6)


def test_opt_phase_special_values():
    chi = chi_at(1.0, gamma=1e-6)  # resonance: Re chi ~ 0
    m, r = 0.8, 1.1
    _, value = detect.s_min_opt_u_phase(m, r, chi)
    # without a correlation term sin Phi = 0 is optimal: sqrt(det S)
    assert value == pytest.approx(math.sqrt(squeeze.spectra_determinant(squeeze.OverlapResult(xi=m), r)), rel=1e-6)
    _, unit = detect.s_min_opt_u_phase(0.0, 2.0, chi)
    assert unit == pytest.approx(1.0, rel=1e-12)


def test_s_min_convex_in_log_u(rng):
    for _ in range(20):
        s = spectra_for(rng.uniform(0, 1), rng.uniform(0, 2), rng.uniform(0, 2 * np.pi))
        chi = chi_at(rng.uniform(0, 2), gamma=1e-4)
        log_u = np.linspace(-3, 3, 41)
        vals = np.array([detect.s_min(s, chi, 10.0**x) for x in log_u])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert (second > -1e-12).all()


def test_wigner_covariances():
    vac, det = detect.wigner_covariance("bare", r=0.0, phi=0.0)
    assert np.allclose(vac, np.eye(2)) and det == 1.0
    sq0, _ = detect.wigner_covariance("bare", r=1.2, phi=0.0)
    assert sq0[0, 0] == pytest.approx(math.exp(2.4), rel=1e-12)
    assert sq0[1, 1] == pytest.approx(math.exp(-2.4), rel=1e-12)
    for r, phi in [(0.5, 0.3), (2.0, 4.0), (1.0, np.pi)]:
        cov, _ = detect.wigner_covariance("bare", r=r, phi=phi)
        assert np.linalg.det(cov) == pytest.approx(1.0, rel=1e-12)
    s = spectra_for(0.8, 1.0, 1.1)
    cov, det = detect.wigner_covariance("input", r=1.0, phi=1.1, xi=0.8)
    assert cov[0, 0] == s.sxx and cov[1, 1] == s.syy and cov[0, 1] == -s.scross
    assert det == pytest.approx(s.uncertainty_determinant, rel=1e-12)
    with pytest.raises(ConfigError, match="wigner source must be bare or input"):
        detect.wigner_covariance("nope", r=1.0, phi=0.0)


def test_wigner_grid_normalization():
    cov, _ = detect.wigner_covariance("bare", r=1.0, phi=0.7)
    x, y, w = detect.wigner_grid(cov, 1.0, n=401).reshape(401, 401, 3).transpose(2, 0, 1)
    dx, dy = x[1, 0] - x[0, 0], y[0, 1] - y[0, 0]
    assert w.sum() * dx * dy == pytest.approx(1.0, abs=1e-6)
    assert w[200, 200] == pytest.approx(
        1.0 / (2 * np.pi * math.sqrt(np.linalg.det(cov))), rel=1e-12
    )


def test_sensitivity_heatmap_contains_paper_point():
    chi = detect.low_frequency_susceptibility(1.0)
    header, rows = detect.sensitivity_heatmap([31.6227766], [0.62], chi)
    assert header[-1] == "s_min_over_sql"
    assert rows[0][2] == pytest.approx(0.40, abs=0.02)
