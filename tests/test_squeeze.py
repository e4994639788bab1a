import math

import numpy as np
import pytest

from levsqueeze import squeeze
from levsqueeze.errors import ConfigError, NumericalFailure

PERFECT = squeeze.OverlapResult(xi=1.0 + 0.0j)


def test_db_to_r_values():
    assert squeeze.db_to_r(0.0) == 0.0
    assert squeeze.db_to_r(15.0) == pytest.approx(1.7269, abs=1e-4)
    r3 = squeeze.db_to_r(3.0)
    assert r3 == pytest.approx(0.345, abs=1e-3)
    assert math.exp(2 * r3) == pytest.approx(1.995, abs=1e-3)
    with pytest.raises(ConfigError):
        squeeze.db_to_r(-1.0)


def test_no_squeezing_is_neutral(rng):
    for _ in range(20):
        xi = squeeze.OverlapResult(
            xi=rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        )
        sq = squeeze.SqueezeParams(r_s=0.0, phi_s=rng.uniform(0, 2 * np.pi))
        assert squeeze.recoil_ratio(xi, sq) == pytest.approx(1.0, abs=1e-15)


def test_perfect_overlap_extremes():
    r = squeeze.db_to_r(15.0)
    assert squeeze.recoil_ratio(
        PERFECT, squeeze.SqueezeParams(r_s=r, phi_s=0.0)
    ) == pytest.approx(math.exp(-2 * r), rel=1e-12)
    assert squeeze.recoil_ratio(
        PERFECT, squeeze.SqueezeParams(r_s=r, phi_s=np.pi)
    ) == pytest.approx(math.exp(2 * r), rel=1e-12)


def test_ratio_bounds_and_symmetry(rng):
    for _ in range(200):
        r = rng.uniform(0, 3)
        psi = rng.uniform(0, 2 * np.pi)
        xi = squeeze.OverlapResult(xi=rng.uniform(0, 1) * np.exp(1j * psi))
        phi = rng.uniform(0, 2 * np.pi)
        sq = squeeze.SqueezeParams(r_s=r, phi_s=phi)
        ratio = squeeze.recoil_ratio(xi, sq)
        assert math.exp(-2 * r) - 1e-12 <= ratio <= math.exp(2 * r) + 1e-12
        # 2 pi periodicity and reflection symmetry about phi_s = 2 psi
        again = squeeze.SqueezeParams(r_s=r, phi_s=phi + 2 * np.pi)
        assert squeeze.recoil_ratio(xi, again) == pytest.approx(ratio, rel=1e-12)
        mirrored = squeeze.SqueezeParams(r_s=r, phi_s=2 * (2 * psi) - phi)
        assert squeeze.recoil_ratio(xi, mirrored) == pytest.approx(ratio, rel=1e-9)


def test_ratio_linear_in_overlap_squared():
    sq = squeeze.SqueezeParams(r_s=1.2, phi_s=0.9)
    values = []
    for m in (0.2, 0.5, 0.8):
        xi = squeeze.OverlapResult(xi=m + 0.0j)
        values.append((m**2, squeeze.recoil_ratio(xi, sq)))
    (x1, y1), (x2, y2), (x3, y3) = values
    slope12 = (y2 - y1) / (x2 - x1)
    slope23 = (y3 - y2) / (x3 - x2)
    assert slope12 == pytest.approx(slope23, rel=1e-12)


def test_cross_rate_diagonal_identity(rng):
    for _ in range(200):
        r = rng.uniform(0, 3)
        phi = rng.uniform(0, 2 * np.pi)
        psi = rng.uniform(0, 2 * np.pi)
        m = rng.uniform(0, 1)
        xi = squeeze.OverlapResult(xi=m * np.exp(1j * psi))
        sq = squeeze.SqueezeParams(r_s=r, phi_s=phi)
        g0 = 123.4
        diag = squeeze.cross_rate(xi, xi, g0, g0, sq, diagonal=True)
        expected = g0 * squeeze.recoil_ratio(xi, sq)
        assert diag == pytest.approx(expected, rel=1e-12, abs=1e-12 * g0)


def test_cross_rate_diagonal_exact_at_high_squeezing():
    # |xi| = 1 at phase 0: the diagonal rate is the squeezed floor Gamma0 e^{-2r}
    g0 = 123.4
    for db in range(0, 81, 5):
        sq = squeeze.SqueezeParams(r_s=squeeze.db_to_r(db), phi_s=0.0)
        diag = squeeze.cross_rate(PERFECT, PERFECT, g0, g0, sq, diagonal=True)
        assert diag == pytest.approx(g0 * squeeze.recoil_ratio(PERFECT, sq), rel=1e-12, abs=0.0)
        assert diag == pytest.approx(g0 * math.exp(-2.0 * sq.r_s), rel=1e-12, abs=0.0)


def test_cross_rate_trivial_cases():
    xi = squeeze.OverlapResult(xi=0.7 * np.exp(0.3j))
    none = squeeze.OverlapResult(xi=0.0j)
    vac = squeeze.SqueezeParams(r_s=0.0, phi_s=1.0)
    assert squeeze.cross_rate(xi, xi, 1.0, 2.0, vac) == 0.0
    sq = squeeze.SqueezeParams(r_s=1.5, phi_s=1.0)
    assert squeeze.cross_rate(xi, none, 1.0, 2.0, sq) == 0.0
    with pytest.raises(ConfigError):
        squeeze.cross_rate(xi, xi, -1.0, 1.0, sq)


def test_overlap_modulus_bound():
    with pytest.raises(ConfigError):
        squeeze.OverlapResult(xi=1.1 + 0.0j)


def test_input_spectra_reject_unphysical_at_any_scale():
    # a slack relative to sxx * syy would exceed 1 here and let det 0 through
    for value in (1e5, 1e9):
        with pytest.raises(NumericalFailure):
            squeeze.InputSpectra(sxx=value, syy=value, scross=value)
    # spectra that disagree with the closed-form determinant they carry
    with pytest.raises(NumericalFailure):
        squeeze.InputSpectra(sxx=2.0, syy=2.0, scross=0.0, determinant=1.0)
    with pytest.raises(NumericalFailure):
        squeeze.InputSpectra(sxx=1.0, syy=1.0, scross=0.0, determinant=0.5)
    # at r = 10 the product of the rounded spectra cancels to 0; the closed
    # form, not the product, carries the bound
    pure = squeeze.pure_spectra(10.0, 0.3)
    assert pure.determinant == 1.0
    assert pure.uncertainty_determinant < 1.0 - squeeze.UNCERTAINTY_SLACK


def test_recoil_sweep_perfect_column():
    header, rows, overlaps = squeeze.recoil_sweep(
        None, "z", np.linspace(0.0, 2.0, 9), phi=0.0
    )
    assert header == ["r_s", "ratio_perfect"]
    ratios = [row[1] for row in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert overlaps["ratio_perfect"] == 1.0 + 0.0j


def test_perfect_overlap_same_for_motion_and_libration():
    r_values = np.linspace(0.0, 2.0, 5)
    _, rows_m, _ = squeeze.recoil_sweep(None, "z", r_values, phi=0.3)
    _, rows_l, _ = squeeze.recoil_sweep(None, "y", r_values, phi=0.3, kind="libration")
    for a, b in zip(rows_m, rows_l):
        assert a[1] == pytest.approx(b[1], rel=1e-12)


def test_libration_sweep_axis_validation():
    with pytest.raises(ConfigError):
        squeeze.recoil_sweep(None, "x", [1.0], kind="libration")
