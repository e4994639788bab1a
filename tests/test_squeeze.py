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


def test_db_to_r_stops_where_exp_2r_overflows():
    # at 3082 dB the |xi| = 1 spectra at Phi = 0 still fit a double:
    # sxx = e^{-2r}, syy = e^{-2r} + 2 sinh 2r; e^{2r} overflows by 3083 dB
    spectra = squeeze.pure_spectra(squeeze.db_to_r(3082.0), 0.0)
    assert spectra.syy > 1e307 and spectra.sxx * spectra.syy == pytest.approx(1.0)
    with pytest.raises(NumericalFailure, match=r"overflow double precision: e\^\(2r\) at 3083 dB"):
        squeeze.db_to_r(3083.0)


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


def test_overlap_modulus_bound():
    with pytest.raises(ConfigError):
        squeeze.OverlapResult(xi=1.1 + 0.0j)


def test_input_spectra_reject_unphysical_at_any_scale():
    # det 0 at any scale: the slack relative to sxx * syy exceeds 1 here,
    # so the closed form, not the product, rejects it
    for value in (1e5, 1e9):
        with pytest.raises(NumericalFailure):
            squeeze.InputSpectra(sxx=value, syy=value, scross=value, determinant=0.0)
    # spectra that disagree with the closed-form determinant they carry, also
    # where sxx * syy is 1e10: its product 0 is 1 away, far beyond rounding
    with pytest.raises(NumericalFailure):
        squeeze.InputSpectra(sxx=1e5, syy=1e5, scross=1e5, determinant=1.0)
    with pytest.raises(NumericalFailure):
        squeeze.InputSpectra(sxx=2.0, syy=2.0, scross=0.0, determinant=1.0)
    with pytest.raises(NumericalFailure):
        squeeze.InputSpectra(sxx=1.0, syy=1.0, scross=0.0, determinant=0.5)
    # at r = 10 the product of the rounded spectra cancels to 0; the closed
    # form, not the product, carries the bound
    pure = squeeze.pure_spectra(10.0, 0.3)
    assert pure.determinant == 1.0
    assert pure.uncertainty_determinant < 1.0 - squeeze.UNCERTAINTY_SLACK


def test_spectra_determinant_is_the_product_of_the_spectra_at_low_r(rng):
    # at r <= 0.5 the product of the rounded spectra resolves det S to
    # rounding, an independent check of the closed form
    for _ in range(1000):
        xi = squeeze.OverlapResult(xi=rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        sq = squeeze.SqueezeParams(r_s=rng.uniform(0, 0.5), phi_s=rng.uniform(0, 2 * np.pi))
        product = squeeze.input_spectra(xi, sq).uncertainty_determinant
        assert abs(squeeze.spectra_determinant(xi, sq.r_s) - product) < 1e-14


def test_recoil_sweep_perfect_column():
    db_values = np.linspace(0.0, 2.0, 9) * 20.0 / math.log(10.0)  # r from 0 to 2
    header, rows, overlaps, errors = squeeze.recoil_sweep(None, "z", db_values, phi=0.0)
    assert header == ["r_db", "ratio_perfect"]
    assert [row[0] for row in rows] == list(db_values)
    ratios = [row[1] for row in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert overlaps["ratio_perfect"] == 1.0 + 0.0j
    assert errors == {}  # only beam columns are integrals


def test_perfect_overlap_same_for_motion_and_libration():
    db_values = np.linspace(0.0, 20.0, 5)
    _, rows_m, *_ = squeeze.recoil_sweep(None, "z", db_values, phi=0.3)
    _, rows_l, *_ = squeeze.recoil_sweep(None, "y", db_values, phi=0.3, kind="libration")
    for a, b in zip(rows_m, rows_l):
        assert a[1] == pytest.approx(b[1], rel=1e-12)


def test_libration_sweep_axis_validation():
    with pytest.raises(ConfigError):
        squeeze.recoil_sweep(None, "x", [1.0], kind="libration")
