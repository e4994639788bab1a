import numpy as np
import pytest

from levsqueeze import angular, scatter, squeeze
from levsqueeze.errors import ConfigError, NumericalFailure


def direction(theta, phi):
    """Unit propagation vectors at the given angles, shape (3, n)."""
    return angular.spherical_basis(np.atleast_1d(theta), np.atleast_1d(phi))[0]


def make_config(na=0.9, axis="z", kind="motion", db=15.0, phi=0.0, beam_axis=(0, 0, -1)):
    if kind == "motion":
        mode = angular.make_motion_distribution(axis)
    else:
        mode = angular.make_libration_distribution(axis)
    beam = angular.make_gaussian_beam(na=na, propagation_axis=np.asarray(beam_axis, float))
    sq = squeeze.SqueezeParams(r_s=squeeze.db_to_r(db), phi_s=phi)
    return scatter.ScatterConfig(mode=mode, beam=beam, sq=sq, absolute_phase=False)


def test_no_squeezing_recovers_bare():
    cfg = make_config(db=0.0)
    theta = np.linspace(0.1, np.pi - 0.1, 7)
    phi = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
    f_plus, f_minus = scatter.scattering_amplitudes(cfg, direction(theta, phi))
    assert np.allclose(f_minus, 0.0)
    mode_amp = cfg.mode.amplitude(direction(theta, phi))
    assert np.allclose(np.abs(f_plus), np.abs(mode_amp))


def test_f_minus_vanishes_outside_beam_support():
    cfg = make_config()
    # beam propagates along -z: the +z hemisphere is outside its support
    _, f_minus = scatter.scattering_amplitudes(cfg, direction([0.4], [1.0]))
    assert np.allclose(f_minus, 0.0)


def test_cross_section_matches_recoil_ratio():
    for na, phi in [(0.5, 0.0), (0.9, np.pi), (0.7, 2.1)]:
        cfg = make_config(na=na, phi=phi)
        total = scatter.integrated_cross_section(cfg)
        assert total == pytest.approx(cfg.ratio, rel=1e-9)


def test_bare_backscattering_dominates():
    cfg = make_config(db=0.0)
    backward = scatter.differential_cross_section(cfg, direction([np.pi], [0.0]))[0]
    forward = scatter.differential_cross_section(cfg, direction([0.0], [0.0]))[0]
    sample_t = np.linspace(0.05, np.pi - 0.05, 40)
    sample_p = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    tt, pp = np.meshgrid(sample_t, sample_p)
    values = scatter.differential_cross_section(cfg, direction(tt.ravel(), pp.ravel()))
    assert forward == pytest.approx(0.0, abs=1e-15)
    assert backward >= values.max() - 1e-12


def test_bare_azimuthal_symmetry():
    cfg = make_config(db=0.0)
    theta = np.full(16, 2.0)
    phi = np.linspace(0.1, np.pi - 0.1, 16)
    base = scatter.differential_cross_section(cfg, direction(theta, phi))
    mirrored = scatter.differential_cross_section(cfg, direction(theta, -phi))
    reflected = scatter.differential_cross_section(cfg, direction(theta, np.pi - phi))
    assert np.allclose(base, mirrored, rtol=1e-12, atol=1e-15)
    assert np.allclose(base, reflected, rtol=1e-12, atol=1e-15)


def test_perfect_overlap_strong_squeezing_kills_scattering():
    # a beam profile identical to the mode pattern gives |xi| = 1; at the
    # optimal phase and large r the scattered power vanishes pointwise
    mode = angular.make_motion_distribution("z")
    beam = angular.AngularDistribution(
        "mode_clone", mode.amplitude, normalize=False
    )
    sq = squeeze.SqueezeParams(r_s=3.0, phi_s=0.0)
    cfg = scatter.ScatterConfig(mode=mode, beam=beam, sq=sq, absolute_phase=False)
    assert cfg.xi.modulus == pytest.approx(1.0, abs=1e-10)
    theta = np.linspace(0.1, np.pi - 0.1, 9)
    values = scatter.differential_cross_section(cfg, direction(theta, np.ones_like(theta)))
    assert np.max(np.abs(values)) < 2e-3  # ~ e^{-2r} * pattern scale


def test_squeezing_coefficient_matches_ratio_at_high_squeezing():
    # 2 Re(conj(xi) g) = ratio - 1 for a beam identical to the mode (|xi| = 1)
    mode = angular.make_motion_distribution("z")
    beam = angular.AngularDistribution("mode_clone", mode.amplitude, normalize=False)
    for db in range(0, 81, 5):
        sq = squeeze.SqueezeParams(r_s=squeeze.db_to_r(db), phi_s=0.0)
        cfg = scatter.ScatterConfig(mode=mode, beam=beam, sq=sq, absolute_phase=False)
        assert cfg.xi.modulus == pytest.approx(1.0, abs=1e-10)
        got = 2.0 * (np.conj(cfg.xi.xi) * cfg.g).real
        assert got == pytest.approx(cfg.ratio - 1.0, rel=1e-12)


def test_unaffected_where_beam_dark():
    bare = make_config(db=0.0, na=0.8, kind="libration", axis="y", beam_axis=(0, 0, 1))
    squeezed = make_config(db=15.0, na=0.8, kind="libration", axis="y", beam_axis=(0, 0, 1))
    # co-propagating beam leaves the -z hemisphere dark: bare pattern survives
    theta = np.linspace(np.pi / 2 + 0.05, np.pi - 0.05, 11)
    phi = np.linspace(0, 2 * np.pi, 11, endpoint=False)
    a = scatter.differential_cross_section(bare, direction(theta, phi))
    b = scatter.differential_cross_section(squeezed, direction(theta, phi))
    assert np.allclose(a, b, atol=1e-12)


def test_irp_grid_normalization_and_metadata():
    cfg = make_config(na=0.5, phi=0.4)
    grid = scatter.irp_grid(cfg, n_theta=19, n_phi=36)
    assert grid.normalization == pytest.approx(cfg.ratio, rel=1e-9)
    assert grid.irp.shape == (19, 36)
    assert np.allclose(grid.irp * grid.normalization, grid.dsigma)
    assert grid.metadata["has_negative_values"] == bool(grid.dsigma.min() < 0)
    assert grid.metadata["xi_modulus"] == pytest.approx(cfg.xi.modulus)


# 80x360 is three blocks of 22 theta rows and a partial one; with
# n_phi > BLOCK every block is a single row.
@pytest.mark.parametrize("n_theta, n_phi", [(80, 360), (3, angular.BLOCK + 5)])
def test_irp_grid_blocks_match_one_shot(n_theta, n_phi, monkeypatch):
    cfg = make_config(na=0.7, axis="y", phi=0.4, db=10.0)
    sizes = []

    def spy(theta, phi):
        sizes.append(theta.size)
        return angular.spherical_basis(theta, phi)

    monkeypatch.setattr(scatter, "spherical_basis", spy)
    grid = scatter.irp_grid(cfg, n_theta=n_theta, n_phi=n_phi)
    # whole theta rows, at most BLOCK points unless one row is more
    assert sum(sizes) == n_theta * n_phi and len(sizes) > 1
    assert all(size % n_phi == 0 and size <= max(angular.BLOCK, n_phi) for size in sizes)
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    f_plus, f_minus = scatter.scattering_amplitudes(cfg, direction(tt.ravel(), pp.ravel()))
    fp2 = np.sum(np.abs(f_plus) ** 2, axis=0)
    fm2 = np.sum(np.abs(f_minus) ** 2, axis=0)
    dsigma = fp2 - fm2
    total = scatter.integrated_cross_section(cfg)
    expected = np.column_stack([tt.ravel(), pp.ravel(), dsigma, dsigma / total, fp2, fm2])
    assert np.array_equal(grid.table, expected)
    for name in scatter.IRP_COLUMNS[2:]:
        field = getattr(grid, name)
        assert np.shares_memory(field, grid.table)
        assert np.array_equal(field, expected[:, scatter.IRP_COLUMNS.index(name)].reshape(n_theta, n_phi))
    assert grid.normalization == total
    assert grid.metadata["min_dsigma"] == dsigma.min()
    assert grid.metadata["max_dsigma"] == dsigma.max()


def test_irp_suppression_grows_with_na():
    # stronger focusing overlaps the back-scattering lobe better, so the
    # total inelastic scattering drops
    totals = [
        scatter.integrated_cross_section(make_config(na=na, db=13.0))
        for na in (0.1, 0.5, 0.9)
    ]
    assert totals[0] > totals[1] > totals[2]


def test_libration_bare_donut():
    cfg = make_config(kind="libration", axis="y", db=0.0)
    along = scatter.differential_cross_section(cfg, direction([np.pi / 2], [np.pi / 2]))[0]
    perp = scatter.differential_cross_section(cfg, direction([np.pi / 2], [0.0]))[0]
    assert along == pytest.approx(0.0, abs=1e-15)
    assert perp > 0.1


def test_irp_grid_validation():
    cfg = make_config()
    with pytest.raises(ConfigError):
        scatter.irp_grid(cfg, n_theta=1, n_phi=36)


def test_unnormalized_beam_rejected():
    mode = angular.make_motion_distribution("z")
    beam = angular.AngularDistribution(
        "dim", lambda k: 0.5 * mode.amplitude(k), normalize=False
    )
    with pytest.raises(ConfigError):
        scatter.ScatterConfig(
            mode=mode, beam=beam, sq=squeeze.SqueezeParams(r_s=1.0)
        )
