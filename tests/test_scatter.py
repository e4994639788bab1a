import math

import numpy as np
import pytest

from levsqueeze import angular, scatter, squeeze
from levsqueeze.errors import ConfigError, NumericalFailure


def direction(theta, phi):
    """Unit propagation vectors at the given angles, pointwise, shape (3, n)."""
    theta, phi = np.atleast_1d(theta), np.atleast_1d(phi)
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


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
    beam = angular.AngularDistribution(mode.amplitude)
    sq = squeeze.SqueezeParams(r_s=3.0, phi_s=0.0)
    cfg = scatter.ScatterConfig(mode=mode, beam=beam, sq=sq, absolute_phase=False)
    assert cfg.xi.modulus == pytest.approx(1.0, abs=1e-10)
    theta = np.linspace(0.1, np.pi - 0.1, 9)
    values = scatter.differential_cross_section(cfg, direction(theta, np.ones_like(theta)))
    assert np.max(np.abs(values)) < 2e-3  # ~ e^{-2r} * pattern scale


def test_squeezing_coefficient_matches_ratio_at_high_squeezing():
    # 2 Re(conj(xi) g) = ratio - 1 for a beam identical to the mode (|xi| = 1)
    mode = angular.make_motion_distribution("z")
    beam = angular.AngularDistribution(mode.amplitude)
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
    table, metadata = scatter.irp_grid(cfg, n_theta=19, n_phi=36)
    assert metadata["normalization"] == metadata["ratio"] == cfg.ratio
    dsigma, irp = table[:, 2], table[:, 3]
    assert table.shape == (19 * 36, len(scatter.IRP_COLUMNS))
    assert np.array_equal(irp, dsigma / cfg.ratio)
    assert metadata["has_negative_values"] == bool(dsigma.min() < 0)
    assert metadata["xi_modulus"] == pytest.approx(cfg.xi.modulus)


# 80x360 is three blocks of 22 theta rows and a partial one; with
# n_phi > BLOCK every block is a single row.
@pytest.mark.parametrize("n_theta, n_phi", [(80, 360), (3, angular.BLOCK + 5)])
def test_irp_grid_blocks_match_one_shot(n_theta, n_phi, monkeypatch):
    cfg = make_config(na=0.7, axis="y", phi=0.4, db=10.0)
    sizes = []

    def spy(theta, phi):
        assert phi.size == n_phi
        sizes.append(theta.size * phi.size)
        return angular.spherical_basis(theta, phi)

    monkeypatch.setattr(scatter, "spherical_basis", spy)
    table, metadata = scatter.irp_grid(cfg, n_theta=n_theta, n_phi=n_phi)
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
    expected = np.column_stack([tt.ravel(), pp.ravel(), dsigma, dsigma / cfg.ratio, fp2, fm2])
    assert np.array_equal(table, expected)
    assert metadata["normalization"] == cfg.ratio
    assert metadata["min_dsigma"] == dsigma.min()
    assert metadata["max_dsigma"] == dsigma.max()


@pytest.mark.parametrize("kind, axis, beam_axis", [("motion", "z", (0, 0, -1)), ("libration", "y", (1, 1, -1))])
def test_one_dsigma_formula(kind, axis, beam_axis):
    # the IRP table, the pointwise cross section and the integrated total
    # share one dsigma; the IRP is normalized by the exact total
    cfg = make_config(na=0.6, axis=axis, kind=kind, db=12.0, phi=0.9, beam_axis=beam_axis)
    table, metadata = scatter.irp_grid(cfg, n_theta=13, n_phi=24)
    k = direction(table[:, 0], table[:, 1])
    assert np.array_equal(table[:, 2], scatter.differential_cross_section(cfg, k))
    dsigma = lambda k: [scatter.differential_cross_section(cfg, k)]  # noqa: E731
    total = angular.integrate_sphere(dsigma, cfg.rule, axis=cfg.beam.support_axis)
    assert scatter.integrated_cross_section(cfg) == total
    assert metadata["normalization"] == cfg.ratio


def signed_pair(na, axis, a_plus, a_minus):
    """a_plus beam(n) - a_minus beam(-n): square-normalized for
    a_plus^2 + a_minus^2 = 1, but no make_beam weight gives its sign."""
    beam, partner = angular.make_gaussian_beam(na, axis), angular.make_gaussian_beam(na, -np.asarray(axis, float))
    return angular.AngularDistribution(
        lambda k: a_plus * beam.amplitude(k) - a_minus * partner.amplitude(k), support_axis=beam.support_axis
    )


def rotated_pattern(kind, axis, rotation_axis):
    """A mode pattern carried by a rotation, used as a beam."""
    return angular.rotated(angular.make_mode(kind, axis), angular.rotation_to_axis(rotation_axis))


@pytest.mark.parametrize(
    "mode, beam, db, phi",
    [
        (("motion", "z"), lambda: signed_pair(0.7, (0.3, -0.5, -0.8), 0.8, 0.6), 12.0, 0.9),
        (("motion", "x"), lambda: signed_pair(0.5, (1.0, 1.0, 1.0), 0.6, 0.8), 6.0, 2.5),
        (("libration", "z"), lambda: signed_pair(0.9, (0.6, -0.2, -1.0), np.sqrt(0.5), np.sqrt(0.5)), 15.0, 0.0),
        (("motion", "y"), lambda: rotated_pattern("motion", "z", (1.0, -2.0, 0.5)), 10.0, 1.3),
        (("libration", "y"), lambda: rotated_pattern("libration", "z", (0.2, 0.1, -1.0)), 20.0, np.pi),
        (("motion", "z"), lambda: rotated_pattern("motion", "z", (0.3, 0.4, -1.0)), 3.0, 4.0),
    ],
    ids=[
        "pair-motion-z", "pair-motion-x", "pair-libration-z", "rotated-motion-y", "rotated-libration-y", "rotated-motion-z"
    ],
)
def test_columns_integrate_to_closed_forms(mode, beam, db, phi):
    # for any square-normalized beam b and mode v, with xi = int v . b and
    # g = ScatterConfig.g: int f_minus_sq = |g|^2,
    # int f_plus_sq = 1 + 2 Re(conj(g) xi) + |g|^2, and int dsigma = ratio,
    # the exact IRP total irp_grid divides by
    rule = angular.QuadratureRule(256, 512)
    sq = squeeze.SqueezeParams(r_s=squeeze.db_to_r(db), phi_s=phi)
    cfg = scatter.ScatterConfig(mode=angular.make_mode(*mode), beam=beam(), sq=sq, absolute_phase=False, rule=rule)
    g, xi = cfg.g, cfg.xi.xi

    def column(index):
        return angular.integrate_sphere(
            lambda k: np.abs(scatter.scattering_amplitudes(cfg, k)[index]) ** 2, rule, axis=cfg.beam.support_axis
        )

    assert column(1) == pytest.approx(abs(g) ** 2, rel=0, abs=1e-12)
    assert column(0) == pytest.approx(1.0 + 2.0 * (np.conj(g) * xi).real + abs(g) ** 2, rel=0, abs=1e-12)
    assert scatter.integrated_cross_section(cfg) == pytest.approx(cfg.ratio, rel=0, abs=1e-12)


MODES = [("motion", "x"), ("motion", "y"), ("motion", "z"), ("libration", "y"), ("libration", "z")]


@pytest.mark.parametrize("db", [0.0, 15.0, 30.0])
@pytest.mark.parametrize("kind, axis", MODES, ids=[f"{kind}-{axis}" for kind, axis in MODES])
def test_irp_at_mode_matching_is_the_mode_power(kind, axis, db):
    # the mode pattern v = e^{i a} u (u real) as its own beam: xi = int v . v
    # = e^{2 i a}, so f_plus = -e^{i a} u (1 + g e^{-2 i a}) with
    # 1 + 2 Re(g e^{-2 i a}) = sxx = ratio, and dsigma = ratio |v|^2 pointwise
    mode = angular.make_mode(kind, axis)
    n_theta, n_phi = 37, 72
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    power = np.sum(np.abs(mode.amplitude(angular.spherical_basis(theta, phi))) ** 2, axis=0)
    r = squeeze.db_to_r(db)
    for phi_s, absolute_phase in [(0.0, False), (1.3, False), (4.0, True), (-2.2, True)]:
        sq = squeeze.SqueezeParams(r_s=r, phi_s=phi_s)
        cfg = scatter.ScatterConfig(mode=mode, beam=mode, sq=sq, absolute_phase=absolute_phase)
        assert cfg.xi.modulus == pytest.approx(1.0, abs=1e-15)
        table, _ = scatter.irp_grid(cfg, n_theta, n_phi)
        assert np.array_equal(table[:, 0], np.repeat(theta, n_phi)) and np.array_equal(table[:, 1], np.tile(phi, n_theta))
        assert np.abs(table[:, 3] - power).max() <= 1e-15 * (1.0 + math.exp(2.0 * r))


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
