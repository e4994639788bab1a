import re

import numpy as np
import pytest

from levsqueeze import angular
from levsqueeze.errors import ConfigError, NumericalFailure


def test_quadrature_weights_sum_to_sphere():
    for axis in (None, [0, 0, -1], [1, 1, 1]):
        k, w = angular.DEFAULT_RULE.nodes(axis=axis)
        assert w.sum() == pytest.approx(4.0 * np.pi, rel=1e-13)
        assert (w > 0).all()
        assert np.allclose(np.sum(k * k, axis=0), 1.0, rtol=0, atol=1e-15)


def test_quadrature_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        angular.QuadratureRule(n_theta=31)
    with pytest.raises(ConfigError):
        angular.QuadratureRule(n_phi=1)


def test_integrate_constant():
    value = angular.integrate_sphere(
        lambda k: np.stack([np.ones_like(k[0]), np.zeros_like(k[0])])
    )
    assert value == pytest.approx(4.0 * np.pi, rel=1e-13)


def test_integrate_rejects_nonfinite():
    def bad(k):
        out = np.stack([np.ones_like(k[0]), np.zeros_like(k[0])])
        out[0, 3] = np.nan
        return out

    with pytest.raises(NumericalFailure):
        angular.integrate_sphere(bad)


# 128x256 is exactly four blocks, 130x250 three and a partial one.
@pytest.mark.parametrize("rule", [angular.QuadratureRule(128, 256), angular.QuadratureRule(130, 250)])
def test_integrate_sphere_blocks_match_one_shot(rule):
    beam = angular.make_beam(0.6, axis=(1.0, 1.0, -1.0), weight=0.3, rule=rule)
    mode = angular.make_mode("motion", "y", rule)
    sizes = []

    def field_product(k):
        sizes.append(k.shape[1])
        return beam.amplitude(k) * mode.amplitude(k)

    k, w = rule.nodes(axis=beam.support_axis)
    for f in (beam._abs2, field_product):
        one_shot = np.sum(np.asarray(f(k)).sum(0) * w)
        sizes.clear()
        assert angular.integrate_sphere(f, rule, axis=beam.support_axis) == one_shot
    assert sum(sizes) == k.shape[1]
    assert max(sizes) <= angular.BLOCK < k.shape[1]


def test_integrate_rejects_nonfinite_in_a_later_block():
    rule = angular.QuadratureRule(130, 250)
    axis = (0.0, 1.0, 1.0)
    k, _ = rule.nodes(axis=axis)
    node = k[:, 3 * angular.BLOCK + 5]

    def bad(k):
        return np.where(np.all(k == node[:, None], axis=0), np.nan, 1.0)[None]

    message = "non-finite integrand at node k = (%.6f, %.6f, %.6f)" % tuple(node)
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        angular.integrate_sphere(bad, rule, axis=axis)


def test_spherical_basis_orthonormal():
    theta = np.array([0.3, 1.2, 2.8])
    phi = np.array([0.1, 2.0, 5.5])
    e_k, e_t, e_p = angular.spherical_basis(theta, phi)
    for a in (e_k, e_t, e_p):
        assert np.allclose(np.sum(a * a, axis=0), 1.0)
    assert np.allclose(np.sum(e_k * e_t, axis=0), 0.0, atol=1e-15)
    assert np.allclose(np.cross(e_k.T, e_t.T), e_p.T)


def test_motion_patterns_normalized():
    for axis in ("x", "y", "z"):
        dist = angular.make_motion_distribution(axis)
        assert dist.is_normalized
        # the closed-form geometry factor already normalizes the pattern
        assert dist.prenormalization_norm == pytest.approx(1.0, abs=1e-12)


def test_libration_patterns_normalized():
    for axis in ("y", "z"):
        dist = angular.make_libration_distribution(axis)
        assert dist.is_normalized
        assert dist.prenormalization_norm == pytest.approx(1.0, abs=1e-12)


def test_motion_orthogonality():
    dists = [angular.make_motion_distribution(a) for a in ("x", "y", "z")]
    for i, a in enumerate(dists):
        for j, b in enumerate(dists):
            expected = 1.0 if i == j else 0.0
            got = angular.overlap_hermitian(a, b)
            assert got == pytest.approx(expected, abs=1e-10)


def test_beam_requires_valid_na():
    with pytest.raises(ConfigError):
        angular.make_gaussian_beam(na=0.0, propagation_axis=[0, 0, -1])
    with pytest.raises(ConfigError):
        angular.make_gaussian_beam(na=1.5, propagation_axis=[0, 0, -1])


def test_beam_support_hemisphere():
    beam = angular.make_gaussian_beam(na=0.7, propagation_axis=[0, 0, -1])
    forward = beam.amplitude(angular.spherical_basis([0.3], [0.0])[0])
    backward = beam.amplitude(angular.spherical_basis([np.pi - 0.3], [0.0])[0])
    assert np.all(forward == 0.0)
    assert np.any(np.abs(backward) > 0.0)


def test_beam_overlap_rotation_invariant():
    # rotating beam and mode together must leave the overlap unchanged
    beam = angular.make_gaussian_beam(na=0.8, propagation_axis=[0, 0, -1])
    mode = angular.make_motion_distribution("z")
    base = angular.overlap(beam, mode)
    rot = angular.rotation_to_axis(np.array([1.0, 1.0, 0.5]))
    got = angular.overlap(angular.rotated(beam, rot), angular.rotated(mode, rot))
    assert got == pytest.approx(base, abs=5e-9)


def test_rotated_preserves_norm():
    beam = angular.make_gaussian_beam(na=0.5, propagation_axis=[0, 0, -1])
    rot = angular.rotation_to_axis(np.array([0.3, -0.7, 0.2]))
    moved = angular.rotated(beam, rot)
    assert moved.norm_squared == pytest.approx(1.0, abs=1e-10)


def test_overlap_variants_differ_by_conjugation():
    beam = angular.make_gaussian_beam(na=0.6, propagation_axis=[0, 0, -1])
    mode = angular.make_motion_distribution("z")
    plain = angular.overlap(beam, mode)
    herm = angular.overlap_hermitian(beam, mode)
    # the motion pattern is i * (real function): conjugation flips the sign
    assert plain == pytest.approx(-herm, abs=1e-12)


def test_superpose_counterpropagating_keeps_axis():
    a = angular.make_gaussian_beam(na=0.5, propagation_axis=[0, 0, 1])
    b = angular.make_gaussian_beam(na=0.5, propagation_axis=[0, 0, -1])
    mix = angular.superpose([a, b], [np.sqrt(0.5), np.sqrt(0.5)])
    assert mix.support_axis is not None
    assert mix.is_normalized


def test_unnormalized_overlap_warns():
    beam = angular.make_gaussian_beam(na=0.5, propagation_axis=[0, 0, -1])
    shrunk = angular.AngularDistribution(
        "half",
        lambda k: 0.5 * beam.amplitude(k),
        support_axis=beam.support_axis,
        normalize=False,
    )
    mode = angular.make_motion_distribution("z")
    with pytest.warns(UserWarning):
        angular.overlap(shrunk, mode)


def test_make_mode_dispatches_on_kind():
    assert angular.make_mode("motion", "x").label == "motion_x"
    assert angular.make_mode("libration", "y").label == "libration_y"
    with pytest.raises(ConfigError):
        angular.make_mode("breathing", "z")


def test_make_beam_weight_mixes_counterpropagating_pair():
    single = angular.make_beam(0.6, [0, 0, -1], polarization_angle=0.4)
    reference = angular.make_gaussian_beam(na=0.6, propagation_axis=[0, 0, -1], polarization_angle=0.4)
    mode = angular.make_motion_distribution("z")
    assert angular.overlap(single, mode) == angular.overlap(reference, mode)
    pair = angular.make_beam(0.6, [0, 0, -1], polarization_angle=0.4, weight=0.3)
    assert pair.is_normalized and pair.support_axis is not None
    with pytest.raises(ConfigError):
        angular.make_beam(0.6, weight=1.5)


MODES = [("motion", "x"), ("motion", "y"), ("motion", "z"), ("libration", "y"), ("libration", "z")]


def test_gaussian_overlap_matches_fine_quadrature():
    # random modes, apertures, axes, polarizations and weights; at 256x512
    # the quadrature resolves these beams to rounding
    rng = np.random.default_rng(20)
    fine = angular.QuadratureRule(256, 512)
    for case in range(12):
        kind, axis = MODES[case % len(MODES)]
        na, direction = rng.uniform(0.2, 0.95), rng.normal(size=3)
        pol, weight = rng.uniform(0.0, 2.0 * np.pi), (0.0, 1.0, rng.uniform())[case % 3]
        exact = angular.gaussian_overlap(kind, axis, na, direction, pol, weight)
        beam = angular.make_beam(na, direction, pol, weight, rule=fine)
        assert abs(exact - angular.overlap(beam, angular.make_mode(kind, axis, rule=fine))) < 1e-13


def test_envelope_moments_closed_forms():
    # F1, F3 and delta are elementary in E = exp(-1/NA^2); beta equals
    # (F0 - F2) / 2 up to the rounding of that difference
    for na in (0.02, 0.05, 0.158, 0.2, 0.5, 0.9, 1.0):
        b, e = na * na, np.exp(-1.0 / (na * na))
        f0, f1, f2, f3, beta, delta = angular.envelope_moments(na)
        assert f1 == pytest.approx(np.pi * b * (1.0 - e), rel=1e-14)
        assert f3 == pytest.approx(np.pi * b * (1.0 - b * (1.0 - e)), rel=1e-14)
        assert delta == pytest.approx(0.5 * np.pi * b * b * (1.0 - e * (1.0 + 1.0 / b)), rel=1e-13)
        assert beta == pytest.approx((f0 - f2) / 2.0, rel=1e-13 * f0 / beta)


def test_gaussian_overlap_validates_like_make_beam():
    for bad in (
        dict(na=0.0),
        dict(na=1.5),
        dict(na=0.5, axis=[0.0, 0.0, 0.0]),
        dict(na=0.5, weight=-0.1),
    ):
        with pytest.raises(ConfigError):
            angular.gaussian_overlap("motion", "z", **bad)
    for kind, axis in (("motion", "w"), ("libration", "x"), ("breathing", "z")):
        with pytest.raises(ConfigError):
            angular.gaussian_overlap(kind, axis, 0.5)
