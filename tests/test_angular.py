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
    beam = angular.make_beam(0.6, axis=(1.0, 1.0, -1.0), weight=0.3)
    mode = angular.make_mode("motion", "y")
    sizes = []

    def squared_field(k):
        return np.abs(beam.amplitude(k)) ** 2

    def field_product(k):
        sizes.append(k.shape[1])
        return beam.amplitude(k) * mode.amplitude(k)

    k, w = rule.nodes(axis=beam.support_axis)
    for f in (squared_field, field_product):
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


def test_spherical_basis_is_the_theta_major_grid():
    theta = np.array([0.3, 1.2, 2.8])
    phi = np.array([0.1, 2.0, 5.5, 6.0])
    k = angular.spherical_basis(theta, phi)
    assert np.allclose(np.sum(k * k, axis=0), 1.0)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    pointwise = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)])
    assert np.array_equal(k, pointwise.reshape(3, -1))


def test_motion_patterns_normalized():
    # the closed-form geometry factor normalizes the pattern; 64x128
    # integrates its polynomial exactly
    for axis in ("x", "y", "z"):
        dist = angular.make_motion_distribution(axis)
        assert abs(angular.overlap_hermitian(dist, dist, angular.DEFAULT_RULE) - 1.0) < 1e-12


def test_libration_patterns_normalized():
    for axis in ("y", "z"):
        dist = angular.make_libration_distribution(axis)
        assert abs(angular.overlap_hermitian(dist, dist, angular.DEFAULT_RULE) - 1.0) < 1e-12


def test_beams_normalized_in_closed_form():
    # random apertures, axes, polarizations and weights; 256x512 resolves
    # these beams, so their squared norm is 1 to the rule's rounding
    rng = np.random.default_rng(21)
    fine = angular.QuadratureRule(256, 512)
    for case in range(20):
        na, direction = rng.uniform(0.2, 1.0), rng.normal(size=3)
        pol, weight = rng.uniform(0.0, 2.0 * np.pi), (0.0, 1.0, rng.uniform())[case % 3]
        beam = angular.make_beam(na, direction, pol, weight)
        assert abs(angular.overlap_hermitian(beam, beam, fine) - 1.0) < 1e-12


@pytest.mark.parametrize("na", [0.02, 0.05, 0.1])
def test_narrow_beams_normalized_in_closed_form(na):
    # 1024x16 resolves a narrow envelope that 64x128 does not
    rule = angular.QuadratureRule(1024, 16)
    for axis, weight in (((0.0, 0.0, -1.0), 0.0), ((1.0, -2.0, 0.5), 0.4)):
        beam = angular.make_beam(na, axis, 0.7, weight)
        assert abs(angular.overlap_hermitian(beam, beam, rule) - 1.0) < 1e-11


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
    forward = beam.amplitude(angular.spherical_basis([0.3], [0.0]))
    backward = beam.amplitude(angular.spherical_basis([np.pi - 0.3], [0.0]))
    assert np.all(forward == 0.0)
    assert np.any(np.abs(backward) > 0.0)


def rodrigues_rotation_to_axis(axis):
    """Reference: the minimal rotation e_z -> axis from Rodrigues' formula,
    with the diag(-1, 1, -1) convention at -e_z."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    cross = np.cross([0.0, 0.0, 1.0], n)
    s = np.linalg.norm(cross)
    if s < 1e-14:
        return np.eye(3) if n[2] > 0.0 else np.diag([-1.0, 1.0, -1.0])
    k = cross / s
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    angle = np.arctan2(s, n[2])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


# (axis, u, v) for the Cartesian axes: exact frames, no rounding residue
CARTESIAN_FRAMES = [
    ((1, 0, 0), (0, 0, -1), (0, 1, 0)),
    ((-1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
    ((0, -1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((0, 0, -1), (-1, 0, 0), (0, 1, 0)),
]


def test_rotation_to_axis_matches_rodrigues():
    rng = np.random.default_rng(23)
    near_minus_z = [(eps * np.cos(a), eps * np.sin(a), -1.0) for eps in (1e-7, 1e-13) for a in (0.0, 1.0, 4.0)]
    axes = [axis for axis, _, _ in CARTESIAN_FRAMES] + near_minus_z + list(rng.normal(size=(2000, 3)))
    axes += list(rng.normal(scale=1e-3, size=(200, 3)) + [0.0, 0.0, -1.0])
    for axis in axes:
        rot = angular.rotation_to_axis(axis)
        n = np.asarray(axis, float) / np.linalg.norm(axis)
        assert np.abs(rot - rodrigues_rotation_to_axis(axis)).max() <= 2e-15
        assert np.abs(rot @ rot.T - np.eye(3)).max() <= 4e-15
        assert np.abs(rot[:, 2] - n).max() <= 2.3e-16  # R e_z = n, to the rounding of n
    for axis, u, v in CARTESIAN_FRAMES:
        assert np.array_equal(angular.rotation_to_axis(axis), np.column_stack([u, v, axis]))
    with pytest.raises(ConfigError):
        angular.rotation_to_axis([0.0, 0.0, 0.0])


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
    assert abs(angular.overlap_hermitian(moved, moved) - 1.0) < 1e-12


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
    mix = angular.superpose(a, b, 0.5)
    assert mix.support_axis is not None
    assert abs(angular.overlap_hermitian(mix, mix) - 1.0) < 1e-12


def test_make_mode_matches_closed_forms_and_affine_rows():
    # every field against its closed form, written out here, and against
    # C P_k (a + B k) with a = -t e and B = e s^T of its _pattern row, at
    # fixed directions that include the Cartesian axes; the two orders of
    # operation round terms as large as |C| (1 + |t|) a few times apart
    rng = np.random.default_rng(31)
    k = rng.normal(size=(3, 200))
    k = np.concatenate([k / np.linalg.norm(k, axis=0), np.eye(3), -np.eye(3)], axis=1)
    e = {axis: vector[:, None] for axis, vector in angular.AXES.items()}
    length = {"x": 1.0 / 5.0, "y": 2.0 / 5.0, "z": 7.0 / 5.0}
    closed = {("motion", axis): 1j * np.sqrt(3.0 / (8.0 * np.pi * length[axis])) * (e["x"] - k[0] * k)
              * (k["xyz".index(axis)] - (axis == "z")) for axis in "xyz"}
    closed.update({("libration", axis): -np.sqrt(3.0 / (8.0 * np.pi)) * (e[axis] - k["xyz".index(axis)] * k)
                   for axis in "yz"})
    for (kind, axis), field in closed.items():
        got = angular.make_mode(kind, axis).amplitude(k)
        assert np.array_equal(got, field)
        c, e_row, s_row, t = angular._pattern(kind, axis)
        v = (-t * e_row)[:, None] + np.outer(e_row, s_row) @ k
        affine = c * (v - np.sum(k * v, axis=0) * k)
        assert np.abs(got - affine).max() <= 4.0 * np.finfo(float).eps * abs(c) * (1.0 + abs(t))
    with pytest.raises(ConfigError):
        angular.make_mode("breathing", "z")


def test_make_beam_weight_mixes_counterpropagating_pair():
    single = angular.make_beam(0.6, [0, 0, -1], polarization_angle=0.4)
    reference = angular.make_gaussian_beam(na=0.6, propagation_axis=[0, 0, -1], polarization_angle=0.4)
    mode = angular.make_motion_distribution("z")
    assert angular.overlap(single, mode) == angular.overlap(reference, mode)
    pair = angular.make_beam(0.6, [0, 0, -1], polarization_angle=0.4, weight=0.3)
    assert pair.support_axis is not None
    assert abs(angular.overlap_hermitian(pair, pair) - 1.0) < 1e-12
    with pytest.raises(ConfigError):
        angular.make_beam(0.6, weight=1.5)


MODES = [("motion", "x"), ("motion", "y"), ("motion", "z"), ("libration", "y"), ("libration", "z")]


def test_gaussian_overlap_matches_fine_quadrature():
    # random modes, apertures, axes, polarizations and weights; each rule
    # resolves its beams to rounding, 1024x16 the narrow envelopes
    rng = np.random.default_rng(20)
    for na_range, rule, tolerance in (
        ((0.2, 0.95), angular.QuadratureRule(256, 512), 1e-13),
        ((0.01, 0.2), angular.QuadratureRule(1024, 16), 1e-12),
    ):
        for case in range(12):
            kind, axis = MODES[case % len(MODES)]
            na, direction = rng.uniform(*na_range), rng.normal(size=3)
            pol, weight = rng.uniform(0.0, 2.0 * np.pi), (0.0, 1.0, rng.uniform())[case % 3]
            exact = angular.gaussian_overlap(kind, axis, na, direction, pol, weight)
            beam = angular.make_beam(na, direction, pol, weight)
            assert abs(exact - angular.overlap(beam, angular.make_mode(kind, axis), rule)) < tolerance


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
