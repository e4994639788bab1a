"""Angular/polarization amplitude distributions on the unit sphere.

A distribution assigns a complex amplitude to every propagation direction
and transverse polarization (components along the spherical unit vectors
e_theta, e_phi of the global frame).  All built-in distributions are
square-normalized at construction:  integral over the sphere of the
polarization-summed squared modulus equals 1.

Integration uses a product rule: Gauss-Legendre in cos(theta) with the
domain split at the equator of the integration frame (so a hemisphere
support cut never straddles a node), and a uniform periodic trapezoid in
phi.  Beams carry a preferred axis; integrals involving them are taken on
a grid aligned with that axis, which handles the hemisphere edge exactly
and makes overlaps invariant under joint rotations.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure

AXES = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}

# Geometry factors of the three motional coupling patterns: (1, 2, 7) / 5.
MOTION_GEOMETRY_FACTORS = {"x": 1.0 / 5.0, "y": 2.0 / 5.0, "z": 7.0 / 5.0}

NORM_TOLERANCE = 1e-6


def spherical_basis(theta, phi):
    """Unit vectors (e_k, e_theta, e_phi) at the given angles, shape (3, ...)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    e_k = np.stack([st * cp, st * sp, ct])
    e_t = np.stack([ct * cp, ct * sp, -st])
    e_p = np.stack([-sp, cp, np.zeros_like(sp)])
    return e_k, e_t, e_p


def angles_from_vectors(v):
    """Inverse of the direction map: (3, ...) unit vectors -> (theta, phi)."""
    theta = np.arccos(np.clip(v[2], -1.0, 1.0))
    phi = np.mod(np.arctan2(v[1], v[0]), 2.0 * np.pi)
    return theta, phi


def rotation_to_axis(axis):
    """Rotation matrix mapping e_z onto `axis` (minimal rotation).

    For axis == -e_z the rotation axis is degenerate; the convention is a
    rotation about e_y by pi.
    """
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise ConfigError("axis vector must be nonzero")
    n = n / norm
    cross = np.cross([0.0, 0.0, 1.0], n)
    s = np.linalg.norm(cross)
    c = n[2]
    if s < 1e-14:
        if c > 0.0:
            return np.eye(3)
        return np.diag([-1.0, 1.0, -1.0])  # rotation about e_y by pi
    k = cross / s
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    angle = np.arctan2(s, c)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


@functools.lru_cache(maxsize=32)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class QuadratureRule:
    """Product quadrature on the sphere.

    n_theta Gauss-Legendre nodes in cos(theta), split evenly between the
    two hemispheres of the integration frame; n_phi uniform nodes in phi
    (periodic trapezoid, exact for trigonometric polynomials of degree
    < n_phi).
    """

    n_theta: int = 64
    n_phi: int = 128

    def __post_init__(self):
        if self.n_theta < 2 or self.n_theta % 2:
            raise ConfigError("n_theta must be an even integer >= 2")
        if self.n_phi < 2:
            raise ConfigError("n_phi must be >= 2")

    def nodes(self, axis=None):
        """Node angles (global frame) and weights, flattened.

        If `axis` is given the grid is generated in a frame whose polar
        axis is `axis`; node positions are returned as global (theta, phi).
        Weights are positive and sum to 4*pi.
        """
        half = self.n_theta // 2
        x, w = _leggauss(half)
        # map [-1, 1] -> [0, 1] and [-1, 0]
        upper = 0.5 * (x + 1.0)
        lower = 0.5 * (x - 1.0)
        cos_t = np.concatenate([lower, upper])
        w_t = np.concatenate([0.5 * w, 0.5 * w])
        phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        w_p = np.full(self.n_phi, 2.0 * np.pi / self.n_phi)

        ct, p = np.meshgrid(cos_t, phi, indexing="ij")
        weight = np.outer(w_t, w_p).ravel()
        theta = np.arccos(np.clip(ct.ravel(), -1.0, 1.0))
        phi_flat = p.ravel()

        if axis is not None:
            rot = rotation_to_axis(axis)
            if not np.allclose(rot, np.eye(3)):
                e_k, _, _ = spherical_basis(theta, phi_flat)
                theta, phi_flat = angles_from_vectors(rot @ e_k)
        return theta, phi_flat, weight


DEFAULT_RULE = QuadratureRule()


def integrate_sphere(f, rule=DEFAULT_RULE, axis=None):
    """Quadrature approximation of integral over dOmega of sum_pol f.

    `f(theta, phi)` must accept arrays of angles and return a complex array
    of shape (2, n): the two polarization components (or one channel with
    the other zero).  Deterministic for a fixed rule (pairwise summation).
    """
    theta, phi, w = rule.nodes(axis=axis)
    values = np.asarray(f(theta, phi))
    if values.shape[-1] != theta.size:
        raise ConfigError("integrand returned a shape not matching the rule nodes")
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.argwhere(bad.any(axis=0)).ravel()[0])
        raise NumericalFailure(
            "non-finite integrand at node theta=%.6f phi=%.6f" % (theta[idx], phi[idx])
        )
    return np.sum(values.sum(axis=0) * w)


class AngularDistribution:
    """Square-integrable amplitude over (direction, polarization).

    Wraps a vectorized callable `func(theta, phi) -> (2, n)` giving the
    complex components along (e_theta, e_phi) of the global frame, plus an
    optional support axis (the amplitude vanishes outside the hemisphere
    centered on it).
    """

    def __init__(
        self,
        label,
        func,
        support_axis=None,
        params=None,
        normalize=True,
        rule=DEFAULT_RULE,
    ):
        self.label = label
        self._func = func
        self.support_axis = (
            None
            if support_axis is None
            else np.asarray(support_axis, float) / np.linalg.norm(support_axis)
        )
        self.params = dict(params or {})
        self.norm_rule = rule
        raw = integrate_sphere(self._abs2, rule, axis=self.support_axis)
        self.prenormalization_norm = float(np.sqrt(raw.real))
        if normalize:
            self._scale = 1.0 / self.prenormalization_norm
            self.norm_squared = 1.0
        else:
            self._scale = 1.0
            self.norm_squared = float(raw.real)

    def _abs2(self, theta, phi):
        a = np.asarray(self._func(theta, phi))
        return np.abs(a) ** 2

    def amplitude(self, theta, phi):
        """Complex components along (e_theta, e_phi), shape (2, n)."""
        return self._scale * np.asarray(self._func(theta, phi))

    @property
    def is_normalized(self):
        return abs(self.norm_squared - 1.0) <= NORM_TOLERANCE


def _integration_axis(a: AngularDistribution, b: AngularDistribution):
    if a.support_axis is not None:
        return a.support_axis
    return b.support_axis


def _check_normalized(*dists):
    for d in dists:
        if not d.is_normalized:
            warnings.warn(
                f"distribution '{d.label}' is not square-normalized "
                f"(norm^2 = {d.norm_squared:.6g}); overlap is not renormalized",
                stacklevel=3,
            )


def overlap(a: AngularDistribution, b: AngularDistribution, rule=None):
    """Overlap integral of a*b over the sphere, no complex conjugation."""
    return _overlap(a, b, rule, conjugate_b=False)


def overlap_hermitian(a: AngularDistribution, b: AngularDistribution, rule=None):
    """Hermitian overlap, integral of a * conj(b); 1 for a == b normalized."""
    return _overlap(a, b, rule, conjugate_b=True)


def _overlap(a, b, rule, conjugate_b):
    _check_normalized(a, b)
    rule = rule or DEFAULT_RULE
    axis = _integration_axis(a, b)

    def product(theta, phi):
        va = a.amplitude(theta, phi)
        vb = b.amplitude(theta, phi)
        if conjugate_b:
            vb = np.conj(vb)
        return va * vb

    return complex(integrate_sphere(product, rule, axis=axis))


def _polarization_projection(theta, phi, vector):
    """Components (e_theta . v, e_phi . v) of a fixed 3-vector, shape (2, n)."""
    _, e_t, e_p = spherical_basis(theta, phi)
    v = np.asarray(vector, float)
    return np.stack([np.tensordot(v, e_t, axes=(0, 0)), np.tensordot(v, e_p, axes=(0, 0))])


def make_motion_distribution(axis, arg_alpha0=0.0, rule=DEFAULT_RULE):
    """Coupling pattern of the center-of-mass motion along a Cartesian axis.

    i * exp(i arg_alpha0) * sqrt(3 / (8 pi l)) * (pol . e_x) * [(e_k - e_z) . e_axis],
    with the geometry factor l = (1, 2, 7) . e_axis / 5.
    """
    if axis not in MOTION_GEOMETRY_FACTORS:
        raise ConfigError(f"motion axis must be one of x, y, z, got {axis!r}")
    if not np.isfinite(arg_alpha0):
        raise ConfigError("arg_alpha0 must be finite")
    l_mu = MOTION_GEOMETRY_FACTORS[axis]
    e_mu = AXES[axis]
    prefactor = 1j * np.exp(1j * arg_alpha0) * np.sqrt(3.0 / (8.0 * np.pi * l_mu))

    def func(theta, phi):
        e_k, _, _ = spherical_basis(theta, phi)
        geometry = np.tensordot(e_mu, e_k, axes=(0, 0)) - e_mu[2]
        return prefactor * _polarization_projection(theta, phi, AXES["x"]) * geometry

    return AngularDistribution(
        f"motion_{axis}",
        func,
        params={"kind": "motion", "axis": axis, "arg_alpha0": arg_alpha0},
        rule=rule,
    )


def make_libration_distribution(axis, arg_alpha0=0.0, rule=DEFAULT_RULE):
    """Dipole coupling pattern of libration about the y or z axis:
    -exp(i arg_alpha0) * sqrt(3 / (8 pi)) * (pol . e_axis)."""
    if axis not in ("y", "z"):
        raise ConfigError(f"libration axis must be y or z, got {axis!r}")
    if not np.isfinite(arg_alpha0):
        raise ConfigError("arg_alpha0 must be finite")
    e_mu = AXES[axis]
    prefactor = -np.exp(1j * arg_alpha0) * np.sqrt(3.0 / (8.0 * np.pi))

    def func(theta, phi):
        return prefactor * _polarization_projection(theta, phi, e_mu)

    return AngularDistribution(
        f"libration_{axis}",
        func,
        params={"kind": "libration", "axis": axis, "arg_alpha0": arg_alpha0},
        rule=rule,
    )


def make_mode(kind, axis, rule=DEFAULT_RULE):
    """Coupling pattern of a mechanical mode: `motion` along, or `libration`
    about, the Cartesian `axis`."""
    if kind == "motion":
        return make_motion_distribution(axis, rule=rule)
    if kind == "libration":
        return make_libration_distribution(axis, rule=rule)
    raise ConfigError(f"mode kind must be motion or libration, got {kind!r}")


def beam_frame(axis):
    """Transverse unit vectors (u, v) completing the beam axis to a frame.

    u = R e_x, v = R e_y with R the minimal rotation mapping e_z onto the
    axis; the polarization angle is measured from u towards v.
    """
    rot = rotation_to_axis(axis)
    return rot[:, 0], rot[:, 1]


def make_gaussian_beam(na, propagation_axis, polarization_angle=0.0, rule=DEFAULT_RULE):
    """Focused-Gaussian angular envelope, linearly polarized.

    exp(-(sin v / NA)^2) on the hemisphere centered on the propagation
    axis (v = angle from the axis), with the transverse-projection
    polarization pattern -(pol . p) of the linear polarization vector p.
    The normalization constant is always computed numerically.
    """
    if not (0.0 < na <= 1.0):
        raise ConfigError(f"numerical aperture must lie in (0, 1], got {na}")
    n = np.asarray(propagation_axis, float)
    if np.linalg.norm(n) == 0.0:
        raise ConfigError("propagation axis must be a nonzero vector")
    n = n / np.linalg.norm(n)
    u, v = beam_frame(n)
    pol_vec = np.cos(polarization_angle) * u + np.sin(polarization_angle) * v

    def func(theta, phi):
        e_k, _, _ = spherical_basis(theta, phi)
        cos_v = np.tensordot(n, e_k, axes=(0, 0))
        sin2_v = np.clip(1.0 - cos_v**2, 0.0, None)
        envelope = np.where(cos_v > 0.0, np.exp(-sin2_v / na**2), 0.0)
        return -_polarization_projection(theta, phi, pol_vec) * envelope

    return AngularDistribution(
        f"gaussian_na{na:g}",
        func,
        support_axis=n,
        params={
            "kind": "gaussian",
            "na": na,
            "axis": n.tolist(),
            "polarization_angle": polarization_angle,
        },
        rule=rule,
    )


def make_beam(na, axis=(0.0, 0.0, -1.0), polarization_angle=0.0, weight=0.0, rule=DEFAULT_RULE):
    """The Gaussian beam of the given parameters along `axis`.

    With weight w > 0 it is superposed, with amplitude sqrt(1 - w), on an
    identical counter-propagating beam of amplitude sqrt(w).
    """
    if not (0.0 <= weight <= 1.0):
        raise ConfigError(f"beam weight must lie in [0, 1], got {weight}")
    axis = np.asarray(axis, dtype=float)
    beam = make_gaussian_beam(na, axis, polarization_angle, rule=rule)
    if weight > 0.0:
        partner = make_gaussian_beam(na, -axis, polarization_angle, rule=rule)
        beam = superpose([beam, partner], [np.sqrt(1.0 - weight), np.sqrt(weight)], rule=rule)
    return beam


def rotated(dist: AngularDistribution, rotation, rule=None):
    """The distribution carried along by a rigid rotation of space.

    Amplitudes are evaluated at the pulled-back direction and the
    transverse field vector is rotated, then re-expressed in the global
    (e_theta, e_phi) basis.
    """
    rot = np.asarray(rotation, float)
    if rot.shape != (3, 3) or not np.allclose(rot @ rot.T, np.eye(3), atol=1e-12):
        raise ConfigError("rotation must be a 3x3 orthogonal matrix")

    def func(theta, phi):
        e_k, e_t, e_p = spherical_basis(theta, phi)
        theta0, phi0 = angles_from_vectors(rot.T @ e_k)
        a0 = dist.amplitude(theta0, phi0)
        _, e_t0, e_p0 = spherical_basis(theta0, phi0)
        field = rot @ (a0[0] * e_t0 + a0[1] * e_p0)
        return np.stack([np.sum(field * e_t, axis=0), np.sum(field * e_p, axis=0)])

    axis = None if dist.support_axis is None else rot @ dist.support_axis
    return AngularDistribution(
        f"{dist.label}_rotated",
        func,
        support_axis=axis,
        params=dict(dist.params, rotated=True),
        rule=rule or dist.norm_rule,
        normalize=False,
    )


def superpose(distributions, weights, label="superposition", rule=DEFAULT_RULE):
    """Square-normalized weighted superposition of distributions.

    Keeps a support axis only if every component shares a collinear one
    (e.g. two counter-propagating beams), so that the hemisphere cut stays
    aligned with the integration grid.
    """
    if len(distributions) != len(weights) or not distributions:
        raise ConfigError("need equally many distributions and weights, at least one")
    weights = [complex(w) for w in weights]

    def func(theta, phi):
        total = weights[0] * distributions[0].amplitude(theta, phi)
        for d, w in zip(distributions[1:], weights[1:]):
            total = total + w * d.amplitude(theta, phi)
        return total

    axes = [d.support_axis for d in distributions]
    axis = None
    if all(a is not None for a in axes):
        if all(abs(abs(np.dot(a, axes[0])) - 1.0) < 1e-12 for a in axes):
            axis = axes[0]
    return AngularDistribution(label, func, support_axis=axis, rule=rule)
