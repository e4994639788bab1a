"""Angular/polarization amplitude distributions on the unit sphere.

A distribution assigns to every unit propagation vector k the complex
transverse field it radiates along k, as Cartesian components of shape
(3, n) orthogonal to k. Polarization sums and overlaps are therefore plain
sums over the three components, independent of any angular basis. All
built-in distributions are square-normalized at construction: integral
over the sphere of the squared field modulus equals 1.

Integration uses a product rule: Gauss-Legendre in cos(theta) with the
domain split at the equator of the integration frame (so a hemisphere
support cut never straddles a node), and a uniform periodic trapezoid in
phi.  Beams carry a preferred axis; integrals involving them are taken on
a grid aligned with that axis, which handles the hemisphere edge exactly
and makes overlaps invariant under joint rotations.

The overlap of a Gaussian beam with a mode pattern also has a closed form,
gaussian_overlap, in radial moments of the beam envelope; it needs no
sphere quadrature and is exact for beams any rule may fail to resolve.
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

# Largest number of directions an integrand or an IRP table is evaluated on
# at once: the default 64x128 rule is one block.
BLOCK = 8192


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
def _frame_nodes(n_theta, n_phi):
    """Read-only node vectors and weights of the rule about e_z."""
    x, w = np.polynomial.legendre.leggauss(n_theta // 2)
    # map [-1, 1] -> [-1, 0] and [0, 1]
    cos_t = np.concatenate([0.5 * (x - 1.0), 0.5 * (x + 1.0)])
    sin_t = np.sqrt(1.0 - cos_t**2)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    k = np.stack(
        [np.outer(sin_t, np.cos(phi)).ravel(), np.outer(sin_t, np.sin(phi)).ravel(), np.repeat(cos_t, n_phi)]
    )
    weight = np.outer(np.concatenate([0.5 * w, 0.5 * w]), np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()
    k.flags.writeable = weight.flags.writeable = False
    return k, weight


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
        """Node unit vectors k, shape (3, n), and weights, flattened.

        If `axis` is given the grid is generated in a frame whose polar
        axis is `axis`. Weights are positive and sum to 4*pi.
        """
        k, weight = _frame_nodes(self.n_theta, self.n_phi)
        if axis is not None:
            k = rotation_to_axis(axis) @ k
        return k, weight


DEFAULT_RULE = QuadratureRule()


def integrate_sphere(f, rule=DEFAULT_RULE, axis=None):
    """Quadrature approximation of integral over dOmega of sum_i f_i.

    `f(k)` takes (3, n) node vectors and returns an array of shape (m, n)
    whose m components are summed, e.g. the squared Cartesian components
    of a field. It is called on consecutive blocks of at most BLOCK nodes,
    so its temporaries stay bounded at any rule size; the default rule is
    one block. The summed values of all blocks are then weighted and
    summed at once, so the result does not depend on the blocking and is
    deterministic for a fixed rule (pairwise summation).
    """
    k, w = rule.nodes(axis=axis)
    values = None
    for start in range(0, w.size, BLOCK):
        block = np.asarray(f(k[:, start : start + BLOCK])).sum(axis=0)
        if block.shape != w[start : start + BLOCK].shape:
            raise ConfigError("integrand returned a shape not matching the rule nodes")
        bad = ~np.isfinite(block)
        if bad.any():
            idx = start + int(np.flatnonzero(bad)[0])
            raise NumericalFailure("non-finite integrand at node k = (%.6f, %.6f, %.6f)" % tuple(k[:, idx]))
        if values is None:
            values = np.empty(w.shape, dtype=block.dtype)
        values[start : start + BLOCK] = block
    return np.sum(values * w)


class AngularDistribution:
    """Square-integrable transverse field over propagation directions.

    Wraps a vectorized callable `func(k) -> (3, n)` giving the complex
    Cartesian field at the unit vectors k, plus an optional support axis
    (the amplitude vanishes outside the hemisphere centered on it) and the
    quadrature rule it is normalized, and overlapped, on.
    """

    def __init__(self, label, func, support_axis=None, normalize=True, rule=DEFAULT_RULE):
        self.label = label
        self._func = func
        self.support_axis = (
            None
            if support_axis is None
            else np.asarray(support_axis, float) / np.linalg.norm(support_axis)
        )
        self.rule = rule
        raw = integrate_sphere(self._abs2, rule, axis=self.support_axis)
        self.prenormalization_norm = float(np.sqrt(raw.real))
        if normalize:
            self._scale = 1.0 / self.prenormalization_norm
            self.norm_squared = 1.0
        else:
            self._scale = 1.0
            self.norm_squared = float(raw.real)

    def _abs2(self, k):
        return np.abs(self._func(k)) ** 2

    def amplitude(self, k):
        """Complex Cartesian field at the unit vectors k, shape (3, n)."""
        return self._scale * np.asarray(self._func(k))

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


def overlap(a: AngularDistribution, b: AngularDistribution):
    """Overlap integral of a . b over the sphere, no complex conjugation,
    on the finer of the two distributions' rules."""
    return _overlap(a, b, conjugate_b=False)


def overlap_hermitian(a: AngularDistribution, b: AngularDistribution):
    """Hermitian overlap, integral of a . conj(b); 1 for a == b normalized."""
    return _overlap(a, b, conjugate_b=True)


def _overlap(a, b, conjugate_b):
    _check_normalized(a, b)
    rule = max(a.rule, b.rule, key=lambda r: r.n_theta * r.n_phi)

    def product(k):
        vb = b.amplitude(k)
        return a.amplitude(k) * (np.conj(vb) if conjugate_b else vb)

    return complex(integrate_sphere(product, rule, axis=_integration_axis(a, b)))


def _transverse(vector, k):
    """The part v - (v . k) k of a fixed 3-vector transverse to each k, shape (3, n)."""
    v = np.asarray(vector, float)
    return v[:, None] - (v @ k) * k


def _motion_prefactor(axis):
    if axis not in MOTION_GEOMETRY_FACTORS:
        raise ConfigError(f"motion axis must be one of x, y, z, got {axis!r}")
    return 1j * np.sqrt(3.0 / (8.0 * np.pi * MOTION_GEOMETRY_FACTORS[axis]))


def _libration_prefactor(axis):
    if axis not in ("y", "z"):
        raise ConfigError(f"libration axis must be y or z, got {axis!r}")
    return -np.sqrt(3.0 / (8.0 * np.pi))


def make_motion_distribution(axis, rule=DEFAULT_RULE):
    """Coupling pattern of the center-of-mass motion along a Cartesian axis.

    i * sqrt(3 / (8 pi l)) * [e_x - (e_x . k) k] * [(k - e_z) . e_axis],
    with the geometry factor l = (1, 2, 7) . e_axis / 5.
    """
    prefactor = _motion_prefactor(axis)
    e_mu = AXES[axis]

    def func(k):
        return prefactor * _transverse(AXES["x"], k) * (e_mu @ k - e_mu[2])

    return AngularDistribution(f"motion_{axis}", func, rule=rule)


def make_libration_distribution(axis, rule=DEFAULT_RULE):
    """Dipole coupling pattern of libration about the y or z axis:
    -sqrt(3 / (8 pi)) * [e_axis - (e_axis . k) k]."""
    prefactor = _libration_prefactor(axis)
    e_mu = AXES[axis]

    def func(k):
        return prefactor * _transverse(e_mu, k)

    return AngularDistribution(f"libration_{axis}", func, rule=rule)


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


def _beam_axis(na, propagation_axis):
    """Unit propagation axis of a Gaussian beam; checks na and the axis."""
    if not (0.0 < na <= 1.0):
        raise ConfigError(f"numerical aperture must lie in (0, 1], got {na}")
    n = np.asarray(propagation_axis, float)
    if np.linalg.norm(n) == 0.0:
        raise ConfigError("propagation axis must be a nonzero vector")
    return n / np.linalg.norm(n)


def make_gaussian_beam(na, propagation_axis, polarization_angle=0.0, rule=DEFAULT_RULE):
    """Focused-Gaussian angular envelope, linearly polarized.

    exp(-(sin v / NA)^2) on the hemisphere centered on the propagation
    axis (v = angle from the axis), carrying the transverse field
    -[p - (p . k) k] of the linear polarization vector p.
    The distribution is normalized by quadrature on `rule`;
    gaussian_overlap gives its overlaps with the mode patterns exactly.
    """
    n = _beam_axis(na, propagation_axis)
    u, v = beam_frame(n)
    pol_vec = np.cos(polarization_angle) * u + np.sin(polarization_angle) * v

    def func(k):
        cos_v = n @ k
        sin2_v = np.clip(1.0 - cos_v**2, 0.0, None)
        envelope = np.where(cos_v > 0.0, np.exp(-sin2_v / na**2), 0.0)
        return -_transverse(pol_vec, k) * envelope

    return AngularDistribution(f"gaussian_na{na:g}", func, support_axis=n, rule=rule)


def _check_weight(weight):
    if not (0.0 <= weight <= 1.0):
        raise ConfigError(f"beam weight must lie in [0, 1], got {weight}")


def make_beam(na, axis=(0.0, 0.0, -1.0), polarization_angle=0.0, weight=0.0, rule=DEFAULT_RULE):
    """The Gaussian beam of the given parameters along `axis`.

    With weight w > 0 it is superposed, with amplitude sqrt(1 - w), on an
    identical counter-propagating beam of amplitude sqrt(w).
    """
    _check_weight(weight)
    axis = np.asarray(axis, dtype=float)
    beam = make_gaussian_beam(na, axis, polarization_angle, rule=rule)
    if weight > 0.0:
        partner = make_gaussian_beam(na, -axis, polarization_angle, rule=rule)
        beam = superpose([beam, partner], [np.sqrt(1.0 - weight), np.sqrt(weight)], rule=rule)
    return beam


# The radial moments are integrals over t = (1 - cos v) / NA^2, where the
# envelope falls like e^{-2t}: 12-node Gauss-Legendre panels that double in
# width resolve it to rounding, and beyond t = 40 it is below e^{-40}.
# (One Gauss-Legendre rule over the whole range is 1e-13 off, from the
# rounding of its small end weights, where the integrand is largest.)
_MOMENT_PANEL_EDGES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
_MOMENT_CUTOFF = 40.0


@functools.lru_cache(maxsize=1)
def _moment_panel_rule():
    """12-node Gauss-Legendre rule on [0, 1]; built on first use, so commands
    without beams never import numpy.polynomial."""
    x, w = np.polynomial.legendre.leggauss(12)
    return 0.5 * (x + 1.0), 0.5 * w


@functools.lru_cache(maxsize=16)
def envelope_moments(na):
    """Radial moments of the envelope env(c) = exp(-(1 - c^2) / NA^2) over
    c = cos v in [0, 1]: F_l = 2 pi int_0^1 env(c) c^l dc for l = 0..3,
    then beta = (F0 - F2) / 2 and delta = (F1 - F3) / 2, each integrated
    from its own non-negative integrand. Accurate to rounding for NA in
    (0, 1]."""
    b = na * na
    end = min(1.0 / b, _MOMENT_CUTOFF)
    edges = np.array([e for e in _MOMENT_PANEL_EDGES if e < end] + [end])
    width = np.diff(edges)[:, None]
    nodes, weights = _moment_panel_rule()
    t = (edges[:-1, None] + width * nodes).ravel()
    c = 1.0 - b * t
    u = t * (2.0 - b * t)  # (1 - c^2) / NA^2
    transverse = 0.5 * b * u  # (1 - c^2) / 2
    weight = (width * weights).ravel() * np.exp(-u)
    integrands = np.stack([np.ones_like(c), c, c * c, c * c * c, transverse, transverse * c])
    return tuple((2.0 * np.pi * b * (integrands @ weight)).tolist())


def _pattern_moment(kind, mu, n, p, moments):
    """Integral over the sphere of env(n . k) [p - (p . k) k] . v(k), where
    v is the mode pattern along (motion) or about (libration) the axis of
    index mu, without its prefactor."""
    f0, f1, f2, _, beta, delta = moments
    if kind == "libration":
        return p[mu] * (f0 + f2) / 2.0
    value = p[0] * n[mu] * f1 - delta * (n[0] * p[mu] + n[mu] * p[0])
    if mu == 2:
        value -= p[0] * (f0 - beta)
    return value


def overlap_form(kind, mode_axis, na, axis=(0.0, 0.0, -1.0)):
    """(c, R) with gaussian_overlap(kind, mode_axis, na, axis, alpha, w)
    = c (sqrt(1 - w), sqrt(w)) R (cos alpha, sin alpha)^T.

    c is minus the pattern prefactor C, so arg xi is set by the mode. Row 0
    of the real 2x2 R is the beam along n, row 1 its partner along -n;
    columns are polarization e along u and v of that beam's beam_frame.
    Each entry is _pattern_moment, the sphere integral of the beam field
    times the pattern over C (motion along mu:
    e_x n_mu F1 - delta (n_x e_mu + n_mu e_x) - e_x (F0 - beta) [mu = z];
    libration about mu: e_mu (F0 + F2) / 2), over the beam's
    N^-1 = sqrt((G0 + G2) / 2) from the moments G of env^2, the envelope
    at NA / sqrt(2).
    """
    if kind == "motion":
        prefactor = _motion_prefactor(mode_axis)
    elif kind == "libration":
        prefactor = _libration_prefactor(mode_axis)
    else:
        raise ConfigError(f"mode kind must be motion or libration, got {kind!r}")
    mu = "xyz".index(mode_axis)
    n = _beam_axis(na, axis)
    moments = envelope_moments(na)
    g0, _, g2, *_ = envelope_moments(na / np.sqrt(2.0))
    rows = [[_pattern_moment(kind, mu, d, e, moments) for e in beam_frame(d)] for d in (n, -n)]
    return complex(-prefactor), np.array(rows) / np.sqrt((g0 + g2) / 2.0)


def form_overlap(c, R, polarization_angle, weight):
    """The overlap c (sqrt(1 - w), sqrt(w)) R (cos alpha, sin alpha)^T of
    an overlap_form (c, R)."""
    a = np.array([np.sqrt(1.0 - weight), np.sqrt(weight)])
    b = np.array([np.cos(polarization_angle), np.sin(polarization_angle)])
    return complex(c * float(a @ R @ b))


def gaussian_overlap(kind, mode_axis, na, axis=(0.0, 0.0, -1.0), polarization_angle=0.0, weight=0.0):
    """Exact overlap, no conjugation, of make_beam(na, axis,
    polarization_angle, weight) with make_mode(kind, mode_axis).

    Every mode pattern is C times a polynomial of degree 3 or less in k, so
    its sphere integral against the beam field -N env(n . k) [p - (p . k) k]
    reduces to radial moments of the envelope and is linear in
    p = cos(alpha) u + sin(alpha) v. The partner of `weight` lives on the
    opposite hemisphere, so the pair stays normalized and the overlap is
    sqrt(1 - w) xi(n) + sqrt(w) xi(-n): the form of overlap_form.
    """
    _check_weight(weight)
    return form_overlap(*overlap_form(kind, mode_axis, na, axis), polarization_angle, weight)


def rotated(dist: AngularDistribution, rotation, rule=None):
    """The distribution carried along by a rigid rotation of space.

    The field at k is the rotated field at the pulled-back direction
    rot^T k.
    """
    rot = np.asarray(rotation, float)
    if rot.shape != (3, 3) or not np.allclose(rot @ rot.T, np.eye(3), atol=1e-12):
        raise ConfigError("rotation must be a 3x3 orthogonal matrix")

    def func(k):
        return rot @ dist.amplitude(rot.T @ k)

    axis = None if dist.support_axis is None else rot @ dist.support_axis
    return AngularDistribution(
        f"{dist.label}_rotated",
        func,
        support_axis=axis,
        rule=rule or dist.rule,
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

    def func(k):
        total = weights[0] * distributions[0].amplitude(k)
        for d, w in zip(distributions[1:], weights[1:]):
            total = total + w * d.amplitude(k)
        return total

    axes = [d.support_axis for d in distributions]
    axis = None
    if all(a is not None for a in axes):
        if all(abs(abs(np.dot(a, axes[0])) - 1.0) < 1e-12 for a in axes):
            axis = axes[0]
    return AngularDistribution(label, func, support_axis=axis, rule=rule)
