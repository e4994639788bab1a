"""Angular/polarization amplitude distributions on the unit sphere.

A distribution assigns to every unit propagation vector k the complex
transverse field it radiates along k, as Cartesian components of shape
(3, n) orthogonal to k. Polarization sums and overlaps are therefore plain
sums over the three components, independent of any angular basis. Every
built-in distribution is square-normalized in closed form: the integral
over the sphere of its squared field modulus is 1, with no quadrature.

Integration uses a product rule: Gauss-Legendre in cos(theta) with the
domain split at the equator of the integration frame (so a hemisphere
support cut never straddles a node), and a uniform periodic trapezoid in
phi. Only overlaps and the callers' own integrals use it, on the rule they
are given. Beams carry a preferred axis; integrals involving them are
taken on a grid aligned with that axis, which handles the hemisphere edge
exactly and makes overlaps invariant under joint rotations.

Every mode pattern is C [e - (e . k) k] (s . k - t) of its _pattern row, so
the overlap of a Gaussian beam with a mode pattern also has a closed form,
gaussian_overlap, in radial moments of the beam envelope; it needs no
sphere quadrature and is exact for beams any rule may fail to resolve.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
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

NA_MIN = math.sqrt(sys.float_info.min)  # the smallest NA: below it na^2 is not a normal float

# Largest number of directions an integrand or an IRP table is evaluated on
# at once: the default 64x128 rule is one block.
BLOCK = 8192


def _directions(sin_t, cos_t, phi):
    """Unit vectors of the theta-major product grid of polar rows
    (sin_t, cos_t) and azimuths phi, shape (3, len(sin_t) * len(phi))."""
    return np.stack(
        [np.outer(sin_t, np.cos(phi)).ravel(), np.outer(sin_t, np.sin(phi)).ravel(), np.repeat(cos_t, len(phi))]
    )


def spherical_basis(theta, phi):
    """Unit vectors k of the theta-major grid of the 1-D axes theta and phi, shape (3, n)."""
    theta = np.asarray(theta, dtype=float)
    return _directions(np.sin(theta), np.cos(theta), np.asarray(phi, dtype=float))


def rotation_to_axis(axis):
    """Rotation matrix R mapping e_z onto the unit `axis` n (minimal rotation).

    Its columns are u = R e_x, v = R e_y and n: the transverse frame of a
    beam along n, whose polarization angle is measured from u towards v.
    With n = (x, y, z) and h = 1 / (1 + z), u = (1 - h x^2, -h x y, -x) and
    v = (-h x y, 1 - h y^2, -y); for z < 0, h = (1 - z) / (x^2 + y^2), so
    nothing cancels near -e_z. For axis == -e_z the rotation axis is
    degenerate; the convention is a rotation about e_y by pi.
    """
    x, y, z = np.asarray(axis, dtype=float).tolist()
    norm = math.hypot(x, y, z)
    if norm == 0.0:
        raise ConfigError("axis vector must be nonzero")
    x, y, z = x / norm, y / norm, z / norm
    s2 = x * x + y * y
    if math.sqrt(s2) < 1e-14:
        if z > 0.0:
            return np.eye(3)
        return np.diag([-1.0, 1.0, -1.0])  # rotation about e_y by pi
    h = 1.0 / (1.0 + z) if z >= 0.0 else (1.0 - z) / s2
    return np.array([[1.0 - h * x * x, -h * x * y, x], [-h * x * y, 1.0 - h * y * y, y], [-x, -y, z]])


@functools.lru_cache(maxsize=32)
def _frame_nodes(n_theta, n_phi):
    """Read-only node vectors and weights of the rule about e_z."""
    x, w = np.polynomial.legendre.leggauss(n_theta // 2)
    # map [-1, 1] -> [-1, 0] and [0, 1]
    cos_t = np.concatenate([0.5 * (x - 1.0), 0.5 * (x + 1.0)])
    sin_t = np.sqrt(1.0 - cos_t**2)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    k = _directions(sin_t, cos_t, phi)
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


@dataclass(frozen=True, eq=False)
class AngularDistribution:
    """Square-normalized transverse field over propagation directions.

    `amplitude(k) -> (3, n)` gives the complex Cartesian field at the unit
    vectors k; the integral over the sphere of its squared modulus is 1.
    The unit `support_axis`, if one is given, is the polar axis of the
    frame that sphere integrals of the distribution use: the rule splits
    its theta nodes between the two hemispheres about it, so the edge of a
    beam's hemisphere falls between node rows. A make_beam beam vanishes
    outside that hemisphere; a pair from `superpose` keeps the first
    beam's axis, and its partner lives on the opposite hemisphere.
    """

    amplitude: Callable[[np.ndarray], np.ndarray]
    support_axis: np.ndarray | None = None


def overlap(a: AngularDistribution, b: AngularDistribution, rule=DEFAULT_RULE):
    """Overlap integral of a . b over the sphere, no complex conjugation."""
    return _overlap(a, b, rule, conjugate_b=False)


def overlap_hermitian(a: AngularDistribution, b: AngularDistribution, rule=DEFAULT_RULE):
    """Hermitian overlap, integral of a . conj(b); 1 for a == b."""
    return _overlap(a, b, rule, conjugate_b=True)


def _overlap(a, b, rule, conjugate_b):
    def product(k):
        vb = b.amplitude(k)
        return a.amplitude(k) * (np.conj(vb) if conjugate_b else vb)

    axis = a.support_axis if a.support_axis is not None else b.support_axis
    return complex(integrate_sphere(product, rule, axis=axis))


def _transverse(vector, k):
    """The part v - (v . k) k of a fixed 3-vector transverse to each k, shape (3, n)."""
    v = np.asarray(vector, float)
    return v[:, None] - (v @ k) * k


def _pattern(kind, axis):
    """The row (C, e, s, t) of the pattern C [e - (e . k) k] (s . k - t) of
    mode `kind` along (motion) or about (libration) `axis`; checks both.
    Motion along mu: C = i sqrt(3 / (8 pi l_mu)), e = e_x, s = e_mu, t = [mu = z].
    Libration about mu: C = -sqrt(3 / (8 pi)), e = e_mu, s = 0, t = -1.
    In affine form the pattern is C P_k (a + B k), with P_k = 1 - k k^T,
    a = -t e and B = e s^T."""
    if kind == "motion":
        if axis not in MOTION_GEOMETRY_FACTORS:
            raise ConfigError(f"motion axis must be one of x, y, z, got {axis!r}")
        c = 1j * math.sqrt(3.0 / (8.0 * math.pi * MOTION_GEOMETRY_FACTORS[axis]))
        return c, AXES["x"], AXES[axis], float(axis == "z")
    if kind == "libration":
        if axis not in ("y", "z"):
            raise ConfigError(f"libration axis must be y or z, got {axis!r}")
        return -math.sqrt(3.0 / (8.0 * math.pi)), AXES[axis], np.zeros(3), -1.0
    raise ConfigError(f"mode kind must be motion or libration, got {kind!r}")


def make_mode(kind, axis):
    """Coupling pattern of a mechanical mode: `motion` along, or `libration`
    about, the Cartesian `axis`, from its _pattern row."""
    c, e, s, t = _pattern(kind, axis)

    def func(k):
        return c * _transverse(e, k) * (s @ k - t)

    return AngularDistribution(func)


def make_motion_distribution(axis):
    """Pattern of the center-of-mass motion along a Cartesian axis:
    i sqrt(3 / (8 pi l)) [e_x - (e_x . k) k] [(k - e_z) . e_axis], l = (1, 2, 7) . e_axis / 5."""
    return make_mode("motion", axis)


def make_libration_distribution(axis):
    """Pattern of libration about the y or z axis: -sqrt(3 / (8 pi)) [e_axis - (e_axis . k) k]."""
    return make_mode("libration", axis)


def check_na(na, subject):
    """ConfigError unless NA_MIN <= na <= 1, naming na by `subject`."""
    if not NA_MIN <= na <= 1.0:
        raise ConfigError(f"{subject} lies outside [{NA_MIN!r}, 1], where na^2 is a normal float")


def _beam_axis(na, propagation_axis):
    """Unit propagation axis of a Gaussian beam; checks na and the axis."""
    check_na(na, f"numerical aperture {na}")
    n = np.asarray(propagation_axis, float)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise ConfigError("propagation axis must be a nonzero vector")
    return n / norm


def make_gaussian_beam(na, propagation_axis, polarization_angle=0.0):
    """Focused-Gaussian angular envelope, linearly polarized.

    exp(-(sin v / NA)^2) on the hemisphere centered on the propagation
    axis (v = angle from the axis), carrying the transverse field
    -N [p - (p . k) k] of the linear polarization vector p. The norm is
    closed-form, N^-1 = _beam_norm(na); gaussian_overlap gives the beam's
    overlaps with the mode patterns exactly.
    """
    n = _beam_axis(na, propagation_axis)
    u, v = rotation_to_axis(n)[:, :2].T
    pol_vec = (np.cos(polarization_angle) * u + np.sin(polarization_angle) * v) / _beam_norm(na)

    def func(k):
        cos_v = n @ k
        sin2_v = np.clip(1.0 - cos_v**2, 0.0, None)
        envelope = np.where(cos_v > 0.0, np.exp(-sin2_v / na**2), 0.0)
        return -_transverse(pol_vec, k) * envelope

    return AngularDistribution(func, support_axis=n)


def _check_weight(weight):
    if not (0.0 <= weight <= 1.0):
        raise ConfigError(f"beam weight must lie in [0, 1], got {weight}")


def make_beam(na, axis=(0.0, 0.0, -1.0), polarization_angle=0.0, weight=0.0):
    """The Gaussian beam of the given parameters along `axis`.

    With weight w > 0 it is superposed, with amplitude sqrt(1 - w), on an
    identical counter-propagating beam of amplitude sqrt(w); the two live on
    opposite hemispheres, so the pair stays normalized.
    """
    _check_weight(weight)
    axis = np.asarray(axis, dtype=float)
    beam = make_gaussian_beam(na, axis, polarization_angle)
    if weight > 0.0:
        beam = superpose(beam, make_gaussian_beam(na, -axis, polarization_angle), weight)
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
    [NA_MIN, 1]."""
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


def _beam_norm(na):
    """The norm sqrt((G0 + G2) / 2) of the unnormalized beam field
    -env(n . k) [p - (p . k) k], from the moments G of env^2: the envelope
    at NA / sqrt(2)."""
    g0, _, g2, *_ = envelope_moments(na / np.sqrt(2.0))
    return np.sqrt((g0 + g2) / 2.0)


def overlap_form(kind, mode_axis, na, axis=(0.0, 0.0, -1.0)):
    """(c, R) with gaussian_overlap(kind, mode_axis, na, axis, alpha, w)
    = c (sqrt(1 - w), sqrt(w)) R (cos alpha, sin alpha)^T.

    c is minus the pattern prefactor C, so arg xi is set by the mode. Row 0
    of the real 2x2 R is the beam along d = n, row 1 its partner along
    d = -n; columns are polarization p along u and v of rotation_to_axis(d).
    Each entry is the sphere integral of env(d . k) [p - (p . k) k] times
    the pattern over C, p . [(F0 - beta) a + (F1 B - delta (B + B^T)) d]
    for the (a, B) of the _pattern row (C, e, s, t), that is
    (p . e)(s . d) F1 - delta [(e . d)(p . s) + (s . d)(p . e)] - t (p . e)(F0 - beta),
    over the beam's N^-1 = sqrt((G0 + G2) / 2) from the moments G of env^2,
    the envelope at NA / sqrt(2) (_beam_norm).
    """
    c, e, s, t = _pattern(kind, mode_axis)
    n = _beam_axis(na, axis)
    f0, f1, _, _, beta, delta = envelope_moments(na)
    (e0, e1, e2), (s0, s1, s2) = e.tolist(), s.tolist()  # Python floats: numpy dots per entry take twice as long
    rows = []
    for d in (n, -n):
        x, y, z = d.tolist()
        de, ds = x * e0 + y * e1 + z * e2, x * s0 + y * s1 + z * s2
        frame = rotation_to_axis(d)[:, :2].T.tolist()  # p = u, v
        dots = [(px * e0 + py * e1 + pz * e2, px * s0 + py * s1 + pz * s2) for px, py, pz in frame]
        rows.append([pe * ds * f1 - delta * (de * ps + ds * pe) - t * pe * (f0 - beta) for pe, ps in dots])
    return complex(-c), np.array(rows) / _beam_norm(na)


def form_overlap(c, R, polarization_angle, weight):
    """The overlap c (sqrt(1 - w), sqrt(w)) R (cos alpha, sin alpha)^T of
    an overlap_form (c, R)."""
    a = np.array([np.sqrt(1.0 - weight), np.sqrt(weight)])
    b = np.array([np.cos(polarization_angle), np.sin(polarization_angle)])
    return complex(c * float(a @ R @ b))


def gaussian_overlap(kind, mode_axis, na, axis=(0.0, 0.0, -1.0), polarization_angle=0.0, weight=0.0):
    """Exact overlap, no conjugation, of make_beam(na, axis,
    polarization_angle, weight) with make_mode(kind, mode_axis).

    Every mode pattern is C P_k (a + B k) with P_k = 1 - k k^T, so its
    sphere integral against the beam field -N env(n . k) [p - (p . k) k]
    reduces to radial moments of the envelope and is linear in
    p = cos(alpha) u + sin(alpha) v. The partner of `weight` lives on the
    opposite hemisphere, so the pair stays normalized and the overlap is
    sqrt(1 - w) xi(n) + sqrt(w) xi(-n): the form of overlap_form.
    """
    _check_weight(weight)
    return form_overlap(*overlap_form(kind, mode_axis, na, axis), polarization_angle, weight)


def rotated(dist: AngularDistribution, rotation):
    """The distribution carried along by a rigid rotation of space.

    The field at k is the rotated field at the pulled-back direction
    rot^T k; the norm is unchanged.
    """
    rot = np.asarray(rotation, float)
    if rot.shape != (3, 3) or not np.allclose(rot @ rot.T, np.eye(3), atol=1e-12):
        raise ConfigError("rotation must be a 3x3 orthogonal matrix")

    def func(k):
        return rot @ dist.amplitude(rot.T @ k)

    axis = None if dist.support_axis is None else rot @ dist.support_axis
    return AngularDistribution(func, support_axis=axis)


def superpose(beam: AngularDistribution, partner: AngularDistribution, weight):
    """sqrt(1 - w) beam + sqrt(w) partner, about the beam's support axis:
    make_beam's counter-propagating pair, square-normalized because the
    partner lives on the opposite hemisphere. Nothing is renormalized."""
    a, b = np.sqrt(1.0 - weight), np.sqrt(weight)

    def func(k):
        return a * beam.amplitude(k) + b * partner.amplitude(k)

    return AngularDistribution(func, support_axis=beam.support_axis)
