"""Closed-form invariants of the squeezed input, checked on generated inputs.

For an overlap modulus m in [0, 1], a squeezing degree r in [0, 10] and any
phase offset Phi, the input spectra must respect the recoil-ratio bounds,
the uncertainty bound det S >= 1 (with equality for the pure state m = 1)
and 2 pi periodicity; the bare squeezed mode has determinant 1. Up to 200
dB every input_spectra result passes InputSpectra's own consistency check,
and the closed-form optimum over the measurement strength u is the minimum
of a dense scan of s_min over u, whose array form is the scalar one bit for
bit. The Wigner lattice of any state the CLI reaches, up to 3000 dB, sums
to 1 with no warning. The exact overlap of any Gaussian beam
with any mode pattern is at most 1 in modulus, and over any box of
polarization angle and weight its squared modulus lies between the
closed-form extremes the beam search uses. A single beam's field vanishes
outside the hemisphere H(n) about its axis, so by Cauchy-Schwarz its
squared overlap is at most the mode's power on H(n), integrated by
quadrature independently of the envelope moments.

A 2x2 determinant of rounded spectra is resolved only to a relative
precision of the products it subtracts, so determinant checks scale their
tolerance with sxx * syy (about 2.4e17 at r = 10).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from levsqueeze import angular, detect, optimize, squeeze
from levsqueeze.errors import NumericalFailure

DETERMINISTIC = settings(derandomize=True, deadline=None)

moduli = st.floats(min_value=0.0, max_value=1.0)
degrees = st.floats(min_value=0.0, max_value=10.0)
phases = st.floats(min_value=-100.0, max_value=100.0)

REL = 1e-12


def spectra(m, r, phi):
    return squeeze.input_spectra(
        squeeze.OverlapResult(xi=m), squeeze.SqueezeParams(r_s=r, phi_s=phi), absolute_phase=False
    )


def det_tolerance(s):
    return REL * max(1.0, s.sxx * s.syy)


@DETERMINISTIC
@given(m=moduli, r=degrees, phi=phases)
def test_ratio_within_phase_extremes(m, r, phi):
    m2 = m * m
    ratio = squeeze.recoil_ratio(
        squeeze.OverlapResult(xi=m), squeeze.SqueezeParams(r_s=r, phi_s=phi), absolute_phase=False
    )
    lowest = (1.0 - m2) + m2 * math.exp(-2.0 * r)
    highest = 1.0 + m2 * (math.exp(2.0 * r) - 1.0)
    assert lowest * (1.0 - REL) <= ratio <= highest * (1.0 + REL)


@DETERMINISTIC
@given(m=moduli, r=degrees, phi=phases)
def test_uncertainty_bound(m, r, phi):
    s = spectra(m, r, phi)
    assert s.uncertainty_determinant >= 1.0 - det_tolerance(s)
    pure = spectra(1.0, r, phi)
    assert pure.uncertainty_determinant == pytest.approx(1.0, abs=det_tolerance(pure))


@DETERMINISTIC
@given(
    m=st.one_of(st.sampled_from([0.0, 1.0]), moduli),
    db=st.one_of(st.sampled_from([0.0, 200.0]), st.floats(min_value=0.0, max_value=200.0)),
    phi=st.one_of(st.sampled_from([0.0, math.pi]), phases),
)
def test_input_spectra_pass_their_own_consistency_check(m, db, phi):
    # InputSpectra raises NumericalFailure when sxx syy - scross^2 - det S
    # exceeds the rounding of its terms; every spectrum input_spectra builds
    # must pass, up to 200 dB
    spectra(m, squeeze.db_to_r(db), phi)


@DETERMINISTIC
@given(m=moduli, r=degrees, phi=phases)
def test_ratio_is_2pi_periodic(m, r, phi):
    here, there = spectra(m, r, phi), spectra(m, r, phi + 2.0 * math.pi)
    # phi + 2 pi is itself rounded; the ratio moves by its slope -scross times that
    slack = abs(here.scross) * 4.0 * math.ulp(abs(phi) + 2.0 * math.pi)
    assert there.sxx == pytest.approx(here.sxx, rel=REL, abs=slack)


@DETERMINISTIC
@given(r=degrees, phi=phases)
def test_bare_covariance_is_pure(r, phi):
    cov, _ = detect.wigner_covariance("bare", r=r, phi=phi)
    tolerance = REL * max(1.0, cov[0, 0] * cov[1, 1])
    assert cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0] == pytest.approx(1.0, abs=tolerance)
    assert np.all(np.diag(cov) > 0.0)


def phase_scan_minimum(m, r, chi, n=720):
    """Smallest s_min_opt_u over the phase offset, from input_spectra: the
    best of n equally spaced phases, refined by golden-section search
    between its two neighbours."""

    def value(phi):
        return detect.s_min_opt_u(spectra(m, r, phi), chi)[1]

    step = 2.0 * math.pi / n
    values = [value(i * step) for i in range(n)]
    best = int(np.argmin(values))
    a, b = (best - 1) * step, (best + 1) * step
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = value(c), value(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = value(d)
    return min(values[best], fc, fd)


@DETERMINISTIC
@given(
    m=moduli,
    db=st.floats(min_value=0.0, max_value=30.0),
    omega=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=10.0)),
    gamma=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
)
def test_phase_optimal_sensitivity_is_the_phase_scan_minimum(m, db, omega, gamma):
    # over everything `sensitivity --heatmap` accepts up to 30 dB; omega = Omega
    # without damping is the pole, which exits 3
    assume(not (omega == 1.0 and gamma == 0.0))
    chi = detect.Susceptibility(omega=omega, mode_frequency=1.0, damping=gamma)
    r = squeeze.db_to_r(db)
    phi_opt, value = detect.s_min_opt_u_phase(m, r, chi)
    assert value == pytest.approx(phase_scan_minimum(m, r, chi), rel=1e-9)
    # the returned phase reaches that value
    assert detect.s_min_opt_u(spectra(m, r, phi_opt), chi)[1] == pytest.approx(value, rel=1e-9)


def u_scan_minimum(s, chi):
    """The u of the smallest s_min on a log-spaced scan over 1e-7..1e7, and
    that value, refined three times by a scan 100 times denser between the
    best point's two neighbours."""
    u = np.geomspace(1e-7, 1e7, 1401)
    for refinement in range(4):
        rows = detect.sensitivity_curve(s, chi, u)
        best = int(np.argmin([value for _, value in rows]))
        if refinement == 0:
            assert 0 < best < len(u) - 1, "the scan must bracket the optimum"
        u_best, value = rows[best]
        u = np.geomspace(u[max(best - 1, 0)], u[min(best + 1, len(u) - 1)], 201)
    return u_best, value


@DETERMINISTIC
@given(
    m=st.one_of(st.sampled_from([0.0, 1.0]), moduli),
    db=st.floats(min_value=0.0, max_value=30.0),
    phi=phases,
    omega=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.99)),
    gamma=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
)
def test_closed_form_u_optimum_is_the_u_scan_minimum(m, db, phi, omega, gamma):
    # over what `sensitivity` accepts up to 30 dB with omega below the mode
    # frequency; s_min along u, not the closed form, is the oracle. The last
    # scan steps by a factor 1 + 2e-8, where s_min is flat to rounding.
    s = spectra(m, squeeze.db_to_r(db), phi)
    chi = detect.Susceptibility(omega=omega, mode_frequency=1.0, damping=gamma)
    u_opt, value = detect.s_min_opt_u(s, chi)
    u_best, scanned = u_scan_minimum(s, chi)
    assert value == pytest.approx(scanned, abs=1e-14 * (s.sxx + s.syy + abs(s.scross)))
    assert u_best == pytest.approx(u_opt, rel=1e-6)


@DETERMINISTIC
@given(
    m=moduli,
    r=degrees,
    phi=phases,
    omega=st.floats(min_value=-10.0, max_value=10.0),
    gamma=st.floats(min_value=1e-9, max_value=10.0),
    log_u=st.lists(st.floats(min_value=-8.0, max_value=8.0), min_size=1, max_size=40),
)
def test_sensitivity_curve_is_the_scalar_s_min_bit_for_bit(m, r, phi, omega, gamma, log_u):
    # s_min of an array does the scalar's IEEE operations in the same order
    s = spectra(m, r, phi)
    chi = detect.Susceptibility(omega=omega, mode_frequency=1.0, damping=gamma)
    u = 10.0 ** np.array(log_u)
    per_u = np.array([[x, detect.s_min(s, chi, x)] for x in u.tolist()])
    assert detect.sensitivity_curve(s, chi, u).tobytes() == per_u.tobytes()


@DETERMINISTIC
@given(
    source=st.sampled_from(["bare", "input"]),
    m=st.one_of(st.just(1.0), moduli),
    db=st.one_of(st.sampled_from([0.0, 3000.0]), st.floats(min_value=0.0, max_value=3000.0)),
    phi=st.one_of(st.sampled_from([0.0, math.pi]), phases),
    n=st.integers(min_value=33, max_value=120),
)
def test_wigner_lattice_sums_to_one(source, m, db, phi, n):
    # the lattice's area element is du dv sqrt(det) at any squeezing, so the
    # sum of w dA is the standard normal's on n points per principal axis
    try:
        cov, det = detect.wigner_covariance(source, r=squeeze.db_to_r(db), phi=phi, xi=m)
    except NumericalFailure:
        # past about 1540 dB sxx syy overflows, except near Phi = 0 and pi
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = detect.wigner_grid(cov, det, n)[:, 2]
    du = 2.0 * detect.WIGNER_HALF_WIDTH_SIGMAS / (n - 1)
    assert abs(w.sum() * du * du * math.sqrt(det) - 1.0) <= 1e-12


MODES = [("motion", "x"), ("motion", "y"), ("motion", "z"), ("libration", "y"), ("libration", "z")]


@DETERMINISTIC
@given(
    mode=st.sampled_from(MODES),
    na=st.floats(min_value=0.2, max_value=1.0),
    axis=st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(lambda v: sum(c * c for c in v) > 1e-6),
    pol=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    weight=st.floats(min_value=0.0, max_value=1.0),
)
def test_gaussian_overlap_bounded(mode, na, axis, pol, weight):
    # a normalized beam and a normalized pattern overlap by at most 1
    assert abs(angular.gaussian_overlap(*mode, na, axis, pol, weight)) <= 1.0 + 1e-12


@DETERMINISTIC
@given(
    mode=st.sampled_from(MODES),
    na=st.floats(min_value=0.2, max_value=1.0),
    axis=st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(lambda v: sum(c * c for c in v) > 1e-6),
    alpha_lo=st.floats(min_value=-math.pi, max_value=math.pi),
    alpha_width=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4.0)),
    weights=st.tuples(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0)).map(sorted),
    inside=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
)
def test_inner_extremes_bound_the_overlap(mode, na, axis, alpha_lo, alpha_width, weights, inside):
    # the closed-form smallest and largest |xi|^2 over a box of polarization
    # angle and weight lie in the box and bound |xi|^2 everywhere in it
    alpha = (alpha_lo, alpha_lo + alpha_width)
    c, R = angular.overlap_form(*mode, na, axis)
    extremes = optimize._inner_extremes(R, alpha, tuple(weights))
    for a, w in extremes:
        assert alpha[0] <= a <= alpha[1] and weights[0] <= w <= weights[1]
    lowest, highest = (abs(angular.gaussian_overlap(*mode, na, axis, a, w)) ** 2 for a, w in extremes)

    def box_point(s, t):
        return alpha[0] + s * alpha_width, weights[0] + t * (weights[1] - weights[0])

    for s, t in inside:
        m2 = abs(angular.gaussian_overlap(*mode, na, axis, *box_point(s, t))) ** 2
        assert lowest - 1e-12 <= m2 <= highest + 1e-12
    # and on a 25x25 grid of the box, from the bilinear form itself
    a, w = box_point(*np.meshgrid(np.linspace(0.0, 1.0, 25), np.linspace(0.0, 1.0, 25)))
    amplitudes = np.stack([np.sqrt(1.0 - w), np.sqrt(w)])
    polarizations = np.stack([np.cos(a), np.sin(a)])
    m2 = abs(c) ** 2 * np.einsum("i...,ij,j...->...", amplitudes, R, polarizations) ** 2
    assert np.all((lowest - 1e-12 <= m2) & (m2 <= highest + 1e-12))


def hemisphere_power(kind, axis, n):
    """The power int_H(n) |v|^2 of the mode pattern v on the hemisphere about
    n: the upper half of the default rule's nodes about n, whose theta rows
    split at the frame's equator, so it is exact for these polynomial
    patterns."""
    k, w = angular.DEFAULT_RULE.nodes(axis=n)
    upper = slice(w.size // 2, None)
    return float(np.sum(np.abs(angular.make_mode(kind, axis).amplitude(k[:, upper])) ** 2 * w[upper]))


def test_hemisphere_ceilings():
    # |v|^2 is even under k -> -k for every pattern but motion z, so each
    # hemisphere holds half of it; motion z holds 101/112 on the backward one
    rng = np.random.default_rng(13)
    axes = [sign * e for e in np.eye(3) for sign in (1.0, -1.0)] + list(rng.normal(size=(6, 3)))
    for mode in [("motion", "x"), ("motion", "y"), ("libration", "y"), ("libration", "z")]:
        for n in axes:
            assert hemisphere_power(*mode, n) == pytest.approx(0.5, rel=0, abs=1e-12)
    assert hemisphere_power("motion", "z", [0.0, 0.0, -1.0]) == pytest.approx(101.0 / 112.0, rel=0, abs=1e-12)


@DETERMINISTIC
@given(
    mode=st.sampled_from(MODES),
    na=st.floats(min_value=0.05, max_value=1.0),
    axis=st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(lambda v: sum(c * c for c in v) > 1e-6),
    pol=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_single_beam_overlap_below_its_hemisphere_ceiling(mode, na, axis, pol):
    assert abs(angular.gaussian_overlap(*mode, na, axis, pol)) ** 2 <= hemisphere_power(*mode, axis) + 1e-12
