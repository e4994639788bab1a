"""The abstract's numbers, as the implemented model settles them.

- "98 % with a properly mode-matched mode": at |xi| = 1 and Phi = 0 the
  heating ratio is e^{-2r}. At 15 dB that is a 96.84 % suppression; 98 %
  first holds at 10 log10 50 = 16.99 dB.
- "at least 60 % by squeezing a single Gaussian mode with an appropriate
  incidence direction": read per mechanical mode. One backward beam at
  na = 1 suppresses motion-z heating by 85.25 % at 15 dB; the (1, 2, 7)/5
  weighted centre-of-mass total falls by only 59.68 %, since that beam
  does not couple to motion x or y.
- "detection beyond the standard quantum limit" and "valid both for
  motional and librational degrees of freedom": acceptance criteria 8 and 9
  (the SQL floor, and the optimal sensitivity equal to the best heating
  suppression) and criterion 5 (libration) in tests/test_acceptance.py.
"""

import math

import pytest

from levsqueeze import angular, squeeze
from levsqueeze.cli import main

DB = 15.0
MODE_MATCHED = squeeze.OverlapResult(xi=1.0)


def ratio(xi, db, phase=0.0):
    sq = squeeze.SqueezeParams(r_s=squeeze.db_to_r(db), phi_s=phase)
    return squeeze.recoil_ratio(squeeze.OverlapResult(xi=xi), sq, absolute_phase=False)


def test_mode_matched_mode_reaches_98_percent_from_17_db():
    # e^{-2r} = 10^{-dB/10}
    assert ratio(1.0, DB) == pytest.approx(10**-1.5, rel=1e-12)
    assert 1.0 - ratio(1.0, DB) == pytest.approx(0.968377, abs=1e-6)
    threshold = 10.0 * math.log10(50.0)
    assert threshold == pytest.approx(16.9897, abs=1e-4)
    assert ratio(1.0, threshold) == pytest.approx(0.02, rel=1e-12)
    assert ratio(1.0, threshold - 0.01) > 0.02


def test_single_gaussian_beam_suppresses_motion_z_heating_by_60_percent_per_mode(tmp_path):
    xi = {axis: angular.gaussian_overlap("motion", axis, 1.0, axis=(0.0, 0.0, -1.0)) for axis in "xyz"}
    assert abs(xi["z"]) ** 2 == pytest.approx(0.880363, abs=1e-6)
    assert xi["x"] == 0 and xi["y"] == 0
    per_mode = {axis: ratio(value, DB) for axis, value in xi.items()}
    assert 1.0 - per_mode["z"] == pytest.approx(0.8525, abs=5e-5)
    assert per_mode["x"] == per_mode["y"] == 1.0

    # the CLI writes the same motion-z ratio
    assert main(["--out", str(tmp_path), "recoil", "--beam", "na=1,axis=-z", "--db", "15", "--phase", "0"]) == 0
    assert (tmp_path / "recoil.csv").read_text() == f"r_db,ratio_na1_-z\n15,{per_mode['z']:.12g}\n"

    # summed over the three motional modes with their geometry factors, the
    # same beam falls just short of 60 %
    weights = angular.MOTION_GEOMETRY_FACTORS
    total = sum(weights[a] * per_mode[a] for a in "xyz") / sum(weights.values())
    assert 1.0 - total == pytest.approx(0.596766, abs=1e-6)
