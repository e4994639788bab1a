"""Workloads of the levsqueeze benchmark: generated inputs and output checks.

Each workload is a fixed list of `levsqueeze` commands. The workload seed
only chooses input values (dB levels, phases, numerical apertures, laser
power, optimizer seeds); every size (grids, quadrature rules, budgets, dB
ranges) is fixed, so two seeds cost the same work.

Every command carries a check that reads its artifacts and compares them
with the paper's closed forms, written out here independently of the
package. Numbers are compared with tolerances, never as bytes: CSV cells
carry 12 significant digits, and refactors of the quadrature may move
results at the 1e-14 level.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

REL_TOL = 1e-9
ABS_TOL = 1e-12
XI_BOUND_TOL = 1e-10

# Largest overlap modulus |xi| the four-parameter beam search reaches at the
# default 64x128 rule (na <= 0.95) with a budget of 400, recorded from 7
# (recoil_ratio) and 12 (s_min_opt) optimizer seeds, whose best values agreed
# to 1e-8. With a budget of 200 the s_min_opt search stops up to 3e-4 short.
SEARCH_BUDGET = 400
REFERENCE_XI = {"recoil_ratio": 0.933260940733, "s_min_opt": 0.941091664652}
# Allowed distance of an optimizer's best_value from the reference optimum,
# and above the lowest objective in its own trace: the simplex stage can end
# on a point slightly worse than one it evaluated (2.2e-10 seen).
OPTIMUM_TOL = 1e-6

# Susceptibility of the CLI defaults: omega/Omega = 1e-3, gamma/Omega = 1e-6.
OMEGA_RATIO = 1e-3
GAMMA_RATIO = 1e-6

SEARCH_FREE = ("na=0.1:0.95", "weight=0:1", "polarization_angle=0:pi", "axis_theta=0:pi")


class CheckFailed(Exception):
    """An artifact is missing, non-finite or breaks a closed form."""


@dataclass
class Command:
    """One `levsqueeze` invocation and the check of what it writes."""

    name: str
    args: list
    check: Callable[[str], None]
    config: dict | None = None  # passed as --config FILE


# --- closed forms ---------------------------------------------------------


def db_to_r(db):
    return db * math.log(10.0) / 20.0


def recoil_ratio(m, r, phase):
    """Gamma/Gamma0 = 1 - |xi|^2 [1 - e^{2r} sin^2(Phi/2) - e^{-2r} cos^2(Phi/2)]."""
    s2, c2 = math.sin(phase / 2.0) ** 2, math.cos(phase / 2.0) ** 2
    return 1.0 - m * m * (1.0 - math.exp(2.0 * r) * s2 - math.exp(-2.0 * r) * c2)


def recoil_floor(m, r):
    """Lowest recoil ratio over the phase, 1 - |xi|^2 (1 - e^{-2r})."""
    return 1.0 - m * m * (1.0 - math.exp(-2.0 * r))


def input_spectra(m, r, phase):
    s0, c0 = math.sinh(r), math.cosh(r)
    k = 2.0 * m * m * s0
    return (
        1.0 + k * (s0 - c0 * math.cos(phase)),
        1.0 + k * (s0 + c0 * math.cos(phase)),
        -k * c0 * math.sin(phase),
    )


def susceptibility():
    return 1.0 / (1.0 - OMEGA_RATIO**2 - 1j * GAMMA_RATIO * OMEGA_RATIO)


def cos_response():
    chi = susceptibility()
    return chi.real / abs(chi)


def s_min_opt_u_phase(m, r):
    """Sensitivity over the SQL, optimal in both u and the phase."""
    c = abs(cos_response())
    return 1.0 - m * m + 0.5 * m * m * (
        math.exp(2.0 * r) * (1.0 - c) + math.exp(-2.0 * r) * (1.0 + c)
    )


# --- artifact readers -----------------------------------------------------


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def close(value, expected, rel=REL_TOL, abs_=ABS_TOL):
    return abs(value - expected) <= abs_ + rel * abs(expected)


def require_close(value, expected, what, rel=REL_TOL, abs_=ABS_TOL):
    require(close(value, expected, rel, abs_), f"{what}: got {value!r}, expected {expected!r}")


def _finite_tree(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_tree(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_tree(v) for v in value)
    return True


def load_json(out, name):
    path = os.path.join(out, name)
    require(os.path.isfile(path), f"{name} missing")
    with open(path) as handle:
        payload = json.load(handle)
    require(_finite_tree(payload), f"{name} holds NaN or inf")
    return payload


def scan_csv(out, name):
    """Header and data-row count of a CSV, rejecting any NaN or inf cell.

    Large tables are scanned as bytes: the writer prints non-finite values
    as `nan`, `inf` or `-inf`, and no header name contains those letters.
    """
    path = os.path.join(out, name)
    require(os.path.isfile(path), f"{name} missing")
    with open(path, "rb") as handle:
        data = handle.read()
    header, _, body = data.partition(b"\n")
    lowered = body.lower()
    require(b"nan" not in lowered and b"inf" not in lowered, f"{name} holds NaN or inf")
    require(data.endswith(b"\n"), f"{name} does not end with a newline")
    return header.decode().split(","), body.count(b"\n")


def read_csv(out, name):
    header, n_rows = scan_csv(out, name)
    with open(os.path.join(out, name)) as handle:
        lines = handle.read().splitlines()[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines]
    require(len(rows) == n_rows and all(len(r) == len(header) for r in rows), f"{name} is ragged")
    return header, rows


# --- checks ---------------------------------------------------------------


def db_range(start, stop, step):
    n = int(round((stop - start) / step))
    return [start + i * step for i in range(n + 1)]


def check_recoil(db_values, phase, n_beams, derived):
    def check(out):
        header, rows = read_csv(out, "recoil.csv")
        meta = load_json(out, "recoil_params.json")
        require(header[:2] == ["r_db", "ratio_perfect"], f"recoil.csv header {header}")
        require(len(header) == 2 + n_beams, f"recoil.csv has {len(header) - 2} beam columns")
        require(len(rows) == len(db_values), f"recoil.csv has {len(rows)} rows")
        moduli = [1.0 if col == "ratio_perfect" else meta["overlaps"][col]["modulus"] for col in header[1:]]
        require(all(m <= 1.0 + XI_BOUND_TOL for m in moduli), f"|xi| above 1: {moduli}")
        for row, db in zip(rows, db_values):
            require_close(row[0], db, "r_db")
            r = db_to_r(db)
            if phase == 0.0:
                require_close(row[1], math.exp(-2.0 * r), f"ratio_perfect at {db} dB")
            for col, m, value in zip(header[1:], moduli, row[1:]):
                require_close(value, recoil_ratio(m, r, phase), f"{col} at {db} dB")
        require(("derived" in meta) == derived, "derived physics report presence")

    return check


def check_irp(n_theta, n_phi, r, phase):
    def check(out):
        header, n_rows = scan_csv(out, "irp.csv")
        require(header == ["theta", "phi", "dsigma", "irp", "f_plus_sq", "f_minus_sq"], f"irp.csv header {header}")
        require(n_rows == n_theta * n_phi, f"irp.csv has {n_rows} rows")
        meta = load_json(out, "irp_meta.json")
        m = meta["xi_modulus"]
        require(m <= 1.0 + XI_BOUND_TOL, f"|xi| = {m} above 1")
        require(meta["normalization"] > 0.0, "IRP normalization not positive")
        require_close(meta["r_s"], r, "irp r_s")
        require_close(meta["relative_phase"], phase % (2.0 * math.pi), "irp relative phase")
        require_close(meta["ratio"], recoil_ratio(m, r, phase), "irp_meta ratio")

    return check


def check_sensitivity(xi, r, phase, n_u):
    def check(out):
        meta = load_json(out, "sensitivity_meta.json")
        sxx, syy, scross = meta["sxx"], meta["syy"], meta["scross"]
        for got, want, what in zip((sxx, syy, scross), input_spectra(xi, r, phase), ("sxx", "syy", "scross")):
            require_close(got, want, what, abs_=1e-9)
        require(sxx * syy - scross**2 >= 1.0 - 1e-9, "input spectra break det >= 1")
        optimum = math.sqrt(sxx * syy) - cos_response() * scross
        require_close(meta["s_min_opt"], optimum, "s_min_opt")
        require_close(meta["u_opt"], math.sqrt(syy / sxx) / abs(susceptibility()), "u_opt")
        header, rows = read_csv(out, "sensitivity.csv")
        require(header == ["u", "s_min_over_sql"] and len(rows) == n_u, "sensitivity.csv shape")
        floor = optimum * (1.0 - REL_TOL)
        require(all(v >= floor for _, v in rows), "u-curve dips below its closed-form optimum")

    return check


def check_heatmap(r, n_e2r, n_xi2):
    def check(out):
        header, rows = read_csv(out, "sensitivity.csv")
        require(header == ["e2r", "xi_squared", "s_min_over_sql"], f"heatmap header {header}")
        require(len(rows) == n_e2r * n_xi2, f"heatmap has {len(rows)} rows")
        require_close(rows[-1][0], math.exp(2.0 * r), "largest e^2r")
        for e2r, x2, value in rows:
            expected = s_min_opt_u_phase(math.sqrt(x2), 0.5 * math.log(e2r))
            require_close(value, expected, f"heatmap at e2r={e2r}, xi2={x2}")

    return check


def check_wigner(n, r, phase):
    def check(out):
        header, n_rows = scan_csv(out, "wigner.csv")
        require(header == ["x", "y", "w"] and n_rows == n * n, "wigner.csv shape")
        meta = load_json(out, "wigner_covariance.json")
        ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
        expected = [
            [ch + sh * math.cos(phase), -sh * math.sin(phase)],
            [-sh * math.sin(phase), ch - sh * math.cos(phase)],
        ]
        for got_row, want_row in zip(meta["covariance"], expected):
            for got, want in zip(got_row, want_row):
                require_close(got, want, "Wigner covariance", abs_=1e-9 * ch)
        require(meta["determinant"] >= 1.0 - 1e-9, f"Wigner det {meta['determinant']} below 1")

    return check


def check_optimize(objective, r, budget, reference):
    def check(out):
        result = load_json(out, "optimize_result.json")
        best, m, n_eval = result["best_value"], result["xi_modulus"], result["evaluations"]
        require(1 <= n_eval <= budget, f"{n_eval} evaluations for budget {budget}")
        _, rows = read_csv(out, "optimize_trace.csv")
        require(len(rows) == n_eval, "trace length differs from evaluations")
        lowest = min(v for _, v in rows)
        require(close(lowest, best) or lowest < best <= lowest + OPTIMUM_TOL, f"best_value {best} against trace minimum {lowest}")
        require(m <= 1.0 + XI_BOUND_TOL, f"|xi| = {m} above 1")
        require(best >= recoil_floor(m, r) - ABS_TOL, "best_value below 1 - |xi|^2 (1 - e^-2r)")
        value_at = recoil_floor if objective == "recoil_ratio" else s_min_opt_u_phase
        require_close(best, value_at(m, r), f"{objective} closed form at |xi|")
        if reference is not None:
            expected = value_at(reference, r)
            require(abs(best - expected) <= OPTIMUM_TOL, f"best_value {best} is not the reference optimum {expected}")

    return check


# --- workloads ------------------------------------------------------------


def _phase(rng):
    return round(rng.uniform(0.0, 2.0 * math.pi), 6)


def _db(rng, lo=3.0, hi=15.0):
    return rng.choice(db_range(lo, hi, 0.5))


def figures(rng, reduced):
    """The paper's figure set, one command per output."""
    db_values = db_range(0.0, 20.0, 0.5)
    nas = [round(rng.uniform(0.5, 0.95), 2) for _ in range(3)]
    config = {
        "laser": {"power": round(rng.uniform(0.1, 1.0), 3), "waist": 0.7e-6, "wavelength": 1.064e-6},
        "particle": {"radius": round(rng.uniform(50.0, 100.0), 1) * 1e-9, "density": 2200.0, "permittivity": 2.1},
    }
    recoil = ["recoil", "--axis", "z", "--perfect-overlap", "--db", "0:20:0.5", "--phase", "0"]
    for na, axis in zip(nas, ("-z", "-y", "-x")):
        recoil += ["--beam", f"na={na},axis={axis}"]

    lib_na, lib_phase = round(rng.uniform(0.5, 0.95), 2), _phase(rng)
    irp_na, irp_db, irp_phase = round(rng.uniform(0.5, 0.95), 2), _db(rng), _phase(rng)
    grid = (19, 36) if reduced else (181, 360)
    sens_xi, sens_db, sens_phase = round(rng.uniform(0.3, 1.0), 4), _db(rng), _phase(rng)
    heat_db = _db(rng)
    wig_db, wig_phase = _db(rng), _phase(rng)
    grid_n = 41 if reduced else 401
    return [
        Command("recoil", recoil, check_recoil(db_values, 0.0, 3, True), config),
        Command(
            "recoil-libration",
            ["recoil", "--kind", "libration", "--axis", "y", "--perfect-overlap", "--db", "0:20:0.5",
             "--phase", repr(lib_phase), "--beam", f"na={lib_na},axis=-z,pol=pi/2"],
            check_recoil(db_values, lib_phase, 1, False),
        ),
        Command(
            "irp",
            ["irp", "--beam", f"na={irp_na},axis=-z", "--db", repr(irp_db), "--phase", repr(irp_phase),
             "--grid", "%dx%d" % grid],
            check_irp(*grid, db_to_r(irp_db), irp_phase),
        ),
        Command(
            "sensitivity",
            ["sensitivity", "--xi", repr(sens_xi), "--db", repr(sens_db), "--phase", repr(sens_phase)],
            check_sensitivity(sens_xi, db_to_r(sens_db), sens_phase, 200),
        ),
        Command("sensitivity-heatmap", ["sensitivity", "--heatmap", "--db", repr(heat_db)], check_heatmap(db_to_r(heat_db), 25, 26)),
        Command(
            "wigner",
            ["wigner", "--grid-n", str(grid_n), "--db", repr(wig_db), "--phase", repr(wig_phase)],
            check_wigner(grid_n, db_to_r(wig_db), wig_phase),
        ),
    ]


def search(rng, reduced):
    """Four-parameter beam searches; at reduced size the budgets are too
    small to reach the reference optimum, so only the closed forms apply."""
    commands = []
    budget = 40 if reduced else SEARCH_BUDGET
    for objective, kind, axis, phi in (
        ("recoil_ratio", "motion", "z", "0"),
        ("s_min_opt", "libration", "y", "3pi/2"),
    ):
        db, seed = _db(rng, 6.0, 15.0), rng.randrange(2**31)
        args = ["--seed", str(seed), "optimize", "--objective", objective, "--kind", kind, "--axis", axis,
                "--db", repr(db), "--fixed", f"phi={phi}", "--budget", str(budget)]
        for spec in SEARCH_FREE:
            args += ["--free", spec]
        reference = None if reduced else REFERENCE_XI[objective]
        name = "optimize-recoil" if objective == "recoil_ratio" else "optimize-smin"
        commands.append(Command(name, args, check_optimize(objective, db_to_r(db), budget, reference)))
    return commands


def fine_quad(rng, reduced):
    """Few angular calls on large node arrays, and a 22 MB CSV."""
    quad = "16x32" if reduced else "256x512"
    grid = (37, 72) if reduced else (361, 720)
    db_values = db_range(0.0, 20.0, 0.5)
    phase = _phase(rng)
    recoil = ["--quad", quad, "recoil", "--axis", "z", "--perfect-overlap", "--db", "0:20:0.5", "--phase", repr(phase)]
    for axis in ("-z", "-y", "-x", "+z"):
        recoil += ["--beam", f"na={round(rng.uniform(0.6, 0.95), 2)},axis={axis}"]
    irp_db, irp_phase = _db(rng), _phase(rng)
    return [
        Command("recoil-fine", recoil, check_recoil(db_values, phase, 4, False)),
        Command(
            "irp-fine",
            ["--quad", quad, "irp", "--kind", "libration", "--axis", "y", "--beam", "na=0.8,axis=-z,pol=pi/2",
             "--db", repr(irp_db), "--phase", repr(irp_phase), "--grid", "%dx%d" % grid],
            check_irp(*grid, db_to_r(irp_db), irp_phase),
        ),
    ]


WORKLOADS = {"figures": figures, "search": search, "fine-quad": fine_quad}


def commands(workload, seed, reduced=False):
    """The workload's commands with inputs drawn from `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), reduced)
