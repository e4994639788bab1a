"""Command-line interface.

Subcommands emit CSV tables and JSON sidecars for recoil sweeps, radiation
patterns, sensitivity curves, beam optimization and Wigner-function data.
Each option is declared once, as a row of OPTIONS (or COMMON for the options
given before the command); that row yields the argparse flag, the type of
its key in the command's config section, its converter, and the line in the
echoed config. The physics
sections of a config file are the fields of the `physics` dataclasses, which
hold every bound on them. A flag beats the config file, which beats the
default; each run echoes its resolved settings to `<command>_config.json`,
so reruns are reproducible.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # A fresh process: no collection walks the heap the imports below build;
    # run() freezes that heap and enables collection again.
    gc.disable()

import argparse
import json
import math
import os
import re
import sys
import warnings
from dataclasses import fields
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import detect, physics, scatter, squeeze
from .angular import DEFAULT_RULE, QuadratureRule, make_beam, make_mode
from .errors import ConfigError, NumericalFailure
from .io import write_csv, write_json
from .optimize import OptimizationProblem, optimize as run_optimize

# Config sections of physics inputs, by the dataclass each one builds.
PHYSICS_SECTIONS = {"laser": physics.Laser, "particle": physics.Particle, "rotor": physics.Rotor}
# Largest quadrature error of a reported overlap that passes without a warning.
QUADRATURE_WARNING = 1e-8
# Largest distance of the Wigner table's sum of w dx dy from 1 that passes without a warning.
WIGNER_SUM_WARNING = 1e-3

# "x", "+x", "-x", ... -> unit vector
AXIS_TOKENS = {
    sign + name: [(-1.0 if sign == "-" else 1.0) if i == j else 0.0 for j in range(3)]
    for i, name in enumerate("xyz")
    for sign in ("", "+", "-")
}

_PI_PATTERN = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$")


def parse_number(text, what="number") -> float:
    """Parse a finite number: plain float or exact pi-literal like `3pi/2`.

    Every numeric user input goes through here; anything unparsable or
    non-finite is a ConfigError.
    """
    s = str(text).strip().replace(" ", "")
    match = _PI_PATTERN.match(s)
    try:
        if match:
            sign, coeff, div = match.groups()
            value = (-1.0 if sign == "-" else 1.0) * float(coeff or 1.0) * math.pi / float(div or 1.0)
        else:
            value = float(s)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse {what} {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return value


def parse_grid(text, what="grid") -> tuple[int, int]:
    """Parse an `NxM` spec of two positive integers."""
    try:
        n, m = (int(p) for p in str(text).lower().split("x"))
    except ValueError:
        raise ConfigError(f"{what} must look like NxM, got {text!r}") from None
    if n < 1 or m < 1:
        raise ConfigError(f"{what} sizes must be positive, got {text!r}")
    return n, m


def parse_quad(text) -> QuadratureRule:
    return QuadratureRule(*parse_grid(text, "quadrature spec"))


def parse_db_range(text) -> np.ndarray:
    """The array of a dB value or of a start:stop:step range.

    The range steps up from start and never passes stop; stop itself is
    included when it lies on the grid to within 1e-9 of a step. Its values
    are start + i * step, one array allocated at once, so a range too long
    for memory fails before any work is done.
    """
    parts = str(text).split(":")
    if len(parts) == 1:
        return np.array([parse_number(text, "dB value")])
    if len(parts) != 3:
        raise ConfigError(f"dB range must be value or start:stop:step, got {text!r}")
    start, stop, step = (parse_number(p, "dB range bound") for p in parts)
    if step <= 0 or stop < start:
        raise ConfigError("dB range requires step > 0 and stop >= start")
    steps = (stop - start) / step + 1e-9
    if not steps < 2.0**53:  # past 2^53 the step count i is no longer exact
        raise ConfigError(f"dB range {text!r} has {steps:.3g} steps, more than 2^53")
    return start + np.arange(math.floor(steps) + 1) * step


def parse_beam_spec(text) -> dict:
    """Parse `na=0.9,axis=-z,pol=0` into beam parameters plus a label; a
    repeated key is a ConfigError."""
    given = _named_values(str(text).split(","), "beam", lambda value, name: value)
    for key in given:
        if key not in ("na", "axis", "pol"):
            raise ConfigError(f"unknown beam parameter {key!r}")
    if "na" not in given:
        raise ConfigError("beam spec requires na=")
    axis = given.get("axis", "-z")
    if axis not in AXIS_TOKENS:
        raise ConfigError(f"beam axis must be one of {sorted(AXIS_TOKENS)}")
    na = parse_number(given["na"], "beam na")
    return {
        "na": na,
        "axis": AXIS_TOKENS[axis],
        "polarization_angle": parse_number(given.get("pol", "0"), "beam pol"),
        "label": f"na{na:g}_{axis.lstrip('+')}",
    }


class Opt(NamedTuple):
    """One CLI option. `name` is its config key and parameter name; the
    default's type sets the flag kind and the config type."""

    name: str
    default: object
    help: str
    flag: str | None = None  # when not --name with dashes


AXIS = Opt("axis", "z", "Mechanical axis (x, y or z).")
KIND = Opt("kind", "motion", "motion or libration.")
DB = Opt("db", "15", "Squeezing in dB.")
OFFSET = Opt("phase", "0", "Phase offset phi_s - 2 arg(xi); pi-literals allowed.")

COMMON = (
    Opt("quad", f"{DEFAULT_RULE.n_theta}x{DEFAULT_RULE.n_phi}", "Quadrature NTHETAxNPHI."),
    Opt("seed", 0, "Accepted and echoed in the config; no stage is random."),
)
OPTIONS = {
    "recoil": (
        AXIS,
        KIND,
        Opt("beams", (), "Beam spec na=...,axis=...,pol=... (repeatable).", "--beam"),
        Opt("perfect_overlap", False, "Include the |xi|=1 column."),
        Opt("db", "0:20:0.5", "Squeezing in dB: value or start:stop:step."),
        OFFSET,
        Opt("absolute_phase", False, "Treat --phase as absolute phi_s instead of the offset phi_s - 2 arg(xi)."),
    ),
    "irp": (
        AXIS,
        KIND,
        Opt("beam", "na=0.9,axis=-z", "Beam spec na=...,axis=...,pol=..."),
        DB,
        OFFSET,
        Opt("grid", "181x360", "Export grid NTHETAxNPHI."),
    ),
    "sensitivity": (
        Opt("xi", 1.0, "Overlap modulus |xi|."),
        DB,
        OFFSET._replace(default="3pi/2"),
        Opt("omega_ratio", detect.LOW_FREQ_OMEGA_RATIO, "omega / mode frequency."),
        Opt("gamma_ratio", detect.LOW_FREQ_DAMPING_RATIO, "damping / mode frequency."),
        Opt("u_range", "1e-4:1e4:200", "Log grid lo:hi:n for the measurement strength.", "--u"),
        Opt("heatmap", False, "Emit the (e^2r, |xi|^2) optimal-sensitivity table instead of a u-curve."),
        Opt("heatmap_grid", "25x26", "Heatmap resolution N_E2RxN_XI2."),
    ),
    "optimize": (
        Opt("objective", "recoil_ratio", "recoil_ratio or s_min_opt."),
        KIND,
        AXIS,
        DB,
        Opt("free", (), "Free parameter name=lo:hi (repeatable); phi is not searched."),
        Opt("fixed", (), "Fixed parameter name=value (repeatable), phi among them."),
        Opt("budget", 200, "Max objective evaluations: grid points over na, axis_theta and axis_phi."),
    ),
    "wigner": (
        Opt("source", "bare", "bare (squeezed mode) or input (interacting mode)."),
        DB,
        Opt("phase", "0", "Squeeze phase (bare) or offset phi_s - 2 arg(xi) (input)."),
        Opt("xi", 1.0, "Overlap modulus (input source only)."),
        Opt("grid_n", 101, "Grid points per quadrature axis."),
    ),
}


def _is_number(value):
    """A finite JSON number; true and false are not numbers."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)


def _count(value, name):
    """A non-negative integer from a flag's digits or a config number."""
    try:
        count = int(value)
    except ValueError:
        count = -1
    if count < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")
    return count


# Per default type: the flag's argparse action, what the option's value in a
# config file must be, and the converter of a flag's text, a config value or
# the default to what the command reads. String options also take numbers,
# which become their text; an integer may be written 20.0.
_KIND = {
    bool: ("store_true", "a boolean", lambda v: isinstance(v, bool), lambda v, name: v),
    tuple: (
        "append",
        "an array of strings",
        lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
        lambda v, name: v,
    ),
    int: ("store", "a non-negative integer", lambda v: _is_number(v) and v >= 0 and v == int(v), _count),
    float: ("store", "a finite number", _is_number, parse_number),
    str: ("store", "a string or a finite number", lambda v: isinstance(v, str) or _is_number(v), lambda v, name: str(v)),
}


def load_config(path):
    """The config file at `path`, checked, with each physics section built
    into its `physics` dataclass."""
    if path is None:
        return {}
    try:
        with open(path) as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    _check_section("(top level)", config, [*PHYSICS_SECTIONS, *OPTIONS])
    for name, section in config.items():
        if name in PHYSICS_SECTIONS:
            inputs = PHYSICS_SECTIONS[name]
            names = [field.name for field in fields(inputs)]
            _check_section(name, section, names, required=names)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    config[name] = inputs(**section)
            except ConfigError as exc:
                raise ConfigError(f"config field {name}: {exc}") from None
            for warning in caught:
                print(f"warning: config field {name}: {warning.message}", file=sys.stderr)
        else:
            defaults = {o.name: o.default for o in COMMON + OPTIONS[name]}
            _check_section(name, section, defaults)
            for key, value in section.items():
                _, what, accepts, _ = _KIND[type(defaults[key])]
                if not accepts(value):
                    raise ConfigError(f"config field {name}/{key}: expected {what}, got {value!r}")
    return config


def _check_section(path, section, known, required=()):
    """A config section is an object of `known` keys, `required` among them."""
    if not isinstance(section, dict):
        raise ConfigError(f"config field {path}: expected an object, got {section!r}")
    unknown = [k for k in section if k not in known]
    missing = [k for k in required if k not in section]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ConfigError(f"config field {path}: {problem} keys {', '.join(map(repr, keys))}")


class Run:
    """What every subcommand shares: the config file, the output directory
    and the --quad rule."""

    def __init__(self, config, out, quad):
        self.config = config
        self.out = out
        self.rule = parse_quad(quad)

    def path(self, name):
        return os.path.join(self.out, name)

    def derived_report(self):
        cfg = self.config
        if "laser" not in cfg:
            return None
        return physics.derived_report(cfg["laser"], particle=cfg.get("particle"), rotor=cfg.get("rotor"))


def _flag_unresolved(error, what):
    """Return the quadrature error of an exact overlap, after a warning on
    stderr if it shows that the --quad rule does not resolve the beam."""
    if error > QUADRATURE_WARNING:
        print(
            f"warning: {what}: the --quad integral of the overlap is {error:.3g} from its exact value; "
            "the rule does not resolve this beam",
            file=sys.stderr,
        )
    return error


def recoil(run, opt):
    """Recoil-heating ratio versus squeezing degree."""
    opt.perfect_overlap = opt.perfect_overlap or not opt.beams
    beams = {}
    for spec in opt.beams:
        params = parse_beam_spec(spec)
        label = params.pop("label")
        if label in beams:
            raise ConfigError(f"beam {label!r} is given twice: each --beam names its column ratio_{label}")
        beams[label] = params
    header, rows, overlaps, errors = squeeze.recoil_sweep(
        beams,
        opt.axis,
        parse_db_range(opt.db),
        phi=parse_number(opt.phase, "phase"),
        kind=opt.kind,
        include_perfect=opt.perfect_overlap,
        rule=run.rule,
        absolute_phase=opt.absolute_phase,
    )
    derived = run.derived_report()
    write_csv(run.path("recoil.csv"), header, rows)

    meta = {"overlaps": {k: {"re": xi.real, "im": xi.imag, "modulus": abs(xi)} for k, xi in overlaps.items()}}
    for column, error in errors.items():
        meta["overlaps"][column]["quadrature_error"] = _flag_unresolved(error, column)
    if derived is not None:
        meta["derived"] = derived
    write_json(run.path("recoil_params.json"), meta)


def irp(run, opt):
    """Differential cross section and information radiation pattern."""
    params = parse_beam_spec(opt.beam)
    label = params.pop("label")
    xi, error = squeeze.checked_overlap(opt.kind, opt.axis, params, run.rule)
    _flag_unresolved(error, label)
    cfg = scatter.ScatterConfig(
        mode=make_mode(opt.kind, opt.axis),
        beam=make_beam(**params),
        sq=squeeze.SqueezeParams(
            r_s=squeeze.db_to_r(parse_number(opt.db, "db")), phi_s=parse_number(opt.phase, "phase")
        ),
        absolute_phase=False,
        xi=xi,
    )
    n_theta, n_phi = parse_grid(opt.grid, "irp grid")
    table, metadata = scatter.irp_grid(cfg, n_theta=n_theta, n_phi=n_phi)

    write_csv(run.path("irp.csv"), scatter.IRP_COLUMNS, table)
    write_json(run.path("irp_meta.json"), {**metadata, "quadrature_error": error})


def _check_modulus(xi):
    if not 0.0 <= xi <= 1.0:
        raise ConfigError(f"overlap modulus --xi must lie in [0, 1], got {xi}")


def sensitivity(run, opt):
    """Minimum detectable signal relative to the standard quantum limit."""
    _check_modulus(opt.xi)
    r_s = squeeze.db_to_r(parse_number(opt.db, "db"))
    chi = detect.Susceptibility(omega=opt.omega_ratio, mode_frequency=1.0, damping=opt.gamma_ratio)
    if opt.heatmap:
        n_e2r, n_xi2 = parse_grid(opt.heatmap_grid, "heatmap grid")
        e2r_values = np.linspace(1.0, math.exp(2.0 * r_s), n_e2r)
        xi2_values = np.linspace(0.0, 1.0, n_xi2)
        header, rows = detect.sensitivity_heatmap(e2r_values, xi2_values, chi)
        write_csv(run.path("sensitivity.csv"), header, rows)
        return
    try:
        lo, hi, n = str(opt.u_range).split(":")
        n = int(n)
    except ValueError:
        raise ConfigError(f"u grid must be lo:hi:n, got {opt.u_range!r}") from None
    lo, hi = parse_number(lo, "u grid bound"), parse_number(hi, "u grid bound")
    if lo <= 0 or hi <= lo or n < 2:
        raise ConfigError("u grid requires 0 < lo < hi and n >= 2")
    spectra = squeeze.input_spectra(
        squeeze.OverlapResult(xi=opt.xi),
        squeeze.SqueezeParams(r_s=r_s, phi_s=parse_number(opt.phase, "phase")),
        absolute_phase=False,
    )
    rows = detect.sensitivity_curve(spectra, chi, np.geomspace(lo, hi, n))
    write_csv(run.path("sensitivity.csv"), ["u", "s_min_over_sql"], rows)
    u_opt, value = detect.s_min_opt_u(spectra, chi)
    meta = {"u_opt": u_opt, "s_min_opt": value, "sxx": spectra.sxx, "syy": spectra.syy, "scross": spectra.scross}
    write_json(run.path("sensitivity_meta.json"), meta)


def _named_values(specs, what, parse):
    """{name: parse(value, name)} of `name=value` specs; a repeated name is
    a ConfigError."""
    values = {}
    for spec in specs:
        name, sep, value = (p.strip() for p in spec.partition("="))
        if not sep:
            raise ConfigError(f"{what} spec {spec!r} is not name=value")
        if name in values:
            raise ConfigError(f"{what} parameter {name!r} is given twice")
        values[name] = parse(value, name)
    return values


def _bounds(text, name):
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"free bounds {text!r} must be lo:hi")
    return tuple(parse_number(p, f"{name} bound") for p in parts)


def optimize_cmd(run, opt):
    """Search beam parameters minimizing recoil or optimized sensitivity at a
    fixed phase; polarization and weight are solved exactly."""
    problem = OptimizationProblem(
        objective=opt.objective,
        mode_kind=opt.kind,
        mode_axis=opt.axis,
        r_s=squeeze.db_to_r(parse_number(opt.db, "db")),
        free=_named_values(opt.free, "free", _bounds),
        fixed=_named_values(opt.fixed, "fixed", parse_number),
        rule=run.rule,
    )
    result = run_optimize(problem, budget=opt.budget)
    _flag_unresolved(result.quadrature_error, "best point")
    summary = {
        name: getattr(result, name)
        for name in ("best_params", "best_value", "xi_modulus", "evaluations", "quadrature_error")
    }
    write_json(run.path("optimize_result.json"), summary)
    write_csv(
        run.path("optimize_trace.csv"),
        ["evaluation", "objective"],
        np.column_stack([np.arange(len(result.trace)), result.trace]),
    )


def wigner(run, opt):
    """Gaussian Wigner function of the squeezed input light."""
    _check_modulus(opt.xi)
    r_s = squeeze.db_to_r(parse_number(opt.db, "db"))
    phi = parse_number(opt.phase, "phase")
    cov, det = detect.wigner_covariance(opt.source, r=r_s, phi=phi, xi=opt.xi)
    table = detect.wigner_grid(cov, det, n=opt.grid_n)
    total = table[:, 2].sum() * (table[1, 1] - table[0, 1]) ** 2  # sum of w dx dy
    if abs(total - 1.0) > WIGNER_SUM_WARNING:
        print(
            f"warning: the Wigner table sums to {total:.6g}, not 1; --grid-n {opt.grid_n} does not resolve this state",
            file=sys.stderr,
        )
    write_csv(run.path("wigner.csv"), ["x", "y", "w"], table)
    meta = {"covariance": cov.tolist(), "determinant": det, "source": opt.source}
    write_json(run.path("wigner_covariance.json"), meta)


# The body(run, opt) of each subcommand, whose options are COMMON and OPTIONS[name].
COMMANDS = {"recoil": recoil, "irp": irp, "sensitivity": sensitivity, "optimize": optimize_cmd, "wigner": wigner}


class _Parser(argparse.ArgumentParser):
    """A parser, the subcommands' included, that takes no abbreviated flag and
    no -h, and whose usage error is a ConfigError: one stderr line, exit 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise ConfigError(message)


def _parse_args(argv):
    """The command, --config, --out and each option given as a flag in `argv`;
    an option not given is absent. A flag that takes a value is joined by '='
    to a value that starts with '-', so that -pi/2 or -5:0:1 is not a flag."""
    parser = _Parser(prog="levsqueeze", description="Squeezed-light recoil, scattering and detection calculator.")
    parser.add_argument("--config", help="JSON config file.")
    parser.add_argument("--out", default=".", help="Output directory.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    groups = [(parser, COMMON)]
    for name, body in COMMANDS.items():
        groups.append((commands.add_parser(name, help=body.__doc__, description=body.__doc__), OPTIONS[name]))
    valued = {"--config", "--out"}
    for target, opts in groups:
        for opt in opts:
            flag = opt.flag or "--" + opt.name.replace("_", "-")
            action = _KIND[type(opt.default)][0]
            target.add_argument(flag, dest=opt.name, action=action, default=argparse.SUPPRESS, help=opt.help)
            if action != "store_true":
                valued.add(flag)
    joined = []
    for arg in argv:
        if joined and joined[-1] in valued and arg.startswith("-"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return parser.parse_args(joined)


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        config = load_config(args.config)
        section = config.get(args.command, {})
        opt = SimpleNamespace()  # a flag beats the command's config section, which beats the default
        for o in COMMON + OPTIONS[args.command]:
            value = getattr(args, o.name, section.get(o.name, o.default))
            setattr(opt, o.name, _KIND[type(o.default)][3](value, o.name))
        run = Run(config, args.out, opt.quad)
        COMMANDS[args.command](run, opt)  # which may settle an option itself, as recoil does
        payload = {args.command: vars(opt)}
        payload.update({k: vars(config[k]) for k in PHYSICS_SECTIONS if k in config})
        write_json(run.path(f"{args.command}_config.json"), payload)
    except SystemExit as exc:  # --help printed the help
        return exc.code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"configuration error: out of memory for the requested sizes{detail}", file=sys.stderr)
        return 2
    except (NumericalFailure, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def run():
    """The process entry point of `levsqueeze` and `python -m levsqueeze.cli`:
    main() after gc.freeze(), so that no collection, those at exit included,
    walks the objects that importing numpy and the package left alive.
    In-process callers call main(), which leaves the collector as it is."""
    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
