import filecmp
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from levsqueeze import cli, detect, io
from levsqueeze.cli import OPTIONS, main, parse_beam_spec, parse_db_range, parse_number, parse_quad
from levsqueeze.angular import NA_MIN, QuadratureRule, gaussian_overlap, integrate_sphere, make_beam, make_mode, overlap
from levsqueeze.errors import ConfigError, NumericalFailure
from levsqueeze.io import write_csv, write_json

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402


def run(tmp_path, *args):
    return main(["--out", str(tmp_path), *args])


def fresh_python(code, *args):
    """Run `code` in a new interpreter that imports levsqueeze from this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


def test_parse_phase_pi_literals():
    assert parse_number("pi") == math.pi
    assert parse_number("3pi/2") == 3.0 * math.pi / 2.0
    assert parse_number("-pi/4") == -math.pi / 4.0
    assert parse_number("2pi") == 2.0 * math.pi
    assert parse_number("0.25") == 0.25
    assert parse_number(1.5) == 1.5
    with pytest.raises(ConfigError):
        parse_number("threepi")


def test_parse_helpers():
    rule = parse_quad("32x64")
    assert (rule.n_theta, rule.n_phi) == (32, 64)
    with pytest.raises(ConfigError):
        parse_quad("banana")
    assert parse_db_range("15").tolist() == [15.0]
    assert parse_db_range("0:10:5").tolist() == [0.0, 5.0, 10.0]
    with pytest.raises(ConfigError):
        parse_db_range("0:10:-1")
    beam = parse_beam_spec("na=0.9,axis=-z,pol=pi/2")
    assert beam["na"] == 0.9
    assert beam["axis"] == [0.0, 0.0, -1.0]
    assert beam["polarization_angle"] == pytest.approx(math.pi / 2)
    with pytest.raises(ConfigError):
        parse_beam_spec("axis=-z")


def test_recoil_outputs(tmp_path):
    code = run(
        tmp_path, "recoil", "--perfect-overlap", "--db", "15", "--phase", "pi"
    )
    assert code == 0
    lines = (tmp_path / "recoil.csv").read_bytes().decode().split("\n")
    assert lines[0] == "r_db,ratio_perfect"
    value = float(lines[1].split(",")[1])
    r15 = 15.0 * math.log(10.0) / 20.0
    assert value == pytest.approx(math.exp(2.0 * r15), rel=1e-6)


@pytest.mark.parametrize(
    "args",
    [
        ["--axis", "z", "--beam", "na=0.9,axis=-z", "--beam", "na=0.7,axis=-y", "--beam", "na=0.6,axis=+x,pol=pi/3"],
        ["--kind", "libration", "--axis", "y", "--beam", "na=0.8,axis=-z,pol=pi/2", "--beam", "na=0.5,axis=+z,pol=-pi/2"],
    ],
    ids=["motion", "libration"],
)
def test_recoil_absolute_phase_is_offset_by_twice_arg_xi(tmp_path, args):
    # with --absolute-phase, --phase is phi_s and each column is the closed
    # form at Phi = phi_s - 2 arg(xi), xi as recoil_params.json writes it
    phi_s = 0.4
    assert run(tmp_path, "recoil", "--perfect-overlap", *args, "--db", "0:20:2.5", "--phase", str(phi_s), "--absolute-phase") == 0
    lines = (tmp_path / "recoil.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]
    overlaps = json.loads((tmp_path / "recoil_params.json").read_text())["overlaps"]
    assert sorted(header[1:]) == sorted(overlaps) and len(rows) == 9
    for column, xi in overlaps.items():
        m, phase = xi["modulus"], phi_s - 2.0 * math.atan2(xi["im"], xi["re"])
        for row in rows:
            r = row[0] * math.log(10.0) / 20.0
            s2, c2 = math.sin(phase / 2.0) ** 2, math.cos(phase / 2.0) ** 2
            expected = 1.0 - m * m * (1.0 - math.exp(2.0 * r) * s2 - math.exp(-2.0 * r) * c2)
            assert row[header.index(column)] == pytest.approx(expected, rel=1e-10)


def test_recoil_absolute_phase_zero_is_the_enhancement(tmp_path):
    # arg xi = -pi/2 for motion z, so phi_s = 0 is the offset Phi = pi
    assert run(tmp_path, "recoil", "--beam", "na=0.9,axis=-z", "--db", "15", "--phase", "0", "--absolute-phase") == 0
    assert (tmp_path / "recoil.csv").read_text() == "r_db,ratio_na0.9_-z\n15,27.2739008105\n"


def test_recoil_zero_db_neutral(tmp_path):
    assert run(tmp_path, "recoil", "--beam", "na=0.8,axis=-z", "--db", "0") == 0
    lines = (tmp_path / "recoil.csv").read_text().strip().split("\n")
    for row in lines[1:]:
        assert all(float(v) == 1.0 for v in row.split(",")[1:])


def test_csv_formatting(tmp_path):
    run(tmp_path, "recoil", "--perfect-overlap", "--db", "0:15:5")
    raw = (tmp_path / "recoil.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    value = raw.decode().strip().split("\n")[-1].split(",")[1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 13


def test_exit_code_config_error(tmp_path):
    assert run(tmp_path, "recoil", "--beam", "na=zzz") == 2
    assert run(tmp_path, "recoil", "--db", "-5") == 2
    assert main(["--out", str(tmp_path), "unknown-command"]) == 2


def interrupt(*args, **kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "args, sweep, code, message",
    [
        # a value that starts with "-" is the value, not a flag
        (["sensitivity", "--phase", "-pi/2"], None, 0, None),
        (["sensitivity", "--phase", "-1e-3"], None, 0, None),
        (["recoil", "--db", "-5:0:1"], None, 2, "configuration error: squeezing level in dB must be non-negative"),
        # no flag is abbreviated: --d is not --db
        (["recoil", "--d", "3"], None, 2, "--d"),
        (["recoil", "--no-such-option"], None, 2, "--no-such-option"),
        ([], None, 2, "COMMAND"),
        (["recoil", "--db", "3"], interrupt, 2, "interrupted"),
    ],
    ids=["phase-pi-literal", "phase-exponent", "db-range", "abbreviation", "unknown-option", "bare", "interrupt"],
)
def test_parser_edges(tmp_path, capsys, monkeypatch, args, sweep, code, message):
    # sweep, when given, stands in for the recoil sweep
    if sweep:
        monkeypatch.setattr(cli.squeeze, "recoil_sweep", sweep)
    assert main(["--out", str(tmp_path), *args] if args else []) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and (tmp_path / "sensitivity_config.json").is_file()
    else:
        assert err.count("\n") == 1 and message in err
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [None, *OPTIONS])
def test_help_names_every_option(capsys, command):
    assert main([command, "--help"] if command else ["--help"]) == 0
    text = capsys.readouterr().out
    for opt in cli.COMMON if command is None else OPTIONS[command]:
        assert (opt.flag or "--" + opt.name.replace("_", "-")) in text


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    assert run(target, "recoil", "--db", "15") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(target) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_artifact_name_taken_by_a_directory_exits_2(tmp_path, capsys):
    (tmp_path / "recoil.csv").mkdir()
    assert run(tmp_path, "recoil", "--db", "3") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write ") and str(tmp_path / "recoil.csv") in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.glob("*.tmp"))


# main in a new interpreter whose address space may grow by 1 GiB past what
# it holds once levsqueeze (and numpy's thread pool) is loaded, so an
# oversized request fails at once, whatever the host's overcommit policy
CAPPED_MAIN = """import os, resource, sys
from levsqueeze.cli import main
limit = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + (1 << 30)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))"""


@pytest.mark.parametrize(
    "args",
    [
        ["wigner", "--grid-n", "100000"],  # 74.5 GiB
        ["irp", "--grid", "100000x100000"],  # 447 GiB
        ["sensitivity", "--u", "1e-4:1e4:1000000000"],  # 7.45 GiB
        ["sensitivity", "--u", "1e-4:1e4:50000000"],  # 381 MiB of u fit, its 763 MiB table does not
        ["sensitivity", "--heatmap", "--heatmap-grid", "100000x100000"],  # 224 GiB
        ["recoil", "--db", "0:1e10:1"],  # 74.5 GiB
    ],
    ids=["wigner", "irp", "sensitivity", "sensitivity-table", "heatmap", "recoil"],
)
def test_sizes_beyond_memory_exit_2(tmp_path, args):
    out = tmp_path / "out"
    proc = fresh_python(CAPPED_MAIN, "--out", str(out), *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("configuration error: out of memory for the requested sizes: Unable to allocate")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["recoil", "--phase", "pi/0"],
        ["recoil", "--db", "nan"],
        ["recoil", "--db", "inf"],
        ["recoil", "--db", "0:1e400:1"],
        ["recoil", "--db", "0:1e300:1e-300"],
        ["recoil", "--beam", "na=nan"],
        ["recoil", "--beam", "na=0.5,pol=inf"],
        ["sensitivity", "--phase", "inf"],
        ["sensitivity", "--xi", "nan"],
        ["sensitivity", "--omega-ratio", "inf"],
        ["sensitivity", "--gamma-ratio", "nan"],
        ["sensitivity", "--u", "1e-4:inf:20"],
        ["sensitivity", "--u", "1:10:x"],
        ["sensitivity", "--heatmap", "--heatmap-grid", "0x0"],
        ["irp", "--grid", "axb"],
        ["optimize", "--free", "na=0.1:nan"],
        ["optimize", "--free", "na=0.1:0.9", "--fixed", "phi=inf"],
        ["optimize", "--free", "na=0.1:0.9", "--fixed", "weight=2", "--budget", "20"],
        ["--seed", "-1", "optimize", "--free", "na=0.1:0.9"],
        ["sensitivity", "--xi", "-0.5"],
        ["wigner", "--source", "input", "--xi", "-0.5"],
        ["recoil", "--beam", "na=0.5,na=0.7"],
    ],
)
def test_bad_numbers_exit_2(tmp_path, args):
    assert run(tmp_path, *args) == 2
    assert not any(name.endswith(".csv") for name in os.listdir(tmp_path))


@pytest.mark.parametrize(
    "args, named",
    [
        (["--free", "na=0.3:0.9", "--fixed", "na=0.5"], "'na' is both free and fixed"),
        (["--free", "na=0.3:0.9", "--fixed", "phi=0", "--fixed", "phi=1"], "'phi' is given twice"),
        (["--free", "na=0.3:0.6", "--free", "na=0.5:0.9"], "'na' is given twice"),
        (["--free", "na=0.5:1.5"], "upper bound 1.5 of 'na'"),
        (["--free", "phi=0:pi"], "--fixed phi="),
    ],
)
def test_optimize_rejects_repeated_names_and_bounds(tmp_path, capsys, args, named):
    assert run(tmp_path, "optimize", *args) == 2
    assert named in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


TINY_NA = {
    "recoil": ["recoil", "--beam", "na={},axis=-z"],
    "irp": ["irp", "--beam", "na={},axis=-z", "--grid", "4x4"],
    "optimize": ["optimize", "--free", "na={}:0.5", "--budget", "9"],
}


@pytest.mark.parametrize("command", sorted(TINY_NA))
@pytest.mark.parametrize("na", [repr(NA_MIN), "1e-154", "1e-200"])
def test_na_domain_ends_where_na_squared_is_normal(tmp_path, capsys, command, na):
    # at sqrt(float_info.min) every command runs clean; below it na^2 is
    # subnormal or zero, and a beam or a search bound exits 2 before any work
    args = [arg.format(na) for arg in TINY_NA[command]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(tmp_path, *args)
    err = capsys.readouterr().err
    if float(na) == NA_MIN:
        assert (code, err) == (0, "")
    else:
        assert code == 2 and len(err.splitlines()) == 1
        assert f"{na} of 'na' lies outside [{NA_MIN!r}, 1]" in err or f"aperture {na} lies outside" in err
        assert os.listdir(tmp_path) == []


SEARCH = ["--free", "na=0.3:0.9", "--fixed", "phi=0"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["recoil", "--kind", "libration", "--axis", "x", "--perfect-overlap"], "libration axis must be y or z"),
        (["irp", "--kind", "breathing"], "mode kind must be motion or libration"),
        (["optimize", "--kind", "libration", "--axis", "x", *SEARCH], "libration axis must be y or z"),
        (["optimize", "--kind", "breathing", *SEARCH], "mode kind must be motion or libration"),
        (["wigner", "--source", "nope"], "wigner source must be bare or input"),
    ],
)
def test_bad_mode_or_source_exits_2(tmp_path, capsys, args, message):
    # a recoil table of the |xi| = 1 column alone still checks the mode
    assert run(tmp_path, *args) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_optimize_ignores_the_seed(tmp_path):
    args = ["optimize", "--free", "na=0.3:0.9", "--free", "polarization_angle=0:pi", "--db", "9", "--budget", "30"]
    for seed in ("1", "2"):
        assert main(["--out", str(tmp_path / seed), "--seed", seed, *args]) == 0
    for name in ("optimize_result.json", "optimize_trace.csv"):
        assert filecmp.cmp(tmp_path / "1" / name, tmp_path / "2" / name, shallow=False), name


def test_db_range_never_passes_stop():
    values = parse_db_range("0:20:0.3")
    assert values[-1] == pytest.approx(19.8) and len(values) == 67
    values = parse_db_range("0:20:0.5")
    assert len(values) == 41 and values[-1] == 20.0


@pytest.mark.parametrize(
    "args",
    [
        ["sensitivity", "--db", "3000", "--xi", "0.5"],  # scross^2 overflows
        ["recoil", "--db", "1e308"],  # r and sinh 2r are inf
        ["irp", "--db", "1e308", "--grid", "4x4"],
        ["optimize", "--db", "1e308", "--free", "na=0.1:0.9", "--budget", "9"],
        ["sensitivity", "--db", "3084", "--xi", "0"],  # 2 sinh 2r is inf, and inf * 0 nan
        # e^{2r} overflows while r is finite
        ["recoil", "--db", "5000"],
        ["irp", "--db", "5000", "--grid", "4x4"],
        ["sensitivity", "--db", "5000"],
        ["sensitivity", "--heatmap", "--db", "5000"],
        ["wigner", "--db", "5000"],
        ["optimize", "--db", "5000", "--free", "na=0.1:0.9", "--budget", "9"],
    ],
    ids=[
        "sensitivity",
        "recoil",
        "irp",
        "optimize",
        "sensitivity-xi0",
        "recoil-5000dB",
        "irp-5000dB",
        "sensitivity-5000dB",
        "heatmap-5000dB",
        "wigner-5000dB",
        "optimize-5000dB",
    ],
)
def test_overflowing_spectra_name_the_overflow(tmp_path, capsys, args):
    assert run(tmp_path, "--quad", "16x32", *args) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: input spectra overflow double precision: ")
    assert err.count("\n") == 1 and "uncertainty bound" not in err
    assert os.listdir(tmp_path) == []


def test_writers_reject_nonfinite(tmp_path):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericalFailure):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [bad, 3.0]])
        with pytest.raises(NumericalFailure):
            write_json(tmp_path / "t.json", {"nested": [1.0, bad]})
    assert os.listdir(tmp_path) == []
    # every cell is "%.12g", which prints integers (optimize_trace.csv) as they are
    write_csv(tmp_path / "t.csv", ["a", "evaluation"], [[1e300, 0], [-2.5, 399]])
    assert (tmp_path / "t.csv").read_text() == "a,evaluation\n1e+300,0\n-2.5,399\n"


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli.squeeze, "recoil_sweep", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run(tmp_path, "recoil")


def test_exit_code_invalid_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--out", str(tmp_path), "recoil"]) == 2
    schema_bad = tmp_path / "schema_bad.json"
    schema_bad.write_text(json.dumps({"laser": {"power": -1, "waist": 1e-6, "wavelength": 1e-6}}))
    assert main(["--config", str(schema_bad), "--out", str(tmp_path), "recoil"]) == 2


def test_irp_outputs(tmp_path):
    code = run(
        tmp_path, "--quad", "32x64", "irp",
        "--beam", "na=0.9,axis=-z", "--db", "13", "--grid", "10x12",
    )
    assert code == 0
    lines = (tmp_path / "irp.csv").read_text().strip().split("\n")
    assert lines[0] == "theta,phi,dsigma,irp,f_plus_sq,f_minus_sq"
    assert len(lines) == 1 + 10 * 12
    meta = json.loads((tmp_path / "irp_meta.json").read_text())
    assert meta["normalization"] > 0
    assert "has_negative_values" in meta


def test_sensitivity_curve(tmp_path):
    code = run(
        tmp_path, "sensitivity", "--xi", "1", "--db", "15",
        "--phase", "3pi/2", "--u", "1e-3:1e3:50",
    )
    assert code == 0
    meta = json.loads((tmp_path / "sensitivity_meta.json").read_text())
    assert meta["s_min_opt"] == pytest.approx(10 ** -1.5, rel=1e-4)


def test_sensitivity_heatmap(tmp_path):
    code = run(tmp_path, "sensitivity", "--heatmap", "--db", "15", "--heatmap-grid", "5x6")
    assert code == 0
    lines = (tmp_path / "sensitivity.csv").read_text().strip().split("\n")
    assert lines[0] == "e2r,xi_squared,s_min_over_sql"
    assert len(lines) == 1 + 5 * 6


@pytest.mark.parametrize("extra", [[], ["--omega-ratio", "0.5"]], ids=["defaults", "omega-ratio-0.5"])
def test_sensitivity_heatmap_at_2000_db(tmp_path, extra):
    # b = |xi|^2 sinh 2r is near 1e200 here, so nothing may square it
    assert run(tmp_path, "sensitivity", "--heatmap", "--db", "2000", "--heatmap-grid", "3x3", *extra) == 0
    e2r, xi2, value = np.loadtxt(tmp_path / "sensitivity.csv", delimiter=",", skiprows=1).T
    assert e2r[-1] == pytest.approx(1e200) and np.all(value > 0)
    if extra:
        # a pure state (|xi| = 1, det S = 1) squeezed this far reaches sqrt(1 - c^2)
        cosr = detect.Susceptibility(omega=0.5, mode_frequency=1.0, damping=1e-6).cos_response
        assert value[(xi2 == 1) & (e2r > 1)] == pytest.approx(math.sqrt(1.0 - cosr**2), rel=1e-12)


def test_wigner_outputs(tmp_path):
    code = run(tmp_path, "wigner", "--db", "15", "--phase", "0", "--grid-n", "11")
    assert code == 0
    cov = json.loads((tmp_path / "wigner_covariance.json").read_text())
    assert cov["determinant"] == pytest.approx(1.0, rel=1e-10)


def figures_wigner(seed):
    """The arguments of the benchmark `figures` workload's wigner command."""
    (command,) = [command for command in workloads.commands("figures", seed) if command.name == "wigner"]
    assert command.args[0] == "wigner"
    return command.args[1:]


@pytest.mark.parametrize(
    "args",
    [
        ["--db", "30", "--phase", "0.7", "--grid-n", "101"],
        ["--db", "40", "--phase", "0.7", "--grid-n", "401"],
        ["--db", "15", "--phase", "0.7", "--grid-n", "101"],
        ["--db", "15", "--phase", "0.7", "--grid-n", "401"],
        ["--source", "input", "--xi", "0.9", "--db", "30", "--phase", "0.7", "--grid-n", "101"],
        figures_wigner(3),
        figures_wigner(7),
    ],
)
def test_wigner_table_sums_to_one_on_the_principal_lattice(tmp_path, capsys, args):
    # the lattice lies on the state's principal axes, so its area element is
    # du dv sqrt(det) and the sum of w dA is the standard normal's on n points
    # per axis, whatever the squeezing
    assert run(tmp_path, "wigner", *args) == 0
    assert capsys.readouterr().err == ""
    n = int(args[args.index("--grid-n") + 1])
    w = np.loadtxt(tmp_path / "wigner.csv", delimiter=",", skiprows=1, usecols=2)
    det = json.loads((tmp_path / "wigner_covariance.json").read_text())["determinant"]
    du = 2.0 * detect.WIGNER_HALF_WIDTH_SIGMAS / (n - 1)
    assert w.shape == (n * n,)
    assert w.sum() * du * du * math.sqrt(det) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("db", ["2000", "3082"])
def test_wigner_at_extreme_squeezing_writes_nothing_to_stderr(tmp_path, capsys, db):
    # the principal widths reach 1e154 and 1e-154; nothing squares them
    assert run(tmp_path, "wigner", "--db", db, "--grid-n", "5") == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "args, artifact, key",
    [
        (["sensitivity", "--xi", "1", "--db", "40", "--phase", "0"], "sensitivity_meta.json", "s_min_opt"),
        (["sensitivity", "--xi", "1", "--db", "80", "--phase", "0"], "sensitivity_meta.json", "s_min_opt"),
        # sxx syy and scross^2 are near 1e160 and still finite
        (["sensitivity", "--xi", "1", "--db", "800", "--phase", "0"], "sensitivity_meta.json", "s_min_opt"),
        (["wigner", "--db", "80", "--phase", "0"], "wigner_covariance.json", "determinant"),
        (["wigner", "--db", "100", "--phase", "0"], "wigner_covariance.json", "determinant"),
        (["wigner", "--source", "input", "--xi", "1", "--db", "60", "--phase", "0"], "wigner_covariance.json", "determinant"),
        (["wigner", "--db", "80", "--phase", "1"], "wigner_covariance.json", "determinant"),
        (["wigner", "--db", "100", "--phase", "1"], "wigner_covariance.json", "determinant"),
    ],
    ids=[
        "sensitivity-40dB",
        "sensitivity-80dB",
        "sensitivity-800dB",
        "wigner-80dB",
        "wigner-100dB",
        "wigner-input-60dB",
        "wigner-80dB-phase1",
        "wigner-100dB-phase1",
    ],
)
def test_pure_state_exact_at_high_squeezing(tmp_path, args, artifact, key):
    # |xi| = 1 is a pure squeezed state at any phase: det S = 1, and at
    # phase 0 s_min_opt = 1
    assert run(tmp_path, *args) == 0
    value = json.loads((tmp_path / artifact).read_text())[key]
    assert value == pytest.approx(1.0, abs=1e-12)


def test_quad_reaches_overlaps(tmp_path):
    # the written overlap is exact; --quad sets the rule of the integral
    # that checks it, and the written quadrature_error is their distance
    # (2.3e-11 at 16x32 for this oblique beam, 3e-17 at the default 64x128;
    # the beam's norm is closed-form, so only the overlap is on the rule)
    assert run(tmp_path, "--quad", "16x32", "recoil", "--axis", "z", "--beam", "na=0.8,axis=-x") == 0
    written = json.loads((tmp_path / "recoil_params.json").read_text())["overlaps"]["ratio_na0.8_-x"]
    exact = gaussian_overlap("motion", "z", 0.8, [-1.0, 0.0, 0.0])
    assert complex(written["re"], written["im"]) == exact
    rule = QuadratureRule(16, 32)
    beam, mode = make_beam(0.8, [-1.0, 0.0, 0.0]), make_mode("motion", "z")
    xi = integrate_sphere(lambda k: beam.amplitude(k) * mode.amplitude(k), rule, axis=beam.support_axis)
    assert written["quadrature_error"] == abs(exact - xi)
    default_error = abs(exact - overlap(beam, mode))
    assert default_error < 1e-14 and written["quadrature_error"] > 1e4 * default_error


def test_unresolved_beam_irp_matches_fine_rule(tmp_path, capsys):
    # the beam is normalized in closed form and the IRP total is the exact
    # ratio, so an irp at a rule that does not resolve the beam writes the
    # table of 1024x16 byte for byte; only quadrature_error is on the rule
    args = ["irp", "--beam", "na=0.05,axis=-z", "--db", "15", "--grid", "19x36"]
    assert run(tmp_path / "default", *args) == 0
    assert "warning: na0.05_-z" in capsys.readouterr().err
    assert run(tmp_path / "fine", "--quad", "1024x16", *args) == 0
    assert (tmp_path / "default" / "irp.csv").read_bytes() == (tmp_path / "fine" / "irp.csv").read_bytes()
    meta = {quad: json.loads((tmp_path / quad / "irp_meta.json").read_text()) for quad in ("default", "fine")}
    for quad in ("default", "fine"):
        assert meta[quad]["normalization"] == meta[quad]["ratio"]
    assert {key: value for key, value in meta["default"].items() if key != "quadrature_error"} == {
        key: value for key, value in meta["fine"].items() if key != "quadrature_error"
    }
    assert meta["default"]["quadrature_error"] > 1e-8


def test_coarse_rule_overlap_is_flagged_not_rejected(tmp_path, capsys):
    # at 2x2 the check's integral of this overlap has a modulus above 1; the
    # search and its exact overlap do not use the rule
    args = ["optimize", "--kind", "libration", "--axis", "y", "--free", "weight=0:1", "--fixed", "na=1",
            "--fixed", "polarization_angle=pi/2", "--budget", "3"]
    assert run(tmp_path / "default", *args) == 0
    assert run(tmp_path / "coarse", "--quad", "2x2", *args) == 0
    assert "warning: best point" in capsys.readouterr().err
    default, coarse = (json.loads((tmp_path / q / "optimize_result.json").read_text()) for q in ("default", "coarse"))
    assert coarse["xi_modulus"] == default["xi_modulus"]
    assert coarse["quadrature_error"] > 0.1


def test_narrow_beam_overlap_exact_and_flagged(tmp_path, capsys):
    # the default 64x128 rule does not resolve an NA = 0.05 beam: the
    # written ratio is the exact one (what --quad 1024x16 also gives), and
    # each command flags the integral's error
    assert run(tmp_path, "recoil", "--beam", "na=0.05,axis=-z", "--db", "15", "--phase", "0") == 0
    assert (tmp_path / "recoil.csv").read_text() == "r_db,ratio_na0.05_-z\n15,0.994818741387\n"
    overlaps = json.loads((tmp_path / "recoil_params.json").read_text())["overlaps"]
    assert overlaps["ratio_na0.05_-z"]["quadrature_error"] > 1e-8
    assert "warning: ratio_na0.05_-z" in capsys.readouterr().err
    assert run(tmp_path, "irp", "--beam", "na=0.05,axis=-z", "--grid", "4x4") == 0
    assert json.loads((tmp_path / "irp_meta.json").read_text())["quadrature_error"] > 1e-8
    assert "warning: na0.05_-z" in capsys.readouterr().err
    assert run(
        tmp_path, "optimize", "--free", "axis_theta=0:pi", "--fixed", "na=0.05", "--fixed", "phi=0",
        "--budget", "20",
    ) == 0
    assert json.loads((tmp_path / "optimize_result.json").read_text())["quadrature_error"] > 1e-8
    assert "warning: best point" in capsys.readouterr().err
    # a resolved beam passes without a warning
    assert run(tmp_path, "--quad", "1024x16", "recoil", "--beam", "na=0.05,axis=-z", "--db", "15", "--phase", "0") == 0
    assert json.loads((tmp_path / "recoil_params.json").read_text())["overlaps"]["ratio_na0.05_-z"]["quadrature_error"] < 1e-12
    assert capsys.readouterr().err == ""


def per_row_csv(header, rows):
    """The CSV text of `rows` formatted row by row, the reference for write_csv."""
    line = ",".join(["%.12g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows.tolist())


def test_csv_streams_blocks_byte_identical(tmp_path):
    # several blocks and a partial one, against the per-row formatting
    rows = np.random.default_rng(3).normal(size=(2 * io.CSV_BLOCK_CELLS // 3 + 7, 3)) * 10.0 ** np.arange(-6, 9, 5)
    rows[::5, 0] = np.arange(len(rows))[::5]
    # signed zeros, the smallest subnormal, extremes and integers at and past 1e12
    rows[1:4] = [[-0.0, 0.0, 5e-324], [1e300, -1e-300, 1e12], [123456789012345.0, 2.0**53, -1e15]]
    write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
    assert (tmp_path / "t.csv").read_text() == per_row_csv(["a", "b", "c"], rows)
    write_csv(tmp_path / "empty.csv", ["a"], np.empty((0, 1)))
    assert (tmp_path / "empty.csv").read_text() == "a\n"


@settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.integers(1, 6).flatmap(
        lambda n_columns: hnp.arrays(
            float,
            st.tuples(st.integers(0, 12), st.just(n_columns)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
)
def test_csv_matches_per_row_formatting(tmp_path, monkeypatch, rows):
    # blocks of 5 cells, so generated tables span several blocks and a
    # partial one, and blocks end inside rows
    monkeypatch.setattr(io, "CSV_BLOCK_CELLS", 5)
    header = ["c%d" % i for i in range(rows.shape[1])]
    write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_text() == per_row_csv(header, rows)


def test_write_csv_requires_one_column_per_name(tmp_path):
    for rows in (np.zeros((4, 6)), np.zeros(3), np.zeros((2, 3, 1)), [[1.0, 2.0]], np.zeros((0, 2))):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
    assert os.listdir(tmp_path) == []
    # an empty list and a table of no rows give a header-only file
    for rows in ([], np.zeros((0, 3))):
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
        assert (tmp_path / "t.csv").read_text() == "a,b,c\n"


def csv_kernel_cases(rng):
    """At least 200k finite cells that stress a %.12g formatter."""
    bits = rng.integers(0, 2**63, size=60000, dtype=np.int64) * rng.choice([-1, 1], size=60000)
    patterns = bits.view(np.float64)
    patterns = patterns[np.isfinite(patterns)]
    # 1-15 significant digits at decimal exponents -330..308
    digits = rng.integers(1, 16, size=70000)
    exponents = rng.integers(-330, 309, size=70000)
    mantissas = rng.integers(10**14, 10**15, size=70000) // 10 ** (15 - digits)
    rounded = np.array([float(f"{m}e{e - d + 1}") for m, e, d in zip(mantissas.tolist(), exponents.tolist(), digits.tolist())])
    rounded = rounded[np.isfinite(rounded)]
    rounded *= rng.choice([-1.0, 1.0], size=rounded.size)
    # twelve-digit ties, rounding carries and the fixed/exponent switch
    special = [1234567890125.0, 999999999999.5, 1234567890125e-20, 0.5, 2.5, 1e16, 123456789012.5]
    special += [float(f"9.9999999999995e{k}") for k in range(-310, 308)]
    special += [float(f"9.99999999999{d}e{k}") for d in range(10) for k in (-6, -5, -4, 10, 11, 12)]
    special += [9.99999999999e-5, 1e-4, 1e-5, 99999999999.95, 1e11, 1e12, 999999999999.4, 0.00099999999999951]
    special += [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-297, 1e-298, 1e308]
    special = np.array(special)
    scaled = rng.normal(size=70000) * 10.0 ** rng.uniform(-6, 9, size=70000)
    return np.concatenate([patterns, rounded, special, -special, scaled])


def test_csv_bytes_match_percent_at_volume(tmp_path):
    cells = csv_kernel_cases(np.random.default_rng(13))
    assert cells.size >= 200000
    cells = np.concatenate([cells, np.zeros(-cells.size % 5)]).reshape(-1, 5)
    header = ["a", "b", "c", "d", "e"]
    write_csv(tmp_path / "t.csv", header, cells)
    assert (tmp_path / "t.csv").read_text() == per_row_csv(header, cells)


def test_csv_kernel_proves_most_cells_in_bounded_blocks(tmp_path, monkeypatch):
    # the exact % fallback formats under 1 % of a typical table, zeros
    # included, and no kernel call sees more than CSV_BLOCK_CELLS cells
    rng = np.random.default_rng(17)
    table = (rng.normal(size=100000) * 10.0 ** rng.uniform(-6, 9, size=100000)).reshape(-1, 4)
    table[::10, 1] = 0.0
    sizes, exact = [], []

    def block_spy(cells, ends):
        sizes.append(cells.size)
        return format_block(cells, ends)

    def exact_spy(cells):
        exact.append(cells.size)
        return format_exact(cells)

    format_block, format_exact = io._format_block, io._exact
    monkeypatch.setattr(io, "_format_block", block_spy)
    monkeypatch.setattr(io, "_exact", exact_spy)
    write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], table)
    assert (tmp_path / "t.csv").read_text() == per_row_csv(["a", "b", "c", "d"], table)
    assert sum(sizes) == table.size and len(sizes) > 1
    assert max(sizes) <= io.CSV_BLOCK_CELLS
    assert sum(exact) < 0.01 * table.size


def test_cli_rerun_byte_identical(tmp_path):
    commands = {
        "optimize": [
            "--seed", "4", "--quad", "32x64",
            "optimize", "--free", "na=0.3:0.9", "--fixed", "phi=0", "--budget", "40",
        ],
        # a rule of four integrand blocks
        "irp": ["--quad", "128x256", "irp", "--beam", "na=0.7,axis=-z,pol=pi/3", "--db", "9", "--grid", "25x40"],
        "wigner": ["wigner", "--source", "input", "--xi", "0.6", "--db", "8", "--phase", "1", "--grid-n", "31"],
    }
    for command, args in commands.items():
        a, b = tmp_path / command / "a", tmp_path / command / "b"
        for out in (a, b):
            assert main(["--out", str(out), *args]) == 0
        for name in os.listdir(a):
            assert filecmp.cmp(a / name, b / name, shallow=False), name


# Runs the CLI in a child forked from a bare interpreter and prints the
# child's exit code and peak RSS (ru_maxrss, kB on Linux). A process's own
# ru_maxrss starts at the peak RSS of the process that exec'd it, here the
# test runner, so it is the forked child that is measured, read through
# os.wait4 as the benchmark reads each command it spawns.
PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    from levsqueeze.cli import main
    os._exit(main(sys.argv[1:]))
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_irp_peak_memory_bounded(tmp_path):
    """Blocked evaluation keeps an IRP run's peak resident memory close to a
    tiny run's: at 256x512 nodes and a 361x720 grid it exceeds it by about
    the output table, not by the full-size amplitude temporaries."""
    peaks = []
    for quad, grid in (("32x64", "19x36"), ("256x512", "361x720")):
        done = fresh_python(PEAK_RSS, "--out", str(tmp_path / quad), "--quad", quad, "irp", "--grid", grid)
        assert done.returncode == 0, done.stderr
        code, peak_kb = map(int, done.stdout.split())
        assert code == 0, done.stderr
        peaks.append(peak_kb / 1024.0)
    small, large = peaks
    assert large - small < 40.0, f"peak RSS {large:.1f} MB against {small:.1f} MB"


ROUND_TRIP = {
    "recoil": ["--quad", "32x64", "recoil", "--beam", "na=0.8,axis=-z", "--db", "0:15:5", "--phase", "pi"],
    "irp": ["--quad", "16x32", "irp", "--beam", "na=0.9,axis=-y,pol=pi/4", "--db", "13", "--grid", "6x8"],
    "sensitivity": ["sensitivity", "--xi", "0.8", "--db", "10", "--phase", "pi/3", "--u", "1e-2:1e2:20"],
    "heatmap": ["sensitivity", "--heatmap", "--db", "12", "--heatmap-grid", "4x5"],
    "optimize": [
        "--seed", "4", "--quad", "16x32", "optimize",
        "--free", "na=0.3:0.9", "--fixed", "phi=pi/2", "--budget", "20",
    ],
    "wigner": ["wigner", "--source", "input", "--xi", "0.7", "--db", "6", "--phase", "pi/4", "--grid-n", "9"],
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIP))
def test_config_file_round_trip(tmp_path, case):
    """The echoed config passes the config check and, given as --config with
    no flags, reproduces every artifact (the echo included) byte for byte."""
    args = ROUND_TRIP[case]
    command = next(a for a in args if a in OPTIONS)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--out", str(first), *args]) == 0
    echo = first / f"{command}_config.json"
    cli.load_config(echo)
    assert main(["--config", str(echo), "--out", str(second), command]) == 0
    assert sorted(os.listdir(first)) == sorted(os.listdir(second))
    for name in os.listdir(first):
        assert filecmp.cmp(first / name, second / name, shallow=False), name


@pytest.mark.parametrize(
    "section, unknown",
    [({"recoil": {"dbb": "3", "phse": "pi"}}, ["dbb", "phse"]), ({"recoil": {"threads": 2}}, ["threads"])],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, section, unknown):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(section))
    assert main(["--config", str(config), "--out", str(tmp_path), "recoil"]) == 2
    err = capsys.readouterr().err
    assert all(repr(key) in err for key in unknown)
    assert not (tmp_path / "recoil.csv").exists()


def test_flag_beats_config(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"recoil": {"db": "15", "perfect_overlap": True}}))
    out = tmp_path / "out"
    out.mkdir()
    code = main(["--config", str(config), "--out", str(out), "recoil", "--db", "0"])
    assert code == 0
    lines = (out / "recoil.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 0.0
    # the options given before the command follow the same rule
    config.write_text(json.dumps({"recoil": {"quad": "16x32", "seed": 3}}))
    assert main(["--config", str(config), "--out", str(out), "--quad", "8x16", "recoil", "--db", "0"]) == 0
    echoed = json.loads((out / "recoil_config.json").read_text())["recoil"]
    assert (echoed["quad"], echoed["seed"]) == ("8x16", 3)


def test_config_dir_variable_changes_nothing(tmp_path, monkeypatch):
    # --config names the only config file: a config.json in the directory
    # that LEVSQUEEZE_CONFIG_DIR names is not read
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    (cfg_dir / "config.json").write_text(json.dumps({"recoil": {"db": "5", "perfect_overlap": True}}))
    monkeypatch.delenv("LEVSQUEEZE_CONFIG_DIR", raising=False)
    assert run(tmp_path / "plain", "recoil") == 0
    monkeypatch.setenv("LEVSQUEEZE_CONFIG_DIR", str(cfg_dir))
    assert run(tmp_path / "variable", "recoil") == 0
    for name in os.listdir(tmp_path / "plain"):
        assert filecmp.cmp(tmp_path / "plain" / name, tmp_path / "variable" / name, shallow=False), name


def test_derived_report_in_outputs(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({
        "laser": {"power": 0.5, "waist": 0.7e-6, "wavelength": 1.064e-6},
        "particle": {"radius": 70e-9, "density": 2200.0, "permittivity": 2.1},
    }))
    out = tmp_path / "out"
    out.mkdir()
    code = main([
        "--config", str(config), "--out", str(out),
        "recoil", "--perfect-overlap", "--db", "15",
    ])
    assert code == 0
    meta = json.loads((out / "recoil_params.json").read_text())
    assert meta["derived"]["motion_modes"]["z"]["bare_recoil_rad_s"] > 0


LASER = {"power": 0.5, "waist": 0.7e-6, "wavelength": 1.064e-6}
PARTICLE = {"radius": 70e-9, "density": 2200.0, "permittivity": 2.1}
ROTOR = {"alpha_parallel": 6.0e-33, "alpha_perp": 4.0e-33, "moment_of_inertia": 1.0e-31, "volume": 2.0e-21}


def recoil_in_fresh_python(tmp_path, physics):
    """`recoil --db 15` in a new interpreter, under a config file of the
    `physics` sections; the output directory must stay absent."""
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(physics))
    out = tmp_path / "out"
    proc = fresh_python(
        "import sys\nfrom levsqueeze.cli import main\n"
        "sys.exit(main(['--config', sys.argv[1], '--out', sys.argv[2], 'recoil', '--db', '15']))",
        str(config),
        str(out),
    )
    assert not out.exists()
    return proc


@pytest.mark.parametrize(
    "laser, named",
    [
        # waist**4 underflows to 0 and divides
        ({"power": 1e300, "waist": 1e-300, "wavelength": 1e-300}, "out of floating-point range"),
        ({**LASER, "wavelength": 1e-300}, "laser.omega0_rad_s is inf, out of floating-point range"),
        ({**LASER, "power": 5e-324}, "motion_modes.x.bare_recoil_rad_s is 0, out of floating-point range"),
        ({**LASER, "waist": 1e200, "wavelength": 1e200}, "out of floating-point range"),
    ],
)
def test_extreme_physics_inputs_exit_3_before_any_file(tmp_path, laser, named):
    proc = recoil_in_fresh_python(tmp_path, {"laser": laser, "particle": PARTICLE, "rotor": ROTOR})
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: ") and named in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1


def test_zero_trap_frequency_exits_3_with_one_line(tmp_path):
    # the trap frequency underflows to 0 and numpy divides by it; the report
    # names the frequency, and no numpy warning precedes it
    proc = recoil_in_fresh_python(tmp_path, {"laser": {**LASER, "power": 5e-324}, "particle": {**PARTICLE, "density": 1e300}})
    assert proc.returncode == 3
    assert proc.stderr == "numerical failure: derived quantity motion_modes.x.frequency_rad_s is 0, out of floating-point range\n"


def test_paraxial_warning_names_the_laser_section_once(tmp_path, capsys):
    # once per run, also in a second run of the same process
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"laser": {**LASER, "waist": 4e-7}, "particle": PARTICLE}))
    warning = "warning: config field laser: waist below wavelength/2: paraxial trap-frequency formulas are unreliable here\n"
    for out in ("first", "second"):
        assert main(["--config", str(config), "--out", str(tmp_path / out), "recoil", "--db", "15"]) == 0
        assert capsys.readouterr().err == warning


@pytest.mark.parametrize(
    "config, accepted",
    [
        ([], False),
        ({"recoil": None}, False),
        ({"recoi": {}}, False),
        ({"recoil": {"threads": 2}}, False),
        ({"recoil": {"db": 15}}, True),
        ({"sensitivity": {"xi": 1}}, True),
        ({"optimize": {"budget": 20.0}}, True),
        ({"recoil": {"quad": "16x32", "seed": 3}}, True),
        ({"recoil": {"db": True}}, False),
        ({"sensitivity": {"xi": "0.5"}}, False),
        ({"sensitivity": {"xi": True}}, False),
        ({"optimize": {"budget": 20.5}}, False),
        ({"optimize": {"budget": -1}}, False),
        ({"optimize": {"budget": True}}, False),
        ({"recoil": {"perfect_overlap": 1}}, False),
        ({"recoil": {"beams": "na=0.5"}}, False),
        ({"recoil": {"beams": [1]}}, False),
        ({"laser": LASER, "particle": PARTICLE, "rotor": ROTOR}, True),
        ({"laser": {"power": 0.5, "waist": 0.7e-6}}, False),
        ({"laser": {**LASER, "color": 1.0}}, False),
        ({"laser": {**LASER, "power": "1"}}, False),
        ({"laser": {**LASER, "power": True}}, False),
        ({"laser": {**LASER, "power": 0}}, False),
        # no formula reads a rotor permittivity: the key is unknown
        ({"rotor": {**ROTOR, "permittivity": 2.1}}, False),
        # the Rotor bound holds without a laser section too
        ({"rotor": {**ROTOR, "alpha_perp": 7.0e-33}}, False),
    ],
)
def test_config_file_checked_by_option_table_and_physics(tmp_path, config, accepted):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "recoil", "--db", "0"]) == (0 if accepted else 2)
    assert out.exists() == accepted


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400"])
@pytest.mark.parametrize("section, field", [("laser", "power"), ("particle", "density"), ("rotor", "moment_of_inertia")])
def test_nonfinite_physics_input_exits_2(tmp_path, capsys, section, field, value):
    config = {"laser": LASER, "particle": PARTICLE, "rotor": ROTOR}
    config[section] = {**config[section], field: "NONFINITE"}
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config).replace('"NONFINITE"', value))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "recoil", "--db", "15"]) == 2
    assert f"config field {section}: {field} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("first, second, label", [("-z", "-z", "na0.7_-z"), ("z", "+z", "na0.7_z")])
def test_repeated_beam_column_exits_2(tmp_path, capsys, first, second, label):
    beams = ["--beam", f"na=0.7,axis={first}", "--beam", f"na=0.7,axis={second},pol=pi/2"]
    assert run(tmp_path, "recoil", "--db", "15", "--phase", "0", *beams) == 2
    assert f"beam {label!r} is given twice" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_physics_sections_echoed_as_given(tmp_path):
    # the echo holds each physics section as the file gave it, ints included,
    # and a rerun from the echo reproduces every artifact byte for byte
    config = {"laser": {**LASER, "power": 1}, "particle": PARTICLE, "rotor": ROTOR}
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--config", str(path), "--out", str(first), "recoil", "--db", "15"]) == 0
    echo = first / "recoil_config.json"
    assert {k: v for k, v in json.loads(echo.read_text()).items() if k != "recoil"} == config
    assert main(["--config", str(echo), "--out", str(second), "recoil"]) == 0
    for name in os.listdir(first):
        assert filecmp.cmp(first / name, second / name, shallow=False), name


@pytest.mark.parametrize("module", ["jsonschema", "click"])
def test_config_file_needs_no_jsonschema(tmp_path, module):
    # numpy is the one dependency: the CLI runs with `module` unimportable
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"laser": LASER, "particle": PARTICLE}))
    out = tmp_path / "out"
    proc = fresh_python(
        "import sys; sys.modules[sys.argv[3]] = None\n"
        "from levsqueeze.cli import main\n"
        "code = main(['--config', sys.argv[1], '--out', sys.argv[2], '--seed', '3', 'recoil', '--db', '15'])\n"
        "print(code, sorted(k for k, m in sys.modules.items() if k.startswith(sys.argv[3]) and m is not None))",
        str(config),
        str(out),
        module,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]
    assert "motion_modes" in json.loads((out / "recoil_params.json").read_text())["derived"]
