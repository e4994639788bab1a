import filecmp
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from levsqueeze import cli, io
from levsqueeze.cli import OPTIONS, config_schema, main, parse_beam_spec, parse_db_range, parse_number, parse_quad
from levsqueeze.angular import QuadratureRule, gaussian_overlap, integrate_sphere, make_beam, make_mode, overlap
from levsqueeze.errors import ConfigError, NumericalFailure
from levsqueeze.io import write_csv, write_json


def run(tmp_path, *args):
    return main(["--out", str(tmp_path), *args])


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
    assert parse_db_range("15") == [15.0]
    assert parse_db_range("0:10:5") == [0.0, 5.0, 10.0]
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


@pytest.mark.parametrize(
    "args",
    [
        ["recoil", "--phase", "pi/0"],
        ["recoil", "--db", "nan"],
        ["recoil", "--db", "inf"],
        ["recoil", "--db", "0:1e400:1"],
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


@pytest.mark.parametrize("command", ["recoil", "irp", "wigner", "sensitivity"])
def test_overflow_exits_3(tmp_path, command):
    extra = {"irp": ["--grid", "4x4"], "wigner": ["--grid-n", "5"]}.get(command, [])
    assert run(tmp_path, "--quad", "16x32", command, "--db", "5000", *extra) == 3
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


def test_wigner_outputs(tmp_path):
    code = run(tmp_path, "wigner", "--db", "15", "--phase", "0", "--grid-n", "11")
    assert code == 0
    cov = json.loads((tmp_path / "wigner_covariance.json").read_text())
    assert cov["determinant"] == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize(
    "args, artifact, key",
    [
        (["sensitivity", "--xi", "1", "--db", "40", "--phase", "0"], "sensitivity_meta.json", "s_min_opt"),
        (["sensitivity", "--xi", "1", "--db", "80", "--phase", "0"], "sensitivity_meta.json", "s_min_opt"),
        (["wigner", "--db", "80", "--phase", "0"], "wigner_covariance.json", "determinant"),
        (["wigner", "--db", "100", "--phase", "0"], "wigner_covariance.json", "determinant"),
        (["wigner", "--source", "input", "--xi", "1", "--db", "60", "--phase", "0"], "wigner_covariance.json", "determinant"),
        (["wigner", "--db", "80", "--phase", "1"], "wigner_covariance.json", "determinant"),
        (["wigner", "--db", "100", "--phase", "1"], "wigner_covariance.json", "determinant"),
    ],
    ids=[
        "sensitivity-40dB",
        "sensitivity-80dB",
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
    # (4.5e-10 at 16x32 for this oblique beam, 8e-17 at the default 64x128)
    assert run(tmp_path, "--quad", "16x32", "recoil", "--axis", "z", "--beam", "na=0.8,axis=-x") == 0
    written = json.loads((tmp_path / "recoil_params.json").read_text())["overlaps"]["ratio_na0.8_-x"]
    exact = gaussian_overlap("motion", "z", 0.8, [-1.0, 0.0, 0.0])
    assert complex(written["re"], written["im"]) == exact
    rule = QuadratureRule(16, 32)
    beam, mode = make_beam(0.8, [-1.0, 0.0, 0.0], rule=rule), make_mode("motion", "z", rule=rule)
    xi = integrate_sphere(lambda k: beam.amplitude(k) * mode.amplitude(k), rule, axis=beam.support_axis)
    assert written["quadrature_error"] == abs(exact - xi)
    default = overlap(make_beam(0.8, [-1.0, 0.0, 0.0]), make_mode("motion", "z"))
    assert abs(exact - default) < 1e-14 and written["quadrature_error"] > 1e-10


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
    rows = np.random.default_rng(3).normal(size=(2 * io.CSV_BLOCK_ROWS + 7, 3)) * 10.0 ** np.arange(-6, 9, 5)
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
    # blocks of 5 rows, so generated tables span several blocks and a partial one
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 5)
    header = ["c%d" % i for i in range(rows.shape[1])]
    write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_text() == per_row_csv(header, rows)


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
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    peaks = []
    for quad, grid in (("32x64", "19x36"), ("256x512", "361x720")):
        args = ["--out", str(tmp_path / quad), "--quad", quad, "irp", "--grid", grid]
        done = subprocess.run([sys.executable, "-c", PEAK_RSS, *args], env=env, capture_output=True, text=True, check=True)
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
    """The echoed config passes the typed schema and, given as --config with
    no flags, reproduces every artifact (the echo included) byte for byte."""
    args = ROUND_TRIP[case]
    command = next(a for a in args if a in OPTIONS)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--out", str(first), *args]) == 0
    echo = first / f"{command}_config.json"
    jsonschema.validate(json.loads(echo.read_text()), config_schema())
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


def test_env_var_config_dir(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    (cfg_dir / "config.json").write_text(
        json.dumps({"recoil": {"db": "5", "perfect_overlap": True}})
    )
    monkeypatch.setenv("LEVSQUEEZE_CONFIG_DIR", str(cfg_dir))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--out", str(out), "recoil"]) == 0
    lines = (out / "recoil.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 5.0


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
