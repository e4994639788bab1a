"""Every command of the benchmark workloads, at reduced size, run in-process
and checked against the paper's closed forms by that command's own check
in perfbench/workloads.py; the two beam searches also at full size, where
the check includes the reference optimum; one command through the
benchmark's traced path, perfbench/traced.py; that path's wrapping of
every traced function; and the fast checks of perfbench/selfcheck.py."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from levsqueeze.cli import main  # noqa: E402
from perfbench import workloads  # noqa: E402

SEED = 1
COMMANDS = [
    pytest.param(command, id=f"{name}-{command.name}")
    for name in workloads.WORKLOADS
    for command in workloads.commands(name, SEED, reduced=True)
]
# Exact overlaps make a full-size search (budget 400) cost well under a second.
FULL_SEARCHES = [
    pytest.param(command, id=f"search-full-{command.name}") for command in workloads.commands("search", SEED)
]


@pytest.mark.parametrize("command", COMMANDS + FULL_SEARCHES)
def test_workload_command_passes_its_check(tmp_path, command):
    out = tmp_path / "out"
    args = ["--out", str(out)]
    if command.config is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(command.config))
        args += ["--config", str(config)]
    assert main(args + command.args) == 0
    command.check(str(out))


def test_traced_overlaps_use_the_quad_rule(tmp_path):
    spans_path = tmp_path / "spans.json"
    args = ["--out", str(tmp_path / "out"), "--quad", "16x32", "recoil", "--beam", "na=0.8,axis=-z"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans_path), "recoil", "--", *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    under_overlap = [
        span
        for span in spans
        if span["name"] == "angular.integrate_sphere"
        and span["parent"] is not None
        and spans[span["parent"]]["name"] == "squeeze.mode_overlap"
    ]
    assert under_overlap and all(span["nodes"] == 16 * 32 for span in under_overlap)
    # constructors normalize in closed form and integrate nothing
    assert any(span["name"] == "angular.construct" for span in spans)
    assert not any(
        span["name"] == "angular.integrate_sphere"
        and span["parent"] is not None
        and spans[span["parent"]]["name"] == "angular.construct"
        for span in spans
    )


def test_every_traced_name_resolves():
    # traced.install looks up each TRACED name with getattr, so a renamed or
    # deleted function fails here rather than only in perfbench/selfcheck.py
    code = "import levsqueeze.cli\nfrom perfbench import traced\ntraced.install(traced.Recorder())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_self_checks(monkeypatch):
    # the fast checks of perfbench/selfcheck.py: the self-time arithmetic of
    # a synthetic span tree, and BENCHMARK.json against traced.PER_LAYER and
    # the workload names; its reduced passes are run by hand
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    selfcheck = importlib.import_module("selfcheck")
    selfcheck.check_span_arithmetic()
    selfcheck.check_benchmark_file()
