"""Every command of the benchmark workloads, at reduced size, run in-process
and checked against the paper's closed forms by that command's own check
in perfbench/workloads.py."""

import json
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


@pytest.mark.parametrize("command", COMMANDS)
def test_workload_command_passes_its_check(tmp_path, command):
    out = tmp_path / "out"
    args = ["--out", str(out)]
    if command.config is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(command.config))
        args += ["--config", str(config)]
    assert main(args + command.args) == 0
    command.check(str(out))
