"""The process entry point: `python -m levsqueeze.cli` and the `levsqueeze`
script run `cli.run()`, which freezes the import-time heap before main();
main() itself, as tests and tools call it in-process, leaves the collector
alone."""

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

from levsqueeze import cli

ROOT = Path(__file__).resolve().parents[1]

# cli.py run as __main__, the way `python -m levsqueeze.cli` runs it; at exit
# a probe writes the collector's state as the last line of stderr
AS_MAIN = """import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"gc enabled={gc.isenabled()} frozen={gc.get_freeze_count()}\\n"))
sys.argv[0] = "levsqueeze"
runpy.run_module("levsqueeze.cli", run_name="__main__", alter_sys=True)
"""


def as_main(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", AS_MAIN, *args], env=env, capture_output=True, text=True)
    *lines, probe = proc.stderr.splitlines()
    enabled, frozen = re.fullmatch(r"gc enabled=(True|False) frozen=(\d+)", probe).groups()
    return proc.returncode, lines, enabled == "True", int(frozen)


def test_main_module_freezes_the_import_heap_and_reenables_collection(tmp_path):
    code, lines, enabled, frozen = as_main("--out", str(tmp_path), "sensitivity")
    assert (code, lines) == (0, [])
    assert enabled and frozen > 0
    assert (tmp_path / "sensitivity.csv").is_file()


def test_main_module_keeps_the_exit_codes(tmp_path):
    code, lines, enabled, _ = as_main("--out", str(tmp_path), "recoil", "--db", "-3")
    assert code == 2 and enabled
    assert len(lines) == 1 and lines[0].startswith("configuration error: ")
    code, lines, _, _ = as_main("--out", str(tmp_path), "recoil", "--db", "1e308")
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
    assert os.listdir(tmp_path) == []


def test_main_in_process_leaves_the_collector_as_it_was(tmp_path):
    frozen = gc.get_freeze_count()
    assert cli.main(["--out", str(tmp_path), "sensitivity"]) == 0
    assert gc.isenabled() and gc.get_freeze_count() == frozen
    gc.disable()
    try:
        assert cli.main(["--out", str(tmp_path), "wigner", "--grid-n", "5"]) == 0
        assert not gc.isenabled() and gc.get_freeze_count() == frozen
    finally:
        gc.enable()


def test_console_script_runs_the_process_entry():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^levsqueeze\s*=\s*"levsqueeze\.cli:run"\s*$', text, re.MULTILINE)
