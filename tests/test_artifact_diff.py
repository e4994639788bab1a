"""tools/artifact_diff.py at reduced size: a verbatim copy of the source
tree writes byte-identical artifacts, the libration report among them, and
one formatting change in a copy is caught in every file it touches."""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from tools import artifact_diff  # noqa: E402


def copy_src(dest, edit=None):
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        path, old, new = edit
        text = (src / path).read_text()
        assert text.count(old) == 1
        (src / path).write_text(text.replace(old, new))
    return src


def test_identical_trees_and_a_formatting_change(tmp_path):
    jobs = artifact_diff.plan(workloads.WORKLOADS, [1], tmp_path / "configs", reduced=True)
    work = artifact_diff.run_tree(ROOT / "src", tmp_path / "work", jobs)
    copy = artifact_diff.run_tree(copy_src(tmp_path / "copy"), tmp_path / "copy-out", jobs)
    assert set(work.values()) == set(copy.values()) == {0}

    results = artifact_diff.compare(tmp_path / "copy-out", tmp_path / "work")
    # every command writes its echoed config and at least one table
    assert len(results) >= 2 * len(jobs)
    assert all(problem is None for _, problem in results)
    # the extra runs compare the libration half of the derived report
    where = "extra/recoil-libration-report"
    assert where in [run for run, _, _ in artifact_diff.EXTRA]
    derived = json.loads((tmp_path / "work" / where / "recoil_params.json").read_text())["derived"]
    assert sorted(derived["libration_modes"]) == ["y", "z"] and "motion_modes" in derived

    # JSON written with one space of indent instead of two: every JSON
    # artifact differs in bytes only, and no CSV moves
    edit = ("levsqueeze/io.py", "indent=2", "indent=1")
    artifact_diff.run_tree(copy_src(tmp_path / "edited", edit), tmp_path / "edited-out", jobs)
    for path, problem in artifact_diff.compare(tmp_path / "edited-out", tmp_path / "work"):
        if path.suffix == ".json":
            assert problem is not None and problem.startswith("bytes differ, all ")
        else:
            assert problem is None


def test_cell_differences_are_counted_in_units_of_the_12th_digit(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x,y\n1,2.00000000001\n-0.5,7\n")
    b.write_text("x,y\n1,2.00000000004\n-0.5,7\n")
    assert artifact_diff.compare_file(a, a) is None
    assert artifact_diff.compare_file(a, b) == (
        "1 of 6 cells differ, largest by 3 units of the 12th significant digit and by 3e-11 absolute"
    )
    b.write_text("x,z\n1,2.00000000001\n-0.5,7\n1,1\n")
    assert artifact_diff.compare_file(a, b) == "layout differs: 6 cells against 8"
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    c.write_text('{"a": [1.5e-300, 2], "b": "x"}\n')
    d.write_text('{"a": [1.50000000002e-300, 2], "b": "y"}\n')
    assert artifact_diff.compare_file(c, d) == (
        "2 of 3 cells differ, largest by 2 units of the 12th significant digit and by 2e-311 absolute, 1 not numbers"
    )
