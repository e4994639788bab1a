"""tools/bench_pairs.py at reduced size: one pair of the `search` workload
at a tiny --seconds between two copies of the source tree, the summary of
known samples, and the refusal to compare trees whose harnesses differ."""

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools import bench_pairs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def copy_tree(dest):
    """What perfbench/run.py needs of the source tree, under `dest`."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def test_one_pair_of_search(tmp_path):
    rev, work = copy_tree(tmp_path / "rev"), copy_tree(tmp_path / "work")
    lines = []
    summary = bench_pairs.compare(rev, work, {"search": 1}, seed=1, seconds=0.1, log=lines.append)
    assert [line.split(":")[0] for line in lines] == ["search pair 1/1 rev", "search pair 1/1 work"]
    entry = summary["search"]
    assert entry["pairs"] == 1
    for side in ("rev", "work"):
        assert entry["commands"][side]["failed"] == 0 and entry["commands"][side]["attempted"] >= 2
    assert list(entry["metrics"]) == [spec["name"] for spec in BENCHMARK["end_to_end"]]
    for spec in BENCHMARK["end_to_end"]:
        metric = entry["metrics"][spec["name"]]
        assert metric["bound"] == spec["bound"] and metric["unit"] == spec["unit"]
        (a,), (b,) = metric["samples"]["rev"], metric["samples"]["work"]
        assert metric["rev"] == {"median": a, "q1": a, "q3": a}
        assert metric["ratio"] == b / a and metric["work_wins"] == (b < a)


def test_summary_of_known_samples():
    def results(values):
        return [{"failed": 0, "attempted": 6, "metrics": {"command_s_p50": {"value": v}}} for v in values]

    benchmark = {"end_to_end": [{"name": "command_s_p50", "unit": "s", "better": "lower", "bound": 0.25}]}
    rev, work = [1.0, 1.4, 1.2, 1.1, 1.3], [0.8, 1.0, 1.2, 0.7, 0.9]
    metric = bench_pairs.summarize({"figures": {"rev": results(rev), "work": results(work)}}, benchmark)["figures"]
    assert metric["commands"] == {"rev": {"failed": 0, "attempted": 30}, "work": {"failed": 0, "attempted": 30}}
    metric = metric["metrics"]["command_s_p50"]
    assert metric["rev"] == pytest.approx({"median": 1.2, "q1": 1.1, "q3": 1.3})
    assert metric["work"] == pytest.approx({"median": 0.9, "q1": 0.8, "q3": 1.0})
    assert metric["ratio"] == pytest.approx(0.75) and metric["within_bound"]
    # the third pair is a tie, which counts for neither side
    assert metric["work_wins"] == 4
    # 1.2 - 0.9 exceeds the interquartile range 1.3 - 1.1
    assert metric["gain_exceeds_rev_iqr"]
    slower = bench_pairs.summarize({"figures": {"rev": results(rev), "work": results([1.6] * 5)}}, benchmark)
    metric = slower["figures"]["metrics"]["command_s_p50"]
    assert metric["work_wins"] == 0 and not metric["gain_exceeds_rev_iqr"] and not metric["within_bound"]


@pytest.mark.parametrize("edited", ["perfbench/workloads.py", "BENCHMARK.json", "perfbench/extra.py"])
def test_refuses_trees_whose_harnesses_differ(tmp_path, edited):
    rev, work = copy_tree(tmp_path / "rev"), copy_tree(tmp_path / "work")
    path = work / edited
    path.write_text((path.read_text() if path.exists() else "") + "\n")
    with pytest.raises(bench_pairs.HarnessMismatch, match=edited):
        bench_pairs.compare(rev, work, {"search": 1}, seed=1, seconds=0.1, log=pytest.fail)
    # refused before any run
    assert not (rev / ".perfbench").exists() and not (work / ".perfbench").exists()
