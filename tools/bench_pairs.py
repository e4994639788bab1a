"""Time the benchmark workloads at a git revision and in the working tree,
in alternating pairs, and write the comparison as a BENCH_*.json file.

    python3 tools/bench_pairs.py REV --pairs figures=10 --pairs search=5 \\
        --pairs fine-quad=5 --seed 11 --out BENCH_name.json

Both sides run from fresh temporary trees: REV's tree comes from `git
archive`, and the working tree's is a copy of its tracked files and of its
untracked files that `.gitignore` does not exclude. Neither tree holds a
`__pycache__`, and both sides run in this process's environment, so neither
reads compiled bytecode that the other lacks. Each run is that tree's own
`perfbench/run.py --trace 0` in a fresh process, at one `--seconds`
(BENCHMARK.json's `run_seconds` by default) and one `--seed`. Pair i of a
workload runs REV first when i is even and the working tree first when it
is odd. The tool refuses to run when REV's `perfbench/` or `BENCHMARK.json`
differ from the working tree's: the two sides would not run one harness.

The output holds, per workload and end-to-end metric of BENCHMARK.json,
every sample of both sides, each side's median and quartiles, the ratio of
the medians (working tree over REV), the metric's bound and whether the
ratio is within it, the pairs the working tree won (ties count for
neither), and whether the medians differ by more than REV's interquartile
range in the working tree's favour; per workload, both sides' failed and
attempted command counts; and the provenance of the comparison: both
revisions, whether the working tree differs from its HEAD, the host's CPU
count and model, the Python and numpy versions and
PYTHONDONTWRITEBYTECODE. One line per workload and metric goes to standard
output. The exit status is 0 when no command failed on either side, 1 when
some did, and 2 when the harnesses differ.

On Python older than 3.10.12 and 3.11.4, whose tarfile has no extraction
filters, REV's archive is extracted without one; it comes from this
repository's own history.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ("perfbench", "BENCHMARK.json")
SIDES = ("rev", "work")


class HarnessMismatch(Exception):
    """REV and the working tree do not run one benchmark harness."""


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def extract(rev, dest):
    """REV's whole tree under `dest`, from `git archive`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return Path(dest)


def copy_working_tree(dest):
    """The working tree's tracked files and its untracked files that are not
    ignored, under `dest`; a tracked file deleted from the working tree is
    left out."""
    dest = Path(dest)
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    return dest


def harness_differences(a, b):
    """Paths under `perfbench/` or `BENCHMARK.json` that differ between the
    trees `a` and `b`, or exist in only one of them; `__pycache__` is skipped."""

    def files(root):
        found = set()
        for name in HARNESS:
            path = root / name
            candidates = path.rglob("*") if path.is_dir() else [path]
            found.update(p.relative_to(root) for p in candidates if p.is_file() and "__pycache__" not in p.parts)
        return found

    in_a, in_b = files(a), files(b)
    return sorted(
        str(p) for p in in_a | in_b if p not in in_a or p not in in_b or not filecmp.cmp(a / p, b / p, shallow=False)
    )


def run_once(tree, workload, seed, seconds):
    """The result JSON of one `perfbench/run.py` run in `tree`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(trees, pairs, seed, seconds, log=print):
    """{workload: {side: [result, ...]}} of `pairs[workload]` alternating
    pairs per workload; `trees` maps each side to its tree."""
    runs = {}
    for workload, count in pairs.items():
        runs[workload] = {side: [] for side in SIDES}
        for index in range(count):
            for side in SIDES if index % 2 == 0 else reversed(SIDES):
                result = run_once(trees[side], workload, seed, seconds)
                runs[workload][side].append(result)
                log(f"{workload} pair {index + 1}/{count} {side}: command_s_p50 "
                    f"{result['metrics']['command_s_p50']['value']:.4f} s, failed {result['failed']}")
    return runs


def spread(samples):
    """Median and quartiles (numpy's default interpolation) of `samples`."""
    if len(samples) < 2:
        return {"median": samples[0], "q1": samples[0], "q3": samples[0]}
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, benchmark):
    """Per workload: failed/attempted counts of each side, and per end-to-end
    metric of `benchmark` (the parsed BENCHMARK.json) the comparison."""
    summary = {}
    for workload, sides in runs.items():
        metrics = {}
        for spec in benchmark["end_to_end"]:
            name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
            samples = {side: [r["metrics"][name]["value"] for r in sides[side]] for side in SIDES}
            rev, work = spread(samples["rev"]), spread(samples["work"])
            ratio = work["median"] / rev["median"]
            metrics[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "rev": rev,
                "work": work,
                "ratio": ratio,
                "bound": spec["bound"],
                "within_bound": sign * (ratio - 1.0) <= spec["bound"],
                "work_wins": sum(sign * (b - a) < 0 for a, b in zip(samples["rev"], samples["work"])),
                "gain_exceeds_rev_iqr": sign * (rev["median"] - work["median"]) > rev["q3"] - rev["q1"],
                "samples": samples,
            }
        summary[workload] = {
            "pairs": len(sides["rev"]),
            "commands": {
                side: {"failed": sum(r["failed"] for r in sides[side]), "attempted": sum(r["attempted"] for r in sides[side])}
                for side in SIDES
            },
            "metrics": metrics,
        }
    return summary


def compare(rev_tree, work_tree, pairs, seed, seconds, log=print):
    """The summary of `pairs` alternating runs of REV's tree and the working
    tree's; HarnessMismatch, before any run, when their harnesses differ."""
    rev_tree, work_tree = Path(rev_tree), Path(work_tree)
    differ = harness_differences(rev_tree, work_tree)
    if differ:
        raise HarnessMismatch(f"the benchmark harness differs between the trees: {', '.join(differ)}")
    benchmark = json.loads((work_tree / "BENCHMARK.json").read_text())
    runs = run_pairs({"rev": rev_tree, "work": work_tree}, pairs, seed, seconds, log)
    return summarize(runs, benchmark)


def provenance(rev):
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "rev": {"name": rev, "commit": git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()},
        "work": {"head": git("rev-parse", "HEAD").decode().strip(), "dirty": bool(git("status", "--porcelain"))},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def _pairs(text):
    workload, sep, count = text.partition("=")
    if not sep or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=N with N >= 1, got {text!r}")
    return workload, int(count)


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=_pairs, action="append", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)
    pairs = dict(args.pairs)
    unknown = sorted(set(pairs) - {w["name"] for w in benchmark["workloads"]})
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

    record = {"provenance": provenance(args.rev), "seed": args.seed, "seconds": args.seconds}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        rev_tree = extract(args.rev, Path(scratch) / "rev")
        work_tree = copy_working_tree(Path(scratch) / "work")
        try:
            record["workloads"] = compare(rev_tree, work_tree, pairs, args.seed, args.seconds)
        except HarnessMismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    failed = False
    for workload, entry in record["workloads"].items():
        counts = entry["commands"]
        failed = failed or any(counts[side]["failed"] for side in SIDES)
        for name, m in entry["metrics"].items():
            print(
                f"{workload} {name}: {m['rev']['median']:.6g} -> {m['work']['median']:.6g} {m['unit']} "
                f"(ratio {m['ratio']:.4f}, bound {m['bound']:g}, won {m['work_wins']}/{entry['pairs']}, "
                f"gain beyond REV IQR: {'yes' if m['gain_exceeds_rev_iqr'] else 'no'})"
            )
        print(f"{workload} failed commands: {counts['rev']['failed']}/{counts['rev']['attempted']} at {args.rev}, "
              f"{counts['work']['failed']}/{counts['work']['attempted']} in the working tree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
