"""Compare the artifacts of the benchmark workloads between a git revision
and the working tree, byte for byte.

    python3 tools/artifact_diff.py REV

REV's `src/` is extracted with `git archive` into a temporary directory;
the working tree and `.git` are only read, and `perfbench/` only for its
workload definitions. Each tree runs every command of
`perfbench.workloads.commands(workload, seed)`, every workload at seeds 3
and 7 and full size, and the EXTRA runs (a `recoil --kind libration` with
a laser, particle and rotor config, whose derived report no workload
writes, and runs of the modes no workload couples to), in one fresh
interpreter that imports levsqueeze from that tree's `src/`. Every CSV and JSON file the commands write, the
echoed `<command>_config.json` included, is then compared. One line per
artifact says `identical`, or how many of its cells (CSV cells, JSON leaves)
differ, the largest difference in units of the 12th significant digit (the
last one a CSV cell holds) and the largest absolute difference. The last line is a summary to paste into
CHANGES.md. The exit status is 0 when every artifact is identical and
every command succeeded, 1 otherwise.

Both trees run on one host. numpy's SIMD paths for exp, sin and cos may
differ in the last ulp between CPUs, so a comparison with artifacts made on
another host could differ where the code does not; this one cannot.

On Python older than 3.10.12 and 3.11.4, whose tarfile has no extraction
filters, REV's archive is extracted without one; it comes from this
repository's own history.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.dont_write_bytecode = True  # importing perfbench leaves no __pycache__ in the tree
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

SEEDS = (3, 7)
SIGNIFICANT_DIGITS = 12
# (artifact directory, CLI arguments, config) of the runs compared beside the
# workloads. No workload writes the libration half of the derived report in
# recoil_params.json; the first recoil run does, with a laser, a particle and a
# rotor. The workloads couple only to motion along z and libration about y; the
# other runs reach motion along x and y and libration about z, each with beams
# along several axes and polarizations. Beams along the Cartesian axes couple
# to motion x and libration z by exact zeros only, so a search over oblique
# axes checks the nonzero overlaps of each.
EXTRA = [
    (
        "extra/recoil-libration-report",
        ["recoil", "--kind", "libration", "--axis", "y", "--beam", "na=0.8,axis=-z,pol=pi/2"],
        {
            "laser": {"power": 0.5, "waist": 0.7e-6, "wavelength": 1.064e-6},
            "particle": {"radius": 70e-9, "density": 2200.0, "permittivity": 2.1},
            "rotor": {"alpha_parallel": 6.0e-33, "alpha_perp": 4.0e-33, "moment_of_inertia": 1.0e-31, "volume": 2.0e-21},
        },
    ),
    (
        "extra/recoil-motion-x",
        ["recoil", "--axis", "x", "--beam", "na=0.8,axis=-z,pol=pi/3", "--beam", "na=0.6,axis=+y",
         "--beam", "na=0.9,axis=-x,pol=pi/4"],
        None,
    ),
    (
        "extra/recoil-motion-y",
        ["recoil", "--axis", "y", "--beam", "na=0.7,axis=-z,pol=pi/2", "--beam", "na=0.5,axis=+x,pol=pi/6"],
        None,
    ),
    (
        "extra/recoil-libration-z",
        ["recoil", "--kind", "libration", "--axis", "z", "--beam", "na=0.8,axis=-x,pol=pi/2",
         "--beam", "na=0.6,axis=+y"],
        None,
    ),
    (
        "extra/irp-libration-z",
        ["irp", "--kind", "libration", "--axis", "z", "--beam", "na=0.8,axis=-x,pol=pi/2", "--grid", "19x36"],
        None,
    ),
    (
        "extra/optimize-motion-x",
        ["optimize", "--kind", "motion", "--axis", "x", "--free", "na=0.2:1", "--free", "axis_theta=0:pi",
         "--free", "axis_phi=0:pi", "--fixed", "phi=0", "--budget", "81"],
        None,
    ),
    (
        "extra/optimize-libration-z",
        ["optimize", "--kind", "libration", "--axis", "z", "--free", "na=0.2:1", "--free", "axis_theta=0:pi",
         "--free", "axis_phi=0:pi", "--fixed", "phi=0", "--budget", "81"],
        None,
    ),
]

# The child runs each (out, args) job of the JSON file argv[1] through
# levsqueeze.cli.main and writes the exit codes to argv[2].
CHILD = """\
import json, sys
from levsqueeze.cli import main
with open(sys.argv[1]) as handle:
    jobs = json.load(handle)
codes = [main(["--out", out, *args]) for out, args in jobs]
with open(sys.argv[2], "w") as handle:
    json.dump(codes, handle)
"""


def plan(names, seeds, config_dir, reduced=False):
    """(artifact directory, CLI arguments) of every command of the workloads
    `names` at `seeds`, then of EXTRA; config files are written to
    `config_dir`."""
    runs = [
        (f"{name}/{seed}/{command.name}", command.args, command.config)
        for name in names
        for seed in seeds
        for command in workloads.commands(name, seed, reduced=reduced)
    ]
    jobs = []
    for where, args, config in runs + EXTRA:
        args = list(args)
        if config is not None:
            path = Path(config_dir) / (where.replace("/", "-") + ".json")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(config))
            args = ["--config", str(path)] + args
        jobs.append((where, args))
    return jobs


def run_tree(src, out, jobs):
    """Run `jobs` with the levsqueeze under `src`, each writing to its
    directory under `out`; returns {directory: exit code}."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    job_file, code_file = out.parent / f"{out.name}.jobs.json", out.parent / f"{out.name}.codes.json"
    job_file.write_text(json.dumps([(str(out / where), args) for where, args in jobs]))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(job_file), str(code_file)], env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"levsqueeze under {src} crashed:\n{proc.stderr}")
    return dict(zip((where for where, _ in jobs), json.loads(code_file.read_text())))


def _cells(path, data):
    """{position: text} of every cell of a CSV (header included) or every
    leaf of a JSON file."""
    if path.suffix == ".json":
        leaves = {}

        def walk(value, where):
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(item, f"{where}/{key}")
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    walk(item, f"{where}/{index}")
            else:
                leaves[where] = json.dumps(value)

        walk(json.loads(data), "")
        return leaves
    lines = data.decode().splitlines()
    return {(i, j): cell for i, line in enumerate(lines) for j, cell in enumerate(line.split(","))}


def difference(a, b):
    """(|a - b| in units of the 12th significant digit of the larger, |a - b|)
    of two numbers' texts; None unless both are finite numbers."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    scale = max(abs(x), abs(y))
    if not math.isfinite(scale):
        return None
    if x == y:
        return 0.0, 0.0
    return abs(x - y) / 10.0 ** (math.floor(math.log10(scale)) - (SIGNIFICANT_DIGITS - 1)), abs(x - y)


def compare_file(a, b):
    """None when the files are byte-identical, otherwise what differs."""
    data_a, data_b = Path(a).read_bytes(), Path(b).read_bytes()
    if data_a == data_b:
        return None
    cells_a, cells_b = _cells(Path(a), data_a), _cells(Path(b), data_b)
    if cells_a.keys() != cells_b.keys():
        return f"layout differs: {len(cells_a)} cells against {len(cells_b)}"
    differ = [(cells_a[key], cells_b[key]) for key in cells_a if cells_a[key] != cells_b[key]]
    if not differ:
        return f"bytes differ, all {len(cells_a)} cells equal"
    differences = [difference(*pair) for pair in differ]
    numeric = [d for d in differences if d is not None]
    text = f"{len(differ)} of {len(cells_a)} cells differ"
    if numeric:
        units, absolute = (max(column) for column in zip(*numeric))
        text += f", largest by {units:.3g} units of the 12th significant digit and by {absolute:.3g} absolute"
    if len(numeric) < len(differences):
        text += f", {len(differences) - len(numeric)} not numbers"
    return text


def compare(a, b, rev="REV"):
    """(relative path, None or what differs) of every file under either
    directory, `a` holding REV's artifacts and `b` the working tree's, in
    path order."""
    a, b = Path(a), Path(b)
    paths = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()})
    results = []
    for path in paths:
        if not (a / path).is_file() or not (b / path).is_file():
            results.append((path, f"only in {rev if (a / path).is_file() else 'the working tree'}"))
        else:
            results.append((path, compare_file(a / path, b / path)))
    return results


def extract(rev, dest):
    """REV's src/ under `dest`, from `git archive`."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return Path(dest) / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS)

    with tempfile.TemporaryDirectory(prefix="artifact_diff-") as scratch:
        scratch = Path(scratch)
        jobs = plan(names, SEEDS, scratch / "configs")
        codes_rev = run_tree(extract(args.rev, scratch / "rev"), scratch / "out-rev", jobs)
        codes_work = run_tree(ROOT / "src", scratch / "out-work", jobs)
        failed = [where for where, _ in jobs if codes_rev[where] or codes_work[where]]
        for where in failed:
            print(f"{where}: exit {codes_rev[where]} at {args.rev}, {codes_work[where]} in the working tree")
        results = compare(scratch / "out-rev", scratch / "out-work", rev=args.rev)
    for path, problem in results:
        print(f"{path}: {problem or 'identical'}")
    same = sum(problem is None for _, problem in results)
    summary = (
        f"artifact_diff {args.rev} against the working tree: {same} of {len(results)} artifacts identical "
        f"({', '.join(names)} at full size, seeds {', '.join(map(str, SEEDS))}; "
        f"extra: {', '.join(where for where, _, _ in EXTRA)})"
    )
    if failed:
        summary += f"; {len(failed)} commands failed"
    print(summary)
    return 0 if same == len(results) and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
