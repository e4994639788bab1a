"""levsqueeze benchmark: fresh-process CLI workloads with checked outputs.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. One client runs the workload's commands as fresh `levsqueeze`
processes, one after another (a closed loop, no concurrency), in whole
passes while at least half a pass fits in `--seconds`. Every command's
artifacts are checked against closed forms (see workloads.py); a command
that exits non-zero or fails its check counts as failed.

With `--trace 0` the result holds the end-to-end metrics. With `--trace 1`
untraced passes alternate with passes run under traced.py, the result
holds the per-layer metrics of the traced passes, and the difference of
the two medians is the tracing overhead. The last line of standard output is the result as JSON; the line before it
is a report with provenance, per-command medians and the failures.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import traced
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 3

# The ROADMAP's end-to-end baseline: single runs on a 2-core box, about 20 % noise.
ROADMAP_BASELINE_S = {"recoil": 1.56, "irp": 1.77, "sensitivity": 1.50, "wigner": 2.40}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, stderr_path):
    """Run one child to completion: wall seconds, peak RSS in MB, exit code."""
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def setup(scratch, repeats):
    """Median wall time from a fresh interpreter until levsqueeze.cli is imported."""
    probe = "import levsqueeze.cli, sys; sys.stderr.write(levsqueeze.cli.__file__)"
    err = scratch / "setup.err"
    samples = []
    for _ in range(repeats):
        seconds, _, code = spawn([sys.executable, "-c", probe], err)
        where = err.read_text()
        if code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: importing levsqueeze.cli failed or resolved outside {SRC}:\n{where}")
        samples.append(seconds)
    return statistics.median(samples)


def run_command(command, scratch, tag, spans_path=None):
    """Run and check one command; returns its record."""
    out = scratch / tag
    out.mkdir(parents=True)
    args = ["--out", str(out)]
    if command.config is not None:
        (out / "config.json").write_text(json.dumps(command.config))
        args += ["--config", str(out / "config.json")]
    args += command.args
    if spans_path is None:
        argv = [sys.executable, "-m", "levsqueeze.cli"] + args
    else:
        argv = [sys.executable, str(Path(traced.__file__)), str(spans_path), tag, "--"] + args
    seconds, rss_mb, code = spawn(argv, out / "stderr.txt")
    record = {"name": command.name, "seconds": seconds, "rss_mb": rss_mb, "problem": None}
    if code != 0:
        stderr = (out / "stderr.txt").read_text().strip().splitlines()
        record["problem"] = f"exit code {code}: {stderr[-1] if stderr else ''}"
    else:
        try:
            command.check(str(out))
        except (workloads.CheckFailed, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            record["problem"] = f"{type(exc).__name__}: {exc}"
    if spans_path is not None and spans_path.is_file():
        record["spans"] = json.loads(spans_path.read_text())["spans"]
    shutil.rmtree(out)
    return record


def run_pass(commands, scratch, index, trace):
    start = time.perf_counter()
    records = []
    for number, command in enumerate(commands):
        tag = f"p{index}-c{number}-{command.name}"
        spans = scratch / f"{tag}.spans.json" if trace else None
        records.append(run_command(command, scratch, tag, spans))
    return {"seconds": time.perf_counter() - start, "traced": trace, "commands": records}


def tail(samples):
    """(value, percentile, count): the highest percentile with at least ten
    samples above it, once that is the 90th or higher (100 samples). With
    fewer samples that percentile lies in the body of the distribution, and
    would jump from the maximum to near the median as a run crosses 21
    samples, so the maximum is reported as the 100th."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 100:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def provenance(workload, seed):
    import numpy

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
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def end_to_end(setup_s, passes):
    samples = [c["seconds"] for p in passes for c in p["commands"]]
    value, percentile, count = tail(samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "command_s_p50": (statistics.median(samples), "s"),
        "command_s_tail": (value, "s"),
        "workload_s": (statistics.median(p["seconds"] for p in passes), "s"),
        "peak_rss_mb": (max(c["rss_mb"] for p in passes for c in p["commands"]), "MB"),
    }
    return metrics, {"percentile": percentile, "samples": count}


def per_layer(passes):
    per_pass = [traced.pass_metrics([c.get("spans", []) for c in p["commands"]]) for p in passes]
    units = {name: unit for name, unit, *_ in traced.PER_LAYER}
    return {name: (statistics.median(m[name] for m in per_pass), units[name]) for name in units}


def command_medians(passes):
    by_name = {}
    for p in passes:
        for c in p["commands"]:
            by_name.setdefault(c["name"], []).append(c["seconds"])
    return {name: statistics.median(v) for name, v in by_name.items()}


def measure(workload, seed, seconds, trace, reduced=False, setup_repeats=SETUP_REPEATS):
    """Run one benchmark measurement; returns (result, report)."""
    if not (SRC / "levsqueeze" / "cli.py").is_file():
        raise SystemExit(f"error: no levsqueeze sources under {SRC}; run from a source checkout")
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        setup_s = setup(scratch, setup_repeats)
        commands = workloads.commands(workload, seed, reduced)
        passes = []
        start = time.perf_counter()
        while True:
            traced_pass = bool(trace) and len(passes) % 2 == 1
            passes.append(run_pass(commands, scratch, len(passes), traced_pass))
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(passes) > seconds and (not trace or len(passes) > 1):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    records = [c for p in passes for c in p["commands"]]
    failures = [f"{c['name']}: {c['problem']}" for c in records if c["problem"]]
    measured = [p for p in passes if p["traced"] == bool(trace)]
    report = {"provenance": provenance(workload, seed), "passes": len(measured)}
    if trace:
        metrics = per_layer(measured)
        untraced_s = statistics.median(p["seconds"] for p in passes if not p["traced"])
        report["provenance"]["tracing_overhead_s"] = statistics.median(p["seconds"] for p in measured) - untraced_s
        report["moves"] = {name: moves for name, _, _, moves in traced.PER_LAYER}
    else:
        metrics, report["command_s_tail"] = end_to_end(setup_s, measured)
        report["provenance"]["tracing_overhead_s"] = None  # measured by --trace 1
    medians = command_medians(measured)
    report["command_medians_s"] = medians
    if workload == "figures" and not trace:
        report["roadmap_baseline"] = {
            name: {"median_s": medians[name], "baseline_s": base, "diff_pct": 100.0 * (medians[name] / base - 1.0)}
            for name, base in ROADMAP_BASELINE_S.items()
        }
    report["failed_ratio"] = {"failed": len(failures), "attempted": len(records), "value": len(failures) / len(records)}
    report["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
