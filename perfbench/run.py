"""End-to-end and per-layer benchmark of curvem's solver workloads.

    python3 perfbench/run.py --workload curved-boundary --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --results FILE

Each workload iteration runs alone in a fresh process (``worker.py``) with
BLAS pinned to one thread; its outputs go to a work directory inside the
checkout that is removed at exit.  Iterations repeat until the next one
would end past ``--seconds`` (at least one runs), and every iteration's
outputs are checked against ``reference.json``.

``--trace 0`` reports the end-to-end metrics: median wall time, setup time
(median of fresh ``import curvem.cli`` processes) and peak resident memory,
plus DoFs per second.  ``--trace 1`` runs one untraced and one traced iteration
and reports per-layer metrics from the traced one's spans.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import UNITS as LAYER_UNITS
from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "curved-boundary": {"kind": "cli", "experiment": "test1-curved",
                        "k": [1, 2, 3], "n": [4, 8, 16, 32]},
    "curved-interface": {"kind": "cli", "experiment": "test2",
                         "k": [1, 2, 3], "n": [2, 4, 8, 16]},
    "large-imported": {"kind": "library", "k": [3], "n": [64]},
}
# Seed kept out of tuning; a change confirms its claim on it.
HELD_OUT_SEED = 7919

SETUP_IMPORTS = 5
TIME_LIMIT_S = 170.0  # a run ends well inside 180 s
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PIN)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # setup_s times cached imports
    return env


def measure_setup(workdir: Path, repeats: int) -> list[float]:
    """Seconds each fresh process takes to ``import curvem.cli``.

    One untimed import first writes the bytecode caches, a cost users pay
    once per install, not once per call.
    """
    code = ("import time; t = time.perf_counter(); import curvem.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=workdir,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(proc.stdout.split()[-1]))
    return times


def run_iteration(spec: dict, seed: int, trace: int, out: Path, timeout: float) -> dict:
    """Run one worker process; return its result record."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", json.dumps(spec),
           "--seed", str(seed), "--trace", str(trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=out, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s"}
    result_file = out / "result.json"
    if not result_file.exists():
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(result_file.read_text(encoding="utf-8"))


def _rates_line(levels: list[dict]) -> str:
    """The rates line ``curvem run`` prints for these reference levels."""
    log_h = [math.log(level["h"]) for level in levels]
    rates = []
    for key in ("err_h1", "err_l2"):
        log_e = [math.log(level[key]) for level in levels]
        last = (log_e[-1] - log_e[-2]) / (log_h[-1] - log_h[-2])
        mean_h, mean_e = statistics.fmean(log_h), statistics.fmean(log_e)
        slope = (sum((h - mean_h) * (e - mean_e) for h, e in zip(log_h, log_e))
                 / sum((h - mean_h) ** 2 for h in log_h))
        rates.append((last, slope))
    (last_h1, lsq_h1), (last_l2, lsq_l2) = rates
    return (f"last-interval rates: H1 {last_h1:.3f}, L2 {last_l2:.3f}; "
            f"least-squares: H1 {lsq_h1:.3f}, L2 {lsq_l2:.3f}")


def _summary_rates(path: Path) -> dict[int, str]:
    rates, k = {}, None
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("k = "):
            k = int(line[4:])
        elif line.startswith("last-interval rates:") and k is not None:
            rates[k] = line
    return rates


def check_cli(spec: dict, out: Path, reference: dict) -> list[str]:
    """One message per (k, n) level whose output disagrees with the reference."""
    rtol = reference["error_rtol"]
    levels = {(r["k"], r["n"]): r for r in reference["cli"].get(spec["experiment"], [])}
    cli_out = out / "cli"
    summary = cli_out / "summary.txt"
    printed = _summary_rates(summary) if summary.exists() else {}
    failures = []
    for k in spec["k"]:
        table = cli_out / f"{spec['experiment']}_k{k}.csv"
        rows = {}
        if table.exists():
            with table.open(encoding="utf-8") as fh:
                rows = {int(row["n"]): row for row in csv.DictReader(fh)}
        refs = [levels.get((k, n)) for n in spec["n"]]
        expected = _rates_line(refs) if None not in refs and len(refs) > 1 else None
        for n, ref in zip(spec["n"], refs):
            row = rows.get(n)
            if ref is None:
                problem = "no reference value"
            elif row is None:
                problem = f"missing from {table.name}"
            elif int(row["n_dof"]) != ref["n_dof"]:
                problem = f"n_dof {row['n_dof']} != {ref['n_dof']}"
            else:
                problem = next((
                    f"{key} {float(row[key])!r} differs from {ref[key]!r}"
                    for key in ("err_h1", "err_l2")
                    if not abs(float(row[key]) - ref[key]) <= rtol * abs(ref[key])), None)
            if problem is None and printed.get(k) != expected:
                problem = f"printed {printed.get(k)!r}, expected {expected!r}"
            if problem is not None:
                failures.append(f"k={k} n={n}: {problem}")
    return failures


def check_library(spec: dict, out: Path, result: dict, reference: dict) -> list[str]:
    """Messages for a large-imported solve outside its recorded band."""
    (k,), (n,) = spec["k"], spec["n"]
    band = reference["library"].get(f"n{n}_k{k}")
    if band is None:
        return [f"k={k} n={n}: no reference band"]
    output = json.loads((out / "errors.json").read_text(encoding="utf-8"))
    problems = []
    if output["n_dof"] != band["n_dof"]:
        problems.append(f"n_dof {output['n_dof']} != {band['n_dof']}")
    for key in ("err_h1", "err_l2"):
        low, high = band[key]
        if not low <= output[key] <= high:
            problems.append(f"{key} {output[key]!r} outside [{low!r}, {high!r}]")
    if not result["residual"] <= reference["residual_max"]:
        problems.append(f"relative residual {result['residual']:.2e} > "
                        f"{reference['residual_max']:.0e}: CG did not converge")
    return [f"k={k} n={n}: " + "; ".join(problems)] if problems else []


def total_dofs(spec: dict, reference: dict) -> int:
    if spec["kind"] == "library":
        return reference["library"][f"n{spec['n'][0]}_k{spec['k'][0]}"]["n_dof"]
    levels = {(r["k"], r["n"]): r["n_dof"] for r in reference["cli"][spec["experiment"]]}
    return sum(levels[k, n] for k in spec["k"] for n in spec["n"])


def checked_iteration(spec, seed, trace, out, reference, deadline) -> dict:
    """Run and check one iteration; every level counts as one operation."""
    result = run_iteration(spec, seed, trace, out, max(1.0, deadline - time.monotonic()))
    result["attempted"] = len(spec["k"]) * len(spec["n"])
    if "error" in result or result["exit_code"] != 0:
        reason = (result["error"].strip().splitlines()[-1] if "error" in result
                  else f"curvem exited {result['exit_code']}")
        result["failures"] = [f"every level: {reason}"]
        result["failed"] = result["attempted"]
        return result
    if spec["kind"] == "cli":
        result["failures"] = check_cli(spec, out, reference)
    else:
        result["failures"] = check_library(spec, out, result, reference)
    result["failed"] = len(result["failures"])
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int, workdir: Path,
                 *, spec: dict | None = None, reference: dict | None = None) -> dict:
    """Measure one workload; ``spec`` and ``reference`` override the defaults."""
    spec = dict(WORKLOADS[name] if spec is None else spec, name=name)
    reference = load_reference() if reference is None else reference
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir.mkdir(parents=True, exist_ok=True)
    setup = [] if trace else measure_setup(workdir, SETUP_IMPORTS)

    iterations = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        iterations.append(checked_iteration(spec, seed, 0, workdir / f"it{len(iterations)}",
                                            reference, deadline))
        now = time.monotonic()
        if trace or now - start + (now - began) > seconds:
            break
    traced = (checked_iteration(spec, seed, 1, workdir / "traced", reference, deadline)
              if trace else None)

    runs = iterations + ([traced] if traced else [])
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "iterations": len(iterations),
              "attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs),
              "failures": [f for r in runs for f in r["failures"]]}
    record["fail_ratio"] = record["failed"] / record["attempted"]
    walls = [r["wall_s"] for r in iterations if "wall_s" in r]
    record["samples"] = {"wall_s": walls, "setup_s": setup,
                         "peak_rss_mb": [r["peak_rss_mb"] for r in iterations]}
    values = {}
    if not trace:
        if walls:
            values["wall_s"] = statistics.median(walls)
            # a constant times 1/wall_s: printed and stored, not gated twice
            record["dofs_per_s"] = total_dofs(spec, reference) / values["wall_s"]
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = statistics.median(record["samples"]["peak_rss_mb"])
    elif walls and "wall_s" in traced:
        values = layer_metrics(traced["spans"], traced["counters"], set(traced["installed"]),
                               traced["wall_s"], statistics.median(walls))
        record["missing_entry_points"] = traced.get("missing_entry_points", [])
    units = END_TO_END_UNITS if not trace else LAYER_UNITS
    record["metrics"] = {key: {"value": value, "unit": units[key]}
                         for key, value in values.items()}
    return record


def environment() -> dict:
    """Versions, cores, BLAS pin and commit, for results files."""
    import numpy
    import scipy

    blas = {lib.__name__: "{name} {version}".format(
        **lib.show_config(mode="dicts")["Build Dependencies"]["blas"]) for lib in (numpy, scipy)}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": BLAS_PIN, "git_commit": commit}


def report(record: dict) -> None:
    """Human-readable lines for one workload record."""
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['iterations']} untraced iteration(s), {record['attempted']} "
          f"operations, {record['failed']} failed")
    for key, metric in record["metrics"].items():
        count = len(record["samples"].get(key, ())) or None
        note = f" (median of {count})" if count else ""
        print(f"  {key:<32} {metric['value']:.6g} {metric['unit']}{note}")
    if "dofs_per_s" in record:
        print(f"  {'dofs_per_s':<32} {record['dofs_per_s']:.6g} 1/s")
    print(f"  {'fail_ratio':<32} {record['fail_ratio']:.6g} "
          f"({record['failed']}/{record['attempted']})")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    for entry in record.get("missing_entry_points", []):
        print(f"  absent: {entry} no longer exists; its metrics are not reported")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed (held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="also write the records and environment here")
    args = parser.parse_args(argv)
    if not (SRC / "curvem" / "__init__.py").is_file():
        print(f"error: no curvem sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    try:
        records = [run_workload(name, args.seed, args.seconds, args.trace,
                                workdir / name) for name in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    for record in records:
        report(record)
    if args.results:
        Path(args.results).write_text(json.dumps(
            {"environment": environment(), "records": records}, indent=1) + "\n",
            encoding="utf-8")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{key}": value
                   for r in records for key, value in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
