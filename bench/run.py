"""expertnet benchmark: times `expertnet run` on one workload and checks its output.

Usage (from the repository root):

    python3 bench/run.py --workload {cotrain,grid,ingest} --seed N --seconds S --trace {0,1}

Every repeat is a fresh process (bench/child.py) with BLAS pinned to one
thread.  Inputs are made from --seed before anything is timed.  The timed
repeats fill --seconds; their results.csv bytes must all equal the first
pass's.  With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 untraced and traced repeats alternate and
it holds the per-layer metrics instead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import tracer
from workloads import (WORKLOADS, Workload, config_text, data_cells, expected_cells,
                       timed_threads, write_ingest_inputs)

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".bench_out"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("acc_full", "frac"), ("acc_amateur", "frac"))
# Set before numpy is imported in the child, and recorded with every run.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAUNCHES = 8  # extra set-up-only processes, so setup_s has enough samples
MIN_ITERATIONS = {0: 3, 1: 2}  # timed repeats (trace 0) or untraced+traced pairs (trace 1)


@dataclass
class Sample:
    rc: int
    setup_s: float | None
    wall_s: float | None
    cpu_s: float
    rss_mb: float
    results: bytes | None
    trace_path: str | None


class Runner:
    """Launches repeats of one workload's config from one run directory."""

    def __init__(self, root: str, run_dir: str, config_path: str):
        self.root = root
        self.run_dir = run_dir
        self.config_path = config_path
        self.count = 0
        self.env = {**os.environ, **BLAS_ENV}
        self.env.pop("PYTHONPATH", None)

    def launch(self, threads: int = 1, setup_only: bool = False, trace: bool = False) -> Sample:
        self.count += 1
        base = os.path.join(self.run_dir, f"r{self.count}")
        trace_path = base + "-spans" if trace else None
        cmd = [sys.executable, CHILD, "--src", os.path.join(self.root, "src"),
               "--config", self.config_path, "--out", base + "-out",
               "--threads", str(threads), "--result", base + ".json"]
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--trace", trace_path] if trace else []
        with open(base + ".log", "wb") as log:
            proc = subprocess.Popen(cmd + ["--launch-ns", str(time.monotonic_ns())],
                                    cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(base + ".json", encoding="utf-8") as fh:
                result = json.load(fh)
        except FileNotFoundError:
            with open(base + ".log", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"repeat {self.count} exited {proc.returncode} without a result:\n{tail}",
                  file=sys.stderr)
            result = {"setup_ns": None, "wall_ns": None}
        results_path = os.path.join(base + "-out", "results.csv")
        results = None
        if os.path.exists(results_path):
            with open(results_path, "rb") as fh:
                results = fh.read()
        return Sample(
            rc=proc.returncode,
            setup_s=None if result["setup_ns"] is None else result["setup_ns"] / 1e9,
            wall_s=None if result["wall_ns"] is None else result["wall_ns"] / 1e9,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            results=results,
            trace_path=trace_path if result["wall_ns"] is not None else None,
        )


# --- output checks ----------------------------------------------------------------

def cell_of(row) -> tuple[str, str, str, str]:
    return (row["method"], row["noise_ratio"], row["fraction"], row["seed"])


def failed_cells(data: bytes | None, rc: int, cells, epochs: int,
                 reference: bytes | None) -> set:
    """Cells of one pass whose output is missing, failed or wrong.

    Checks: every expected (method, mode, ratio, fraction, seed) row is there
    once and no other; status ok, accuracy in [0, 1], epochs as configured;
    all methods of a (ratio, fraction, seed) report one dataset hash; the
    exit code is 0 iff no row failed; and rows equal the reference bytes.
    """
    expected = {(m, f"{r:g}", f"{f:g}", str(s)) for m, r, f, s in cells}
    if data is None or rc not in (0, 1):
        return set(expected)
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    bad = set()
    modes = defaultdict(list)
    hashes = defaultdict(set)
    any_failed = False
    for row in rows:
        cell = cell_of(row)
        modes[cell].append(row["mode"])
        any_failed |= row["status"] == "failed"
        try:
            acc_ok = 0.0 <= float(row["accuracy"]) <= 1.0
        except ValueError:
            acc_ok = False
        if row["status"] != "ok" or not acc_ok or row["epochs"] != str(epochs):
            bad.add(cell)
        else:
            hashes[cell[1:]].add(row["dataset_hash"])
    for cell in expected | set(modes):
        want = ["amateur-only", "full"] if cell[0] == "expertnet" else ["amateur-only"]
        if sorted(modes.get(cell, [])) != want or cell not in expected:
            bad.add(cell)
        if len(hashes[cell[1:]]) > 1:
            bad.add(cell)
    if (rc == 0) == any_failed:
        return expected | bad
    if reference is not None and data != reference:
        ref_rows = list(csv.DictReader(io.StringIO(reference.decode("utf-8"))))
        mine = {(cell_of(r), r["mode"]): r for r in rows}
        theirs = {(cell_of(r), r["mode"]): r for r in ref_rows}
        differ = {key[0] for key in mine.keys() | theirs.keys() if mine.get(key) != theirs.get(key)}
        bad |= differ or expected  # equal rows in other bytes: order or format changed
    return bad


def accuracies(data: bytes) -> tuple[float, float]:
    """(mean expertnet full-mode accuracy, mean amateur-only accuracy), ok rows only."""
    full, amateur = [], []
    for row in csv.DictReader(io.StringIO(data.decode("utf-8"))):
        if row["status"] != "ok":
            continue
        if row["mode"] == "full":
            full.append(float(row["accuracy"]))
        elif row["mode"] == "amateur-only":
            amateur.append(float(row["accuracy"]))
    return (statistics.fmean(full) if full else 0.0,
            statistics.fmean(amateur) if amateur else 0.0)


# --- reporting ----------------------------------------------------------------------

def describe(name: str, values: list[float], unit: str) -> str:
    """Median, quartiles and sample count, plus the highest percentile that
    has at least ten samples beyond it."""
    med = statistics.median(values)
    text = f"{name} = {med:.6g} {unit} (median of n={len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", quartiles {q1:.6g}..{q3:.6g}"
    tail = int(100 * (1 - 10 / len(values))) if len(values) > 20 else 0
    if tail > 50:
        text += f", p{tail} {np.percentile(values, tail):.6g}"
    else:
        text += "; no tail percentile: fewer than 10 samples beyond p50"
    return text + ")"


def environment(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": BLAS_ENV,
        "git_sha": git_sha(root),
    }


def git_sha(root: str) -> str | None:
    """HEAD commit when the checkout is a git work tree, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# --- one run ----------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: int, trace: int, root: str, run_dir: str):
    gen_params = None
    input_dir = os.path.relpath(os.path.join(run_dir, "inputs"), root)
    if workload.generated:
        os.makedirs(os.path.join(root, input_dir))
        gen_params = write_ingest_inputs(seed, os.path.join(root, input_dir))
    config = config_text(workload, seed, input_dir)
    config_path = os.path.join(run_dir, "exp.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(config)
    epochs = next((int(v) for k, v in workload.extra if k == "epochs"), 60)
    cells = expected_cells(workload, seed)
    env = environment(root)
    threads = timed_threads(workload, env["nproc"])
    runner = Runner(root, run_dir, config_path)

    setups = [runner.launch(setup_only=True).setup_s for _ in range(1 + SETUP_LAUNCHES)]
    setups.pop(0)  # the first launch fills bytecode and page caches
    passes: list[Sample] = []
    if workload.pool:
        passes.append(runner.launch(threads=1))  # untimed serial reference

    timed, traced, iteration_s = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        timed.append(runner.launch(threads=threads))
        if trace:
            traced.append(runner.launch(threads=threads, trace=True))
        iteration_s.append(time.monotonic() - started)
        if (len(iteration_s) >= MIN_ITERATIONS[trace]
                and time.monotonic() + statistics.median(iteration_s) > deadline):
            break
    passes += timed + traced

    reference = passes[0].results
    attempted = failed = 0
    for sample in passes:
        attempted += len(cells)
        failed += len(failed_cells(sample.results, sample.rc, cells, epochs, reference))
    samples = {
        "wall_s": [s.wall_s for s in timed if s.wall_s is not None],
        "setup_s": [s for s in setups + [t.setup_s for t in timed] if s is not None],
        "cpu_s": [s.cpu_s for s in timed],
        "peak_rss_mb": [s.rss_mb for s in timed],
    }
    traced_wall = [s.wall_s for s in traced if s.wall_s is not None]
    if None in setups or not samples["wall_s"] or (trace and not traced_wall):
        print("error: the program could not be set up or run", file=sys.stderr)
        return None

    lines = [f"workload={workload.name} seed={seed} seconds={seconds} trace={trace} "
             f"threads={threads} repeats={len(timed)} traced={len(traced)}",
             "env " + json.dumps(env, sort_keys=True),
             f"results.csv sha256={hashlib.sha256(reference or b'').hexdigest()}",
             f"checks: {failed} of {attempted} cell outputs failed a check "
             f"(failed_frac = {failed / attempted:.6g} frac)"]
    if not trace:
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["acc_full"], values["acc_amateur"] = accuracies(reference or b"")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines += [describe(name, samples[name], unit) if name in samples
                  else f"{name} = {values[name]:.6g} {unit}" for name, unit in END_TO_END]
    else:
        per_repeat = [tracer.layer_metrics(tracer.load(s.trace_path), len(cells),
                                           data_cells(workload))
                      for s in traced if s.trace_path]
        metrics = {}
        for name, unit in tracer.metric_specs():
            if name == "trace.wall_s":
                value = statistics.median(traced_wall)
            elif name == "trace.overhead_s":
                value = statistics.median(traced_wall) - statistics.median(samples["wall_s"])
            else:
                got = [m[name] for m in per_repeat]
                value = None if None in got or not got else statistics.median(got)
            metrics[name] = {"value": value, "unit": unit}
            shown = "unmeasured" if value is None else f"{value:.6g}"
            lines.append(f"{name} = {shown} {unit}")
        shares = defaultdict(float)
        for name, stat in metrics.items():
            if name.endswith(".self_s") and stat["value"] is not None:
                shares[name.split(".")[0]] += stat["value"] / metrics["trace.wall_s"]["value"]
        # summed over threads, so under a pool the shares can pass 100%
        lines.append("self time by module / traced wall_s: " + ", ".join(
            f"{module} {share:.1%}" for module, share in shares.items()))
        lines.append(describe("untraced wall_s", samples["wall_s"], "s"))
        lines.append(describe("traced wall_s", traced_wall, "s"))
    print("\n".join(lines))

    record = {"workload": workload.name, "why": workload.why, "seed": seed,
              "seconds": seconds, "trace": trace, "threads": threads, "config": config,
              "generator": gen_params, "env": env,
              "results_sha256": hashlib.sha256(reference or b"").hexdigest(),
              "samples": {**samples, "traced_wall_s": traced_wall},
              "metrics": metrics}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "expertnet", "cli.py")):
        print("error: run from the repository root (no src/expertnet here)", file=sys.stderr)
        return 2
    out = os.path.join(root, OUT_DIR)
    os.makedirs(out, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out)
    try:
        outcome = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                      root, run_dir)
    finally:
        shutil.rmtree(run_dir)
    if outcome is None:
        return 1
    result, record = outcome
    os.makedirs(os.path.join(out, "records"), exist_ok=True)
    record_path = os.path.join(out, "records",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
