"""The benchmark's three workloads: config text and generated input files.

Every input is a pure function of (workload, seed).  The program under test
sees only the config file and, for `ingest`, the CSV files written here.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import numpy as np

ALL_METHODS = ("expertnet", "plain-ce", "bootstrap", "forward")

# Shape of the generated `ingest` tables.
INGEST = {
    "train_rows": 20_000,
    "val_rows": 5_000,
    "features": 32,
    "classes": 10,
    "center_scale": 1.5,
    "noise_sd": 1.0,
    "diagonal_range": [0.60, 0.80],
    "next_class_share": 0.5,
}
LABEL_NAMES = ("alder", "birch", "cedar", "elm", "fir",
               "hazel", "larch", "maple", "oak", "rowan")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    methods: tuple[str, ...]
    noise_ratios: tuple[float, ...]
    fractions: tuple[float, ...]
    n_seeds: int
    extra: tuple[tuple[str, str], ...]  # further config keys, in file order
    generated: bool = False             # needs the ingest tables and matrix
    pool: bool = False                  # timed passes use a 2-thread pool


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cotrain",
        why="expertnet alone at README defaults: the two-network co-training step "
            "and per-epoch eval dominate; no pool, data built once per cell",
        methods=("expertnet",), noise_ratios=(0.4,), fractions=(1.0,), n_seeds=2,
        extra=()),
    Workload(
        name="grid",
        why="all four methods x two noise ratios at 20 epochs: the baselines path "
            "and the harness worker pool at Python-bound default sizes",
        methods=ALL_METHODS, noise_ratios=(0.2, 0.4), fractions=(1.0,), n_seeds=2,
        extra=(("epochs", "20"),), pool=True),
    Workload(
        name="ingest",
        why="file dataset of 20k+5k rows and a user matrix, 1 epoch: table "
            "parsing is re-done for every method x fraction, training is small",
        methods=ALL_METHODS, noise_ratios=(0.3,), fractions=(1.0, 0.5, 0.25), n_seeds=1,
        extra=(("dataset", "file"), ("file.train", "{dir}/train.csv"),
               ("file.val", "{dir}/val.csv"), ("file.label", "label"),
               ("matrix", "{dir}/matrix.csv"), ("epochs", "1"), ("batch_size", "256"),
               # one epoch at the default lr leaves accuracy far from converged
               # and seed-dependent; 0.1 steadies it at the same compute
               ("lr", "0.1")),
        generated=True),
)}


def master_seeds(workload: Workload, seed: int) -> list[int]:
    """Program seeds for one benchmark seed; distinct per workload."""
    rng = random.Random(f"{workload.name}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(workload.n_seeds)]


def timed_threads(workload: Workload, nproc: int) -> int:
    return min(2, nproc) if workload.pool else 1


def expected_cells(workload: Workload, seed: int) -> list[tuple[str, float, float, int]]:
    """Every (method, ratio, fraction, master seed) the run must report."""
    return [(m, r, f, s) for m in workload.methods for r in workload.noise_ratios
            for f in workload.fractions for s in master_seeds(workload, seed)]


def data_cells(workload: Workload) -> int:
    """Distinct (ratio, fraction, seed) datasets a run needs."""
    return len(workload.noise_ratios) * len(workload.fractions) * workload.n_seeds


def config_text(workload: Workload, seed: int, input_dir: str) -> str:
    def join(values):
        return ", ".join(f"{v:g}" if isinstance(v, float) else str(v) for v in values)

    lines = [
        f"methods = {join(workload.methods)}",
        f"noise_ratios = {join(workload.noise_ratios)}",
        f"fractions = {join(workload.fractions)}",
        f"seeds = {join(master_seeds(workload, seed))}",
    ]
    lines += [f"{key} = {value.format(dir=input_dir)}" for key, value in workload.extra]
    return "\n".join(lines) + "\n"


def write_ingest_inputs(seed: int, directory: str) -> dict:
    """Write train.csv, val.csv and matrix.csv for `ingest`; returns the parameters.

    Gaussian clusters around random centres, with per-column offset and scale
    so the loader's standardisation does real work.  The transition matrix is
    non-symmetric: half of each row's off-diagonal mass goes to the next class.
    """
    p = INGEST
    k, d = p["classes"], p["features"]
    rng = np.random.default_rng([0x1A6E57, seed])
    centers = rng.standard_normal((k, d)) * p["center_scale"]
    offset = rng.uniform(-50.0, 50.0, d)
    scale = rng.uniform(0.5, 20.0, d)
    header = ",".join([f"f{j:02d}" for j in range(d)] + ["label"])
    for name, rows in (("train", p["train_rows"]), ("val", p["val_rows"])):
        labels = rng.permutation(np.arange(rows) % k)
        x = (centers[labels] + rng.standard_normal((rows, d)) * p["noise_sd"]) * scale + offset
        with open(os.path.join(directory, f"{name}.csv"), "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row, label in zip(x.tolist(), labels.tolist()):
                fh.write(",".join(f"{v:.6f}" for v in row) + f",{LABEL_NAMES[label]}\n")

    low, high = p["diagonal_range"]
    with open(os.path.join(directory, "matrix.csv"), "w", encoding="utf-8") as fh:
        for i in range(k):
            # integer thousandths keep every row sum exact after parsing
            row = [0] * k
            row[i] = int(rng.integers(round(low * 1000), round(high * 1000) + 1))
            rest = 1000 - row[i]
            row[(i + 1) % k] = round(rest * p["next_class_share"])
            others = [j for j in range(k) if j not in (i, (i + 1) % k)]
            spread = rng.multinomial(rest - row[(i + 1) % k], np.full(len(others), 1 / len(others)))
            for j, c in zip(others, spread.tolist()):
                row[j] = c
            fh.write(",".join(f"{c / 1000:.3f}" for c in row) + "\n")
    return {"seed": seed, **p, "labels": list(LABEL_NAMES)}
