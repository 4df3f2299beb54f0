"""Experiment harness: config parsing, the (method x noise ratio x data
fraction x seed) grid, accuracy measurement, and report emission.

The unit of work is a (ratio, fraction, seed) cell: it builds and hashes its
corrupted dataset once and trains every method on that one read-only dataset
with identical batch-order seeds.  `run_grid` runs the cells in order and
returns one `MethodRun` value per (method, cell); `emit_report` alone renders
them into results.csv, the pivots and run.log.  Per-cell streams derive from
the master seed and the cell coordinates only, so adding methods never
perturbs existing cells.  Timing goes to run.log, never into the CSVs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import math
import os
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .baselines import BASELINE_KINDS, BaselineSpec, train_baseline
from .data import (Dataset, check_array_size, load_table, make_blobs, read_text,
                   stratified_split, subsample)
from .errors import ConfigurationError, DataError, DimensionError, ExpertNetError, InputError
from .model import EpochStats, ExpertNet, build_expertnet, check_expert_terminal, train
from .nn import SgdState, StepDecay, check_mlp_dims
from .noise import corrupt_labels, load_matrix_csv, symmetric_matrix
from .seeding import (
    STREAM_DATA,
    STREAM_NOISE_TRAIN,
    STREAM_NOISE_VAL,
    STREAM_SUBSAMPLE,
    STREAM_TRAIN,
    derive_seed,
    stable_hash64,
)

CONFIG_SCHEMA = 1
MODE_AMATEUR = "amateur-only"
MODE_FULL = "full"
# method -> the inference modes it reports; baselines never read given labels
METHODS = {"expertnet": (MODE_AMATEUR, MODE_FULL),
           **{kind: (MODE_AMATEUR,) for kind in BASELINE_KINDS}}
# what fails a cell (from `load_source`, every cell) instead of the grid
CELL_ERRORS = (ExpertNetError, MemoryError)


def pivot_name(ratio: float) -> str:
    """File name of the pivot table for one noise ratio."""
    return f"pivot_rho{round(ratio * 100):02d}.csv"


@dataclass(frozen=True)
class BlobsSpec:
    classes: int = 4
    dim: int = 16
    per_class: int = 500
    val_per_class: int = 250
    separation: float = 6.0
    spread: float = 1.0


@dataclass(frozen=True)
class FileSpec:
    train: str
    val: str
    label: str
    features: tuple[str, ...] = ()  # empty = every non-label column


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: BlobsSpec | FileSpec = field(default_factory=BlobsSpec)
    noise_ratios: tuple[float, ...] = (0.2, 0.4)
    fractions: tuple[float, ...] = (1.0,)
    methods: tuple[str, ...] = ("expertnet",)
    seeds: tuple[int, ...] = (1,)
    matrix: str | None = None  # user transition matrix; overrides symmetric noise
    epochs: int = 60
    batch_size: int = 64
    lr: float = 0.01
    lr_decay_factor: float = 0.1
    lr_decay_period: int | None = None
    momentum: float = 0.9
    weight_decay: float = 1e-4
    amateur_hidden: tuple[int, ...] = (128, 64)
    expert_hidden: tuple[int, ...] = (64, 32)
    expert_terminal: str = "softmax"
    bootstrap_beta: float = 0.8
    bootstrap_variant: str = "soft"
    out: str = "results"

    def __post_init__(self):
        # -0 is the ratio 0: one spelling, one cell seed and one output label
        object.__setattr__(self, "noise_ratios", tuple(r + 0.0 for r in self.noise_ratios))
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{key} must be a finite number, got {value}")
        for key in ("noise_ratios", "fractions", "methods", "seeds"):
            values = getattr(self, key)
            if not values or len(set(values)) != len(values):
                raise ConfigurationError(f"{key} must list distinct values, got {values}")
        for f in self.fractions:
            if not 0.0 < f <= 1.0:
                raise ConfigurationError(f"fraction must be in (0, 1], got {f}")
        for s in self.seeds:  # seeding masks seeds to 64 bits: one outside would alias one inside
            if not 0 <= s < 2**64:
                raise ConfigurationError(f"seeds must be in [0, 2**64), got {s}")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigurationError(f"unknown method {m!r} (choose from {tuple(METHODS)})")
        for r in self.noise_ratios:
            symmetric_matrix(2, r)
        # two values the report prints alike would be one row, pivot or log label twice
        for key, label in (("noise_ratios", pivot_name), ("noise_ratios", "{:g}".format),
                           ("fractions", "{:g}".format)):
            seen: dict[str, float] = {}
            for value in getattr(self, key):
                if (first := seen.setdefault(label(value), value)) != value:
                    raise ConfigurationError(
                        f"{key} {first!r} and {value!r} share the output label {label(value)!r}")
        if self.matrix is not None and len(self.noise_ratios) > 1:
            raise ConfigurationError("a matrix sets the noise, so noise_ratios must list one "
                                     f"value to label the run, got {self.noise_ratios}")
        if not self.out:
            raise ConfigurationError("out must name an output directory, got ''")
        for key in ("epochs", "batch_size", "amateur_hidden", "expert_hidden"):
            if min(np.atleast_1d(getattr(self, key)), default=1) < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {getattr(self, key)}")
        # the owners of the remaining rules check values alone: nothing sized by the config
        self.schedule()
        check_expert_terminal(self.expert_terminal)
        for widths in (self.amateur_hidden, self.expert_hidden):
            check_mlp_dims((1, *widths, 1))
        SgdState(np.empty(0), self.momentum, self.weight_decay)
        BaselineSpec("bootstrap", self.bootstrap_beta, self.bootstrap_variant)
        if isinstance(self.dataset, BlobsSpec):
            for key, low in (("classes", 2), ("dim", 1), ("per_class", 1), ("val_per_class", 1)):
                if (value := getattr(self.dataset, key)) < low:
                    raise ConfigurationError(f"blobs.{key} must be >= {low}, got {value}")
            for key in ("separation", "spread"):
                if not 0.0 < (value := getattr(self.dataset, key)) < math.inf:
                    raise ConfigurationError(f"blobs.{key} must be finite and above 0, got {value}")
            spec = self.dataset  # make_blobs' largest arrays: the features and center differences
            check_array_size("blobs", spec.classes * (spec.per_class + spec.val_per_class), spec.dim)
            check_array_size("blobs", spec.classes, spec.classes, spec.dim)
        elif len(set(self.dataset.features)) != len(self.dataset.features):
            raise ConfigurationError(
                f"file.features must list distinct columns, got {self.dataset.features}")
        elif self.dataset.label in self.dataset.features:
            raise ConfigurationError("file.features must not list the label column, "
                                     f"file.label = {self.dataset.label!r}")

    def schedule(self) -> StepDecay:
        return StepDecay(self.lr, self.lr_decay_factor, self.lr_decay_period)

    def expertnet(self, feature_dim: int, n_classes: int, seed: int) -> ExpertNet:
        return build_expertnet(feature_dim, n_classes, seed, amateur_hidden=self.amateur_hidden,
                               expert_hidden=self.expert_hidden,
                               expert_terminal=self.expert_terminal,
                               momentum=self.momentum, weight_decay=self.weight_decay)


@dataclass(frozen=True, order=True)
class ResultRecord:
    method: str
    mode: str
    noise_ratio: float
    fraction: float
    seed: int
    accuracy: float | None
    epochs: int
    dataset_hash: str
    status: str = "ok"
    diagnostic: str = ""


def dataset_hash(train_set: Dataset, val_set: Dataset) -> str:
    """Content hash over the exact (x, y, t) triples both splits carry."""
    digest = hashlib.blake2b(digest_size=8)
    for ds in (train_set, val_set):
        for arr in (ds.features, ds.true_labels, ds.given_labels):
            if arr is not None:
                digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(str(ds.n_classes).encode())
    return digest.hexdigest()


# --- config file parsing ------------------------------------------------------

DATASETS = {"blobs": BlobsSpec, "file": FileSpec}


def _cast(key, text, kind):
    try:
        value = kind(text)
    except ValueError:
        raise ConfigurationError(
            f"config key {key}: expected {kind.__name__}, got {text!r}") from None
    return value


def _section(cls, prefix: str, raw: dict) -> dict:
    """Keyword arguments for `cls` from its config keys in `raw`, which are popped.

    Each value is cast to its field's type: a tuple takes a comma list (an
    empty value is the empty tuple, an empty item is an error), and `X | None`
    takes an empty value or `none` as None.
    """
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        if key in raw:
            text, hint = raw.pop(key), hints[f.name]
            kinds = [k for k in typing.get_args(hint) if k is not type(None)]
            if typing.get_origin(hint) is tuple:
                items = [i.strip() for i in text.split(",")] if text else []
                if "" in items:
                    raise ConfigurationError(f"config key {key}: empty item in {text!r}")
                value = tuple(_cast(key, i, kinds[0]) for i in items)
            elif kinds:
                value = None if text in ("", "none") else _cast(key, text, kinds[0])
            else:
                value = _cast(key, text, hint)
            kwargs[f.name] = value
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and not kwargs.get(f.name):
            raise ConfigurationError(f"config key {key} needs a value")
    return kwargs


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse the flat `key = value` config format (schema 1).

    Lists are comma separated; `#` starts a comment; later keys win; CLI
    overrides win over file keys.  Types and defaults are the fields of
    ExperimentConfig and of the dataset spec that `dataset` names.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        raw[key.strip()] = value.strip()
    raw.update({k: str(v) for k, v in (overrides or {}).items()})

    schema = _cast("schema", raw.pop("schema", str(CONFIG_SCHEMA)), int)
    if schema != CONFIG_SCHEMA:
        raise ConfigurationError(f"unsupported config schema {schema}")
    kind = raw.pop("dataset", "blobs")
    if kind not in DATASETS:
        raise ConfigurationError(f"unknown dataset kind {kind!r}")
    dataset = DATASETS[kind](**_section(DATASETS[kind], kind + ".", raw))
    config = ExperimentConfig(dataset=dataset, **_section(ExperimentConfig, "", raw))
    if raw:
        raise ConfigurationError(f"unknown config keys: {sorted(raw)}")
    return config


def read_config(path, overrides: dict | None = None) -> ExperimentConfig:
    return parse_config(read_text(path), overrides)


# --- grid execution -----------------------------------------------------------

def cell_seed(master_seed: int, ratio: float, fraction: float) -> int:
    """Method-independent stream root for one grid cell."""
    return derive_seed(master_seed,
                       stable_hash64(f"rho={ratio:.12g}"),
                       stable_hash64(f"frac={fraction:.12g}"))


def load_source(config: ExperimentConfig):
    """The inputs every cell shares, read from disk, checked and built once per run.

    Returns (tables, matrices): a file dataset's standardized (train, val)
    Datasets, or None for blobs; and each noise ratio's transition matrix,
    which is the user matrix when one is given and the symmetric KxK matrix
    of the ratio otherwise.  A training table needs at least 2 classes, and a
    user matrix must be KxK for the data's K classes.
    """
    spec, tables = config.dataset, None
    if isinstance(spec, FileSpec):
        train_set, schema = load_table(spec.train, spec.label, list(spec.features) or None)
        if len(schema.classes) < 2:
            raise DataError(f"{spec.train}: every row has label {schema.classes[0]!r}; "
                            "need at least 2 classes")
        tables = (train_set, load_table(spec.val, spec.label, schema=schema)[0])
    n_classes = spec.classes if tables is None else tables[0].n_classes
    if not config.matrix:
        return tables, {r: symmetric_matrix(n_classes, r) for r in config.noise_ratios}
    matrix = load_matrix_csv(config.matrix)
    if matrix.shape[0] != n_classes:
        raise DimensionError(f"matrix is {matrix.shape[0]}x{matrix.shape[0]} "
                             f"but data has {n_classes} classes")
    return tables, dict.fromkeys(config.noise_ratios, matrix)


def build_cell_datasets(config: ExperimentConfig, ratio: float, fraction: float,
                        master_seed: int, source):
    """Dataset pair plus the transition matrix shared by every method in a cell.

    `source` is `load_source(config)`, which holds `ratio`'s matrix.  Train
    split is subsampled to `fraction` before noise injection; the validation
    split gets given labels from an independent stream.
    """
    tables, matrices = source
    matrix = matrices[ratio]
    cell = cell_seed(master_seed, ratio, fraction)
    spec = config.dataset
    if tables is None:
        full = make_blobs(spec.classes, spec.per_class + spec.val_per_class, spec.dim,
                          spec.separation, spec.spread, derive_seed(cell, STREAM_DATA))
        train_set, val_set = stratified_split(full, spec.per_class)
    else:
        train_set, val_set = tables
    train_set = subsample(train_set, fraction, derive_seed(cell, STREAM_SUBSAMPLE))
    train_set = train_set.with_given(corrupt_labels(
        train_set.true_labels, matrix, derive_seed(cell, STREAM_NOISE_TRAIN)))
    val_set = val_set.with_given(corrupt_labels(
        val_set.true_labels, matrix, derive_seed(cell, STREAM_NOISE_VAL)))
    return train_set, val_set, matrix


def train_method(config: ExperimentConfig, method: str, cell: int, train_set: Dataset,
                 val_set: Dataset, matrix: np.ndarray):
    """Train one method on a cell's built data (`build_cell_datasets`); returns (model, history).

    `cell` is the cell's `cell_seed`.  The model is an ExpertNet for
    `expertnet` and the trained network for a baseline.
    """
    train_seed = derive_seed(cell, STREAM_TRAIN)
    schedule = config.schedule()
    if method == "expertnet":
        model = config.expertnet(train_set.dim, train_set.n_classes, train_seed)
        _, history = train(model, train_set, val_set, config.epochs,
                           config.batch_size, schedule, train_seed)
        return model, history
    spec = BaselineSpec(method, config.bootstrap_beta, config.bootstrap_variant,
                        matrix if method == "forward" else None)
    return train_baseline(spec, train_set, val_set, config.epochs,
                          config.batch_size, schedule, train_seed,
                          hidden=config.amateur_hidden,
                          momentum=config.momentum,
                          weight_decay=config.weight_decay)


@dataclass(frozen=True, order=True)
class MethodRun:
    """One method's outcome on one grid cell; runs sort by (method, ratio, fraction, seed)."""
    method: str
    noise_ratio: float
    fraction: float
    seed: int
    epochs: int
    diagnostic: str = ""  # "" when the method trained; a failed run has no data or history
    dataset_hash: str = ""
    train_n: int = 0
    val_n: int = 0
    history: tuple[EpochStats, ...] = ()
    seconds: float = 0.0


def _failed_runs(config: ExperimentConfig, methods, ratio: float, fraction: float,
                 master_seed: int, exc: Exception) -> list[MethodRun]:
    """One failed run per method, all with the diagnostic of `exc`."""
    # numpy raises a private MemoryError subclass; the diagnostic names the public one
    kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    return [MethodRun(method, ratio, fraction, master_seed, config.epochs, f"{kind}: {exc}")
            for method in methods]


def _run_cell(config: ExperimentConfig, ratio: float, fraction: float, master_seed: int,
              source) -> list[MethodRun]:
    """Build and hash one cell's data once and train every method on it.

    Returns one MethodRun per method.  A build failure fails every method of
    the cell with its diagnostic and a training failure fails that method
    only; neither raises, so the rest of the grid still runs.
    """
    try:
        train_set, val_set, matrix = build_cell_datasets(config, ratio, fraction, master_seed,
                                                         source)
    except CELL_ERRORS as exc:
        return _failed_runs(config, config.methods, ratio, fraction, master_seed, exc)
    dhash = dataset_hash(train_set, val_set)
    cell = cell_seed(master_seed, ratio, fraction)
    runs = []
    for method in config.methods:
        t0 = time.perf_counter()
        try:
            _, history = train_method(config, method, cell, train_set, val_set, matrix)
        except CELL_ERRORS as exc:
            runs += _failed_runs(config, (method,), ratio, fraction, master_seed, exc)
            continue
        runs.append(MethodRun(method, ratio, fraction, master_seed, config.epochs, "", dhash,
                              train_set.n, val_set.n, tuple(history), time.perf_counter() - t0))
    return runs


def run_grid(config: ExperimentConfig) -> list[MethodRun]:
    """Run every (ratio, fraction, seed) cell, each training every method; returns sorted runs.

    A failing method yields a failed run with its diagnostic; the rest of the
    grid still runs.  The input files are read once, before any cell; when
    one cannot be read, every method of every cell fails with its diagnostic.
    """
    cells = list(itertools.product(config.noise_ratios, config.fractions, config.seeds))
    try:
        source = load_source(config)
    except CELL_ERRORS as exc:
        return sorted(r for cell in cells for r in _failed_runs(config, config.methods, *cell, exc))
    return sorted(r for cell in cells for r in _run_cell(config, *cell, source))


def grid_records(runs) -> list[ResultRecord]:
    """The sorted `results.csv` rows of `runs`: one per mode each method reports."""
    records = []
    for run in runs:
        last = run.history[-1] if run.history else None
        accuracies = (last.val_amateur_accuracy, last.val_full_accuracy) if last else (None, None)
        records += [ResultRecord(run.method, mode, run.noise_ratio, run.fraction, run.seed, acc,
                                 run.epochs, run.dataset_hash,
                                 "failed" if run.diagnostic else "ok", run.diagnostic)
                    for mode, acc in zip(METHODS[run.method], accuracies)]
    return sorted(records)


# --- report emission ----------------------------------------------------------

LONG_CSV_HEADER = "method,mode,noise_ratio,fraction,seed,accuracy,epochs,status,dataset_hash,diagnostic"


def _fmt_accuracy(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def make_output_dir(path) -> None:
    """Create the output directory unless it exists; ConfigurationError when it cannot be."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot use {path} as the output directory: "
                                 f"{exc.strerror}") from None


def emit_report(runs, out_dir) -> list[str]:
    """Write results.csv, one pivot CSV per noise ratio and run.log; returns the paths.

    Pivot rows are fractions (descending), columns are method/mode pairs, and
    cells are mean +/- sample standard deviation over seeds.  Runs in any order
    give the same bytes.  The report is written whole or not at all: every file
    goes to a temporary name in `out_dir`, the files replace their targets only
    once all are written, and only then is a `pivot_rho*.csv` this report does
    not write removed.  An `out_dir` or a file that cannot be written raises
    ConfigurationError.
    """
    runs = sorted(runs)
    if not runs:
        raise DataError("no runs to report")
    records = grid_records(runs)
    files = {"results.csv": _csv_text([LONG_CSV_HEADER.split(",")] + [
        [r.method, r.mode, f"{r.noise_ratio:g}", f"{r.fraction:g}", r.seed,
         _fmt_accuracy(r.accuracy), r.epochs, r.status, r.dataset_hash, r.diagnostic]
        for r in records])}
    ok = [r for r in records if r.status == "ok"]
    for ratio in sorted({r.noise_ratio for r in records}):
        subset = [r for r in ok if r.noise_ratio == ratio]
        columns = sorted({(r.method, r.mode) for r in subset})
        fractions = sorted({r.fraction for r in records if r.noise_ratio == ratio}, reverse=True)
        rows = [["fraction", *(f"{m}/{mode}" for m, mode in columns)]]
        for fraction in fractions:
            cells = [f"{fraction:g}"]
            for method, mode in columns:
                accs = [r.accuracy for r in subset
                        if r.fraction == fraction and (r.method, r.mode) == (method, mode)]
                std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
                cells.append(f"{float(np.mean(accs)):.4f}±{std:.4f}" if accs else "")
            rows.append(cells)
        files[pivot_name(ratio)] = _csv_text(rows)
    log = []
    for run in runs:
        label = f"[{run.method} rho={run.noise_ratio:g} frac={run.fraction:g} seed={run.seed}]"
        log += [f"{label} FAILED {run.diagnostic}"] if run.diagnostic else [
            f"{label} dataset_hash={run.dataset_hash} train_n={run.train_n} val_n={run.val_n}",
            *(f"{label} epoch={h.epoch} {h.describe()}" for h in run.history),
            f"{label} done in {run.seconds:.2f}s"]
    files["run.log"] = "".join(line + "\n" for line in log)
    make_output_dir(out_dir)
    paths = [os.path.join(out_dir, name) for name in files]
    blocked = next((path for path in paths if os.path.isdir(path)), None)
    if blocked is not None:
        raise ConfigurationError(f"cannot write {blocked}: Is a directory")
    temps = [os.path.join(out_dir, f".{name}.{os.getpid()}.tmp") for name in files]
    try:
        for path, temp, text in zip(paths, temps, files.values()):
            with open(temp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for path, temp in zip(paths, temps):
            os.replace(temp, path)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        for temp in temps:
            with contextlib.suppress(OSError):  # renamed already, or never made
                os.remove(temp)
    with os.scandir(out_dir) as entries:
        stale = [e.path for e in entries if e.is_file() and e.name not in files
                 and e.name.startswith("pivot_rho") and e.name.endswith(".csv")]
    for path in stale:
        os.remove(path)
    return paths
