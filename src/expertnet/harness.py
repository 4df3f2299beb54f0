"""Experiment harness: config parsing, the (method x noise ratio x data
fraction x seed) grid, accuracy measurement, and CSV report emission.

The unit of work is a (ratio, fraction, seed) cell: it builds and hashes its
corrupted dataset once and trains every method on that one read-only
dataset with identical batch-order seeds; `run_grid` runs the cells in order
on the calling thread.  Per-cell streams are derived from the master seed and
the cell coordinates only, so adding methods never perturbs existing cells.
Output files are byte-deterministic: timing goes to the run log, never into
results.csv.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import math
import os
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .baselines import BASELINE_KINDS, BaselineSpec, train_baseline
from .data import Dataset, load_table, make_blobs, read_text, stratified_split, subsample
from .errors import ConfigurationError, DataError, DimensionError, ExpertNetError, InputError
from .model import ExpertNet, build_expertnet, train
from .nn import StepDecay
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
        for m in self.methods:
            if m not in METHODS:
                raise ConfigurationError(f"unknown method {m!r} (choose from {tuple(METHODS)})")
        pivots: dict[str, float] = {}
        for r in self.noise_ratios:
            symmetric_matrix(2, r)
            if pivots.setdefault(pivot_name(r), r) != r:
                raise ConfigurationError(
                    f"noise ratios {pivots[pivot_name(r)]:g} and {r:g} share {pivot_name(r)}")
        if not self.out:
            raise ConfigurationError("out must name an output directory, got ''")
        for key in ("epochs", "batch_size", "amateur_hidden", "expert_hidden"):
            if min(np.atleast_1d(getattr(self, key)), default=1) < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {getattr(self, key)}")
        # the objects that own the remaining rules reject bad values before any cell runs
        self.schedule()
        self.expertnet(1, 2, 0)
        BaselineSpec("bootstrap", self.bootstrap_beta, self.bootstrap_variant)
        if isinstance(self.dataset, BlobsSpec):
            for key, low in (("classes", 2), ("dim", 1), ("per_class", 1), ("val_per_class", 1)):
                if (value := getattr(self.dataset, key)) < low:
                    raise ConfigurationError(f"blobs.{key} must be >= {low}, got {value}")
            for key in ("separation", "spread"):
                if not 0.0 < (value := getattr(self.dataset, key)) < math.inf:
                    raise ConfigurationError(f"blobs.{key} must be finite and above 0, got {value}")
        elif len(set(self.dataset.features)) != len(self.dataset.features):
            raise ConfigurationError(
                f"file.features must list distinct columns, got {self.dataset.features}")

    def schedule(self) -> StepDecay:
        return StepDecay(self.lr, self.lr_decay_factor, self.lr_decay_period)

    def expertnet(self, feature_dim: int, n_classes: int, seed: int) -> ExpertNet:
        return build_expertnet(feature_dim, n_classes, seed, amateur_hidden=self.amateur_hidden,
                               expert_hidden=self.expert_hidden,
                               expert_terminal=self.expert_terminal,
                               momentum=self.momentum, weight_decay=self.weight_decay)


@dataclass(frozen=True)
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

    def sort_key(self):
        return (self.method, self.mode, self.noise_ratio, self.fraction, self.seed)


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
    """The inputs every cell shares, read from disk and checked once per run.

    Returns (tables, matrix): a file dataset's standardized (train, val)
    Datasets, or None for blobs; and the user transition matrix, or None.
    A user matrix must be KxK for the data's K classes.
    """
    spec, tables, matrix = config.dataset, None, None
    if isinstance(spec, FileSpec):
        columns = list(spec.features) or None
        train_set, stats, label_map = load_table(spec.train, spec.label, columns)
        val_set, _, _ = load_table(spec.val, spec.label, columns,
                                   stats=stats, label_map=label_map)
        tables = (train_set, val_set)
    if config.matrix:
        matrix = load_matrix_csv(config.matrix)
        n_classes = spec.classes if tables is None else tables[0].n_classes
        if matrix.shape[0] != n_classes:
            raise DimensionError(f"matrix is {matrix.shape[0]}x{matrix.shape[0]} "
                                 f"but data has {n_classes} classes")
    return tables, matrix


def build_cell_datasets(config: ExperimentConfig, ratio: float, fraction: float,
                        master_seed: int, source):
    """Dataset pair plus the transition matrix shared by every method in a cell.

    `source` is `load_source(config)`.  Train split is subsampled to
    `fraction` before noise injection; the validation split gets given labels
    from an independent stream.
    """
    tables, matrix = source
    cell = cell_seed(master_seed, ratio, fraction)
    spec = config.dataset
    if tables is None:
        full = make_blobs(spec.classes, spec.per_class + spec.val_per_class, spec.dim,
                          spec.separation, spec.spread, derive_seed(cell, STREAM_DATA))
        train_set, val_set = stratified_split(full, spec.per_class)
    else:
        train_set, val_set = tables
    train_set = subsample(train_set, fraction, derive_seed(cell, STREAM_SUBSAMPLE))
    if matrix is None:
        matrix = symmetric_matrix(train_set.n_classes, ratio)
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


def _cell_label(method: str, ratio: float, fraction: float, master_seed: int) -> str:
    return f"[{method} rho={ratio:g} frac={fraction:g} seed={master_seed}]"


def _failed_blocks(config: ExperimentConfig, methods, ratio: float, fraction: float,
            master_seed: int, exc: ExpertNetError):
    """One failed block per method: a failed record per reported mode and a FAILED log line."""
    diagnostic = f"{type(exc).__name__}: {exc}"
    return [([ResultRecord(method=method, mode=mode, noise_ratio=ratio, fraction=fraction,
                           seed=master_seed, accuracy=None, epochs=config.epochs,
                           dataset_hash="", status="failed", diagnostic=diagnostic)
              for mode in METHODS[method]],
             [f"{_cell_label(method, ratio, fraction, master_seed)} FAILED {diagnostic}"])
            for method in methods]


def _run_cell(config: ExperimentConfig, ratio: float, fraction: float, master_seed: int,
              source):
    """Build and hash one cell's data once and train every method on it.

    Returns one (records, log lines) block per method.  A build failure fails
    every method of the cell with its diagnostic and a training failure fails
    that method only; neither raises, so the rest of the grid still runs.
    """
    try:
        train_set, val_set, matrix = build_cell_datasets(config, ratio, fraction, master_seed,
                                                         source)
    except ExpertNetError as exc:
        return _failed_blocks(config, config.methods, ratio, fraction, master_seed, exc)
    dhash = dataset_hash(train_set, val_set)
    cell = cell_seed(master_seed, ratio, fraction)
    blocks = []
    for method in config.methods:
        started = time.perf_counter()
        try:
            _, history = train_method(config, method, cell, train_set, val_set, matrix)
        except ExpertNetError as exc:
            blocks += _failed_blocks(config, (method,), ratio, fraction, master_seed, exc)
            continue
        label = _cell_label(method, ratio, fraction, master_seed)
        logs = [f"{label} dataset_hash={dhash} train_n={train_set.n} val_n={val_set.n}"]
        logs.extend(f"{label} epoch={h.epoch} {h.describe()}" for h in history)
        logs.append(f"{label} done in {time.perf_counter() - started:.2f}s")
        final = history[-1]
        accuracies = (final.val_amateur_accuracy, final.val_full_accuracy)
        blocks.append(([ResultRecord(method=method, mode=mode, noise_ratio=ratio,
                                     fraction=fraction, seed=master_seed, accuracy=acc,
                                     epochs=config.epochs, dataset_hash=dhash)
                        for mode, acc in zip(METHODS[method], accuracies)], logs))
    return blocks


def run_grid(config: ExperimentConfig, *,
             log_lines: list[str] | None = None) -> list[ResultRecord]:
    """Run every (ratio, fraction, seed) cell, each training every method; returns sorted records.

    A failing method yields failed records with its diagnostic; the rest of
    the grid still runs.  The input files are read once, before any cell;
    when one cannot be read, every method of every cell fails with its
    diagnostic.  Per-method log lines (incl. timing) land in `log_lines` in
    canonical order when a list is supplied.
    """
    cells = list(itertools.product(config.noise_ratios, config.fractions, config.seeds))
    try:
        source = load_source(config)
    except ExpertNetError as exc:
        outcomes = [_failed_blocks(config, config.methods, *cell, exc) for cell in cells]
    else:
        outcomes = [_run_cell(config, *cell, source) for cell in cells]
    blocks = sorted((block for blocks in outcomes for block in blocks),
                    key=lambda block: block[0][0].sort_key())
    if log_lines is not None:
        log_lines.extend(line for _, logs in blocks for line in logs)
    return sorted((r for records, _ in blocks for r in records), key=ResultRecord.sort_key)


# --- report emission ----------------------------------------------------------

LONG_CSV_HEADER = "method,mode,noise_ratio,fraction,seed,accuracy,epochs,status,dataset_hash,diagnostic"


def _fmt_accuracy(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _write_csv(path, rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def emit_report(records, out_dir) -> list[str]:
    """Write results.csv plus one pivot CSV per noise ratio; returns the paths.

    Pivot rows are fractions (descending), columns are method/mode pairs, and
    cells are mean +/- sample standard deviation over seeds.  Byte-identical
    output for identical records.
    """
    records = sorted(records, key=ResultRecord.sort_key)
    if not records:
        raise DataError("no records to report")
    os.makedirs(out_dir, exist_ok=True)
    table = [LONG_CSV_HEADER.split(",")] + [
        [r.method, r.mode, f"{r.noise_ratio:g}", f"{r.fraction:g}", r.seed,
         _fmt_accuracy(r.accuracy), r.epochs, r.status, r.dataset_hash, r.diagnostic]
        for r in records]
    paths = [_write_csv(os.path.join(out_dir, "results.csv"), table)]

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
                if accs:
                    mean = float(np.mean(accs))
                    std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
                    cells.append(f"{mean:.4f}±{std:.4f}")
                else:
                    cells.append("")
            rows.append(cells)
        paths.append(_write_csv(os.path.join(out_dir, pivot_name(ratio)), rows))
    return paths
