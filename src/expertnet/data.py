"""Dataset construction: synthetic Gaussian blobs, delimited-table loading,
one-hot encoding, deterministic splits, and fraction subsampling."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError, DimensionError, InputError
from .seeding import derive_rng

VARIANCE_CLAMP = 1e-12
MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)  # numpy cannot describe a larger array


def check_array_size(what: str, *shape: int) -> None:
    """Reject a float64 array shape numpy cannot describe, naming what asked for it."""
    if math.prod(shape) * 8 > MAX_ARRAY_BYTES:
        raise ConfigurationError(f"{what}: a {' x '.join(map(str, shape))} array is more "
                                 "than numpy can address")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with true labels and, after noise injection, given labels.

    Value-immutable: arrays are stored read-only and every transformation
    returns a new Dataset.
    """

    features: np.ndarray
    true_labels: np.ndarray
    n_classes: int
    given_labels: np.ndarray | None = None

    def __post_init__(self):
        # copy so locking the arrays read-only never reaches back to the caller
        feats = np.array(self.features, dtype=float)
        true = np.array(self.true_labels, dtype=np.int64)
        if feats.ndim != 2:
            raise DimensionError(f"features must be 2-D, got shape {feats.shape}")
        if true.shape != (feats.shape[0],):
            raise DimensionError(
                f"{feats.shape[0]} samples but {true.shape} true labels"
            )
        if true.size and (true.min() < 0 or true.max() >= self.n_classes):
            raise DataError(f"true label out of range [0, {self.n_classes})")
        for name, arr in (("features", feats), ("true_labels", true)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.given_labels is not None:
            given = np.array(self.given_labels, dtype=np.int64)
            if given.shape != true.shape:
                raise DimensionError("given labels must match true labels in length")
            if given.size and (given.min() < 0 or given.max() >= self.n_classes):
                raise DataError(f"given label out of range [0, {self.n_classes})")
            given.setflags(write=False)
            object.__setattr__(self, "given_labels", given)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def with_given(self, given_labels) -> "Dataset":
        return replace(self, given_labels=np.asarray(given_labels, dtype=np.int64))

    def take(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        given = None if self.given_labels is None else self.given_labels[indices]
        return Dataset(self.features[indices], self.true_labels[indices],
                       self.n_classes, given)


def one_hot_batch(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(f"label out of range [0, {n_classes})")
    return np.eye(n_classes)[labels.reshape(-1)]


def make_blobs(n_classes: int, per_class: int, dim: int, separation: float,
               spread: float, seed: int) -> Dataset:
    """Isotropic Gaussian clusters, one per class, exactly per_class samples each.

    Centers are drawn at random and rescaled so the minimum pairwise distance
    equals `separation`; every cluster has standard deviation `spread`.
    """
    if n_classes < 2 or per_class < 1 or dim < 1:
        raise ConfigurationError(
            f"invalid blob parameters: n_classes={n_classes}, per_class={per_class}, dim={dim}"
        )
    if not (0.0 < separation < math.inf and 0.0 < spread < math.inf):
        raise ConfigurationError("separation and spread must be finite and above 0")
    rng = derive_rng(seed)
    centers = rng.standard_normal((n_classes, dim))
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=-1))
    min_dist = dists[~np.eye(n_classes, dtype=bool)].min()
    if min_dist == 0.0:
        raise ConfigurationError("degenerate center draw; use a different seed")
    centers *= separation / min_dist
    features = np.repeat(centers, per_class, axis=0) + spread * rng.standard_normal(
        (n_classes * per_class, dim)
    )
    labels = np.repeat(np.arange(n_classes), per_class)
    return Dataset(features, labels, n_classes)


def subsample(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Uniform subset without replacement of size round(fraction * N), order kept."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    size = int(round(fraction * ds.n))
    if size == 0:
        raise ConfigurationError(f"fraction {fraction} of {ds.n} samples selects nothing")
    indices = np.sort(derive_rng(seed).choice(ds.n, size=size, replace=False))
    return ds.take(indices)


def stratified_split(ds: Dataset, per_class: int) -> tuple[Dataset, Dataset]:
    """First `per_class` samples of each class (dataset order) vs the rest."""
    if per_class < 1:
        raise ConfigurationError(f"per_class must be >= 1, got {per_class}")
    first, rest = [], []
    for c in range(ds.n_classes):
        idx = np.flatnonzero(ds.true_labels == c)
        if idx.size <= per_class:
            raise ConfigurationError(
                f"class {c} has {idx.size} samples, need more than {per_class} to split"
            )
        first.append(idx[:per_class])
        rest.append(idx[per_class:])
    return ds.take(np.sort(np.concatenate(first))), ds.take(np.sort(np.concatenate(rest)))


def read_text(path) -> str:
    """A whole UTF-8 file minus any byte-order mark; an unreadable file raises InputError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


# A training table's feature columns, their mean and population standard
# deviation, and its sorted label names (label i is class i).
TableSchema = namedtuple("TableSchema", "columns mean std classes")


def load_table(path, label_column: str, feature_columns=None,
               schema: TableSchema | None = None):
    """Load a comma-separated table (header row) as a standardized Dataset.

    A training table (no `schema`) reads `feature_columns` (default: every
    non-label column; never the label column), standardizes them with its own statistics (constant
    columns become zeros) and numbers its sorted labels.  A table loaded with
    the training table's schema reads the schema's columns by name, scales
    them with its statistics and maps labels through its classes; an unseen
    label raises DataError.  Returns (dataset, schema).
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise InputError(f"{path}:1: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
    if repeated is not None:
        raise InputError(f"{path}:1: column {repeated!r} appears twice")
    if label_column not in header:
        raise InputError(f"{path}:1: no column named {label_column!r}")
    if schema is not None and feature_columns is not None:
        raise ConfigurationError("load_table takes feature_columns or a schema, not both")
    if schema is not None or feature_columns is None:
        feature_columns = schema.columns if schema else [h for h in header if h != label_column]
    if not feature_columns:
        raise InputError(f"{path}:1: no feature columns besides {label_column!r}")
    if label_column in feature_columns:
        raise InputError(f"{path}:1: label column {label_column!r} is listed as a feature")
    twice = next((c for i, c in enumerate(feature_columns) if c in feature_columns[:i]), None)
    if twice is not None:
        raise InputError(f"{path}:1: column {twice!r} is listed twice")
    missing = [c for c in feature_columns if c not in header]
    if missing:
        raise InputError(f"{path}:1: missing feature columns {missing}")
    feat_idx = [header.index(c) for c in feature_columns]
    label_idx = header.index(label_column)

    features = np.empty((len(lines) - 1, len(feat_idx)))
    raw_labels, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        if not cells[label_idx]:
            raise InputError(f"{path}:{lineno}: empty label")
        try:
            features[len(linenos)] = [float(cells[i]) for i in feat_idx]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        raw_labels.append(cells[label_idx])
        linenos.append(lineno)
    if not linenos:
        raise InputError(f"{path}:2: no data rows")

    features = features[:len(linenos)]
    finite = np.isfinite(features)
    if not finite.all():
        row, col = (int(i[0]) for i in np.nonzero(~finite))
        raise InputError(f"{path}:{linenos[row]}: column {feature_columns[col]!r} is "
                         f"{features[row, col]}, not a finite number")
    if schema is None:
        schema = TableSchema(tuple(feature_columns), features.mean(axis=0),
                             features.std(axis=0), tuple(sorted(set(raw_labels))))
    index = {name: i for i, name in enumerate(schema.classes)}
    unseen = sorted(set(raw_labels) - set(index))
    if unseen:
        raise DataError(f"{path}: labels {unseen} not present in the training table")
    labels = np.array([index[name] for name in raw_labels], dtype=np.int64)

    features = (features - schema.mean) / np.maximum(schema.std, VARIANCE_CLAMP)
    return Dataset(features, labels, len(schema.classes)), schema
