"""Dataset construction: synthetic Gaussian blobs, delimited-table loading,
one-hot encoding, deterministic splits, and fraction subsampling."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError, DimensionError, InputError
from .seeding import derive_rng

VARIANCE_CLAMP = 1e-12


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
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


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
    if separation <= 0.0 or spread <= 0.0:
        raise ConfigurationError("separation and spread must be positive")
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


def normalization_stats(features) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation (population form)."""
    feats = np.asarray(features, dtype=float)
    return feats.mean(axis=0), feats.std(axis=0)


def read_text(path) -> str:
    """A whole UTF-8 file; a file that cannot be read raises InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def load_table(path, label_column: str, feature_columns=None,
               stats: tuple[np.ndarray, np.ndarray] | None = None,
               label_map: dict | None = None):
    """Load a comma-separated table (header row) as a normalized Dataset.

    Features are standardized per column; constant columns become all zeros.
    Pass the returned (stats, label_map) back in when loading a validation
    table so it reuses the training statistics and class mapping; an unseen
    label then raises DataError.

    Returns (dataset, stats, label_map).
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise InputError(f"{path}:1: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if label_column not in header:
        raise InputError(f"{path}:1: no column named {label_column!r}")
    if feature_columns is None:
        feature_columns = [h for h in header if h != label_column]
    missing = [c for c in feature_columns if c not in header]
    if missing:
        raise InputError(f"{path}:1: missing feature columns {missing}")
    feat_idx = [header.index(c) for c in feature_columns]
    label_idx = header.index(label_column)

    raw_features, raw_labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        try:
            raw_features.append([float(cells[i]) for i in feat_idx])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        raw_labels.append(cells[label_idx])
    if not raw_features:
        raise InputError(f"{path}:2: no data rows")

    features = np.array(raw_features)
    finite = np.isfinite(features)
    if not finite.all():
        row, col = (int(i[0]) for i in np.nonzero(~finite))
        lineno = [n for n, line in enumerate(lines[1:], start=2) if line.strip()][row]
        raise InputError(f"{path}:{lineno}: column {feature_columns[col]!r} is "
                         f"{features[row, col]}, not a finite number")
    if label_map is None:
        label_map = {name: i for i, name in enumerate(sorted(set(raw_labels)))}
    unseen = sorted(set(raw_labels) - set(label_map))
    if unseen:
        raise DataError(f"{path}: labels {unseen} not present in the training table")
    labels = np.array([label_map[name] for name in raw_labels], dtype=np.int64)

    if stats is None:
        stats = normalization_stats(features)
    mean, std = stats
    features = (features - mean) / np.maximum(std, VARIANCE_CLAMP)
    return Dataset(features, labels, len(label_map)), stats, label_map
