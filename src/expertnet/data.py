"""Dataset construction: synthetic Gaussian blobs, delimited-table loading,
one-hot encoding, deterministic splits, and fraction subsampling."""

from __future__ import annotations

import contextlib
import errno
import math
import os
import re
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError, DimensionError, InputError
from .seeding import derive_rng

VARIANCE_CLAMP = 1e-12
# a path that names one of this process's open descriptors: (std name, descriptor number)
DESCRIPTOR_PATH = re.compile(r"/dev/std(in|out|err)|/(?:dev|proc/self)/fd/(\d+)")
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
        if feats.ndim != 2:
            raise DimensionError(f"features must be 2-D, got shape {feats.shape}")
        true = np.array(check_labels(self.true_labels, self.n_classes, "true label", len(feats)))
        for name, arr in (("features", feats), ("true_labels", true)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.given_labels is not None:
            given = np.array(check_labels(self.given_labels, self.n_classes, "given label",
                                          len(true)))
            given.setflags(write=False)
            object.__setattr__(self, "given_labels", given)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def with_given(self, given_labels) -> "Dataset":
        return replace(self, given_labels=given_labels)

    def take(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        given = None if self.given_labels is None else self.given_labels[indices]
        return Dataset(self.features[indices], self.true_labels[indices],
                       self.n_classes, given)


def check_labels(labels, n_classes: int, what: str = "label",
                 rows: int | None = None) -> np.ndarray:
    """`labels` as int64 class indices in [0, n_classes), one per row (of `rows` when given), or
    DimensionError "{what}s must be one per row of N, got shape S" (or "a ragged sequence"), or
    DataError "{what} must be a whole number" or "{what} out of range"; int64 passes uncopied."""
    try:
        labels = np.asarray(labels)
    except ValueError:  # numpy's error for a ragged sequence, which has no shape
        raise DimensionError(f"{what}s must be one per row, got a ragged sequence") from None
    if labels.ndim != 1 or rows is not None and len(labels) != rows:
        of = "" if rows is None else f" of {rows}"
        raise DimensionError(f"{what}s must be one per row{of}, got shape {labels.shape}")
    if labels.dtype.kind not in "biu":  # read as floats; NaN and inf never reach a cast
        try:  # text, complex and items float() cannot read are no number
            with warnings.catch_warnings():  # numpy's ComplexWarning is a RuntimeWarning
                warnings.simplefilter("error", RuntimeWarning)
                labels = labels.astype(float) if labels.dtype.kind in "fO" else None
        except (ArithmeticError, TypeError, ValueError, RuntimeWarning):
            labels = None
        if labels is None or not (np.isfinite(labels) & (np.floor(labels) == labels)).all():
            raise DataError(f"{what} must be a whole number")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(f"{what} out of range [0, {n_classes})")
    return labels.astype(np.int64, copy=False)


def one_hot_batch(labels, n_classes: int, rows: int | None = None) -> np.ndarray:
    return np.eye(n_classes)[check_labels(labels, n_classes, rows=rows)]


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
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        centers *= separation / min_dist
        features = np.repeat(centers, per_class, axis=0) + spread * rng.standard_normal(
            (n_classes * per_class, dim)
        )
    if not np.isfinite(features).all():
        raise ConfigurationError(f"separation {separation} and spread {spread} give "
                                 "features beyond float range")
    labels = np.repeat(np.arange(n_classes), per_class)
    return Dataset(features, labels, n_classes)


def subset_size(fraction: float, n: int | None) -> int | None:
    """round(fraction * n) for a fraction in (0, 1] that keeps at least one of n rows;
    with n None (rows not read yet) only the range is checked."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    size = None if n is None else int(round(fraction * n))
    if size == 0:
        raise ConfigurationError(f"fraction {fraction} of {n} samples selects nothing")
    return size


def subsample(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Uniform subset without replacement of size `subset_size(fraction, N)`, order kept."""
    size = subset_size(fraction, ds.n)
    return ds.take(np.sort(derive_rng(seed).choice(ds.n, size=size, replace=False)))


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
    except (OSError, ValueError) as exc:  # ValueError: undecodable text or a NUL byte
        raise InputError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def temporary_path(target: str, tag) -> str:
    """The hidden name beside `target` that `write_files` writes before renaming it to
    `target`, or that `write_target` creates to prove the directory takes a new file."""
    head, name = os.path.split(target)
    # 40 characters of the name keep the temporary's within 255 bytes
    return os.path.join(head, f".{name[:40]}.{os.getpid()}.{tag}.tmp")


def write_target(path) -> tuple:
    """How `write_files` writes `path`: ("descriptor", N) through a copy of the open descriptor
    N it names, ("in place", path) for a device or FIFO, or ("replace", real) for a regular file
    or a new name in a directory that takes a new file; anything else raises
    ConfigurationError "cannot write PATH: REASON"."""
    path = os.fsdecode(path)
    named = DESCRIPTOR_PATH.fullmatch(path)
    try:
        if not path:  # os.stat fails, yet realpath names the current directory
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        try:
            os.stat(path)
        except FileNotFoundError:  # a new name: its directory, as given, exists
            if named:
                raise OSError(errno.EBADF, os.strerror(errno.EBADF)) from None
            os.stat(os.path.dirname(path) or os.curdir)
        else:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if named:
                return "descriptor", (int(named[2]) if named[2]
                                      else ("in", "out", "err").index(named[1]))
            if not os.path.isfile(path):
                return "in place", path
        real = os.path.realpath(path)  # drops `missing/..`, which the OS does not
        # only a create proves the directory, as linked, takes the temporary: os.access
        # answers yes for root in a read-only directory, and anyone in /proc
        probe = temporary_path(real, "probe")
        os.close(os.open(probe, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        os.remove(probe)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        raise ConfigurationError(f"cannot write {path}: "
                                 f"{getattr(exc, 'strerror', None) or exc}") from None
    return "replace", real


def write_files(texts: dict) -> None:
    """Write each {path: text} as UTF-8 where `write_target` says, or raise ConfigurationError
    naming the path; temporaries replace their real targets only once every text is written."""
    temps = {}  # path: (temporary, real target)
    sys.stdout.flush()  # a descriptor's text goes after what Python printed
    sys.stderr.flush()
    try:
        for path, text in texts.items():
            how, target = write_target(path)
            if how == "replace":
                temp = temporary_path(target, len(temps))
                temps[path], target = (temp, target), temp
            with open(os.dup(target) if how == "descriptor" else target, "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)
        for path, (temp, real) in temps.items():
            os.replace(temp, real)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        for temp, _ in temps.values():
            with contextlib.suppress(OSError):  # renamed already, or never made
                os.remove(temp)


def text_lines(text: str) -> list[str]:
    """`text` split only where `open` ends a line (LF, CRLF, CR); str.splitlines() also
    splits at U+0085, U+2028, form feeds and others that may sit inside a value."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines  # a final line end opens no line


def read_rows(rows: list, n_cells: int, feat_idx: list, label_idx: int):
    """(features, stripped labels) of table rows read by numpy's C reader, or None where a row
    has other than `n_cells` cells or an empty label, or numpy refuses a feature cell; every
    cell numpy reads, `float()` reads after `.strip()` to the same value."""
    if any(row.count(",") != n_cells - 1 for row in rows):
        return None  # checked first: `usecols` ignores extra cells
    right = n_cells - 1 - label_idx  # cells after the label
    labels = [row.rsplit(",", right + 1)[-right - 1].strip() for row in rows]
    if not all(labels):
        return None
    try:
        # comments=None: the default "#" would cut `1.5#2` to 1.5
        features = np.loadtxt(rows, delimiter=",", usecols=feat_idx, comments=None, ndmin=2)
    except ValueError:  # a cell only `float()` reads (`1_000`, non-ASCII digits) or none does
        return None
    return features, labels


def parse_rows(path, linenos: list, rows: list, n_cells: int, feat_idx: list,
               label_idx: int):
    """(features, stripped labels) of table rows, one `float()` per feature cell; the first
    row with other than `n_cells` cells, an empty label or an unreadable cell raises
    InputError at its line number."""
    features = np.empty((len(rows), len(feat_idx)))
    raw_labels = []
    for lineno, line in zip(linenos, rows):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != n_cells:
            raise InputError(f"{path}:{lineno}: expected {n_cells} cells, got {len(cells)}")
        if not cells[label_idx]:
            raise InputError(f"{path}:{lineno}: empty label")
        try:
            features[len(raw_labels)] = [float(cells[i]) for i in feat_idx]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        raw_labels.append(cells[label_idx])
    return features, raw_labels


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
    lines = text_lines(read_text(path))
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

    numbered = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2)
                if line.strip()]
    if not numbered:
        raise InputError(f"{path}:2: no data rows")
    linenos, rows = (list(column) for column in zip(*numbered))
    # the per-row loop reads what numpy refuses and names the first bad row
    features, raw_labels = (read_rows(rows, len(header), feat_idx, label_idx)
                            or parse_rows(path, linenos, rows, len(header), feat_idx, label_idx))

    finite = np.isfinite(features)
    if not finite.all():
        row, col = (int(i[0]) for i in np.nonzero(~finite))
        raise InputError(f"{path}:{linenos[row]}: column {feature_columns[col]!r} is "
                         f"{features[row, col]}, not a finite number")
    if schema is None:
        with np.errstate(over="ignore", invalid="ignore"):  # huge values are checked below
            mean, std = features.mean(axis=0), features.std(axis=0)
        constant = (features == features[0]).all(axis=0)
        mean[constant] = features[0, constant]  # a summed mean can miss the value itself
        schema = TableSchema(tuple(feature_columns), mean, std, tuple(sorted(set(raw_labels))))
    index = {name: i for i, name in enumerate(schema.classes)}
    unseen = sorted(set(raw_labels) - set(index))
    if unseen:
        raise DataError(f"{path}: labels {unseen} not present in the training table")
    labels = np.array([index[name] for name in raw_labels], dtype=np.int64)

    with np.errstate(over="ignore", invalid="ignore"):
        features = (features - schema.mean) / np.maximum(schema.std, VARIANCE_CLAMP)
    finite = np.isfinite(schema.mean) & np.isfinite(schema.std) & np.isfinite(features).all(axis=0)
    if not finite.all():
        raise InputError(f"{path}: column {feature_columns[np.argmin(finite)]!r} holds values "
                         "too large to standardize")
    return Dataset(features, labels, len(schema.classes)), schema
