"""Label-noise engine.

Builds row-stochastic transition matrices, corrupts label sequences with a
seeded stream, and estimates empirical transition matrices from (true, given)
label pairs.
"""

from __future__ import annotations

import warnings

import numpy as np

from .data import check_array_size, check_labels, read_text, text_lines, write_files
from .errors import ConfigurationError, DataError, DimensionError, InputError
from .seeding import derive_rng

ROW_SUM_TOL = 1e-9


def validate_transition_matrix(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"transition matrix must be square, got shape {matrix.shape}")
    if np.any(matrix < 0.0) or np.any(matrix > 1.0):
        raise ConfigurationError("transition matrix entries must lie in [0, 1]")
    if not np.allclose(matrix.sum(axis=1), 1.0, rtol=0.0, atol=ROW_SUM_TOL):
        raise ConfigurationError("transition matrix rows must sum to 1")
    return matrix


def symmetric_matrix(n_classes: int, ratio: float) -> np.ndarray:
    """Flip with probability `ratio`, uniformly onto the other classes."""
    if n_classes < 2:
        raise ConfigurationError(f"need at least 2 classes, got {n_classes}")
    if not 0.0 <= ratio < 1.0:
        raise ConfigurationError(f"noise ratio must be in [0, 1), got {ratio}")
    check_array_size(f"{n_classes} classes", n_classes, n_classes)
    off = ratio / (n_classes - 1)
    matrix = np.full((n_classes, n_classes), off)
    np.fill_diagonal(matrix, 1.0 - ratio)
    return matrix


def corrupt_labels(true_labels, matrix, seed: int) -> np.ndarray:
    """Draw each given label from the row of the transition matrix for its true class.

    The class count is the matrix size.  Deterministic per (labels, matrix,
    seed): one uniform variate per sample, mapped through the row's
    cumulative distribution.
    """
    matrix = validate_transition_matrix(matrix)
    n_classes = matrix.shape[0]
    labels = np.asarray(true_labels)
    if labels.ndim != 1:
        raise DataError(f"labels must be 1-D, got shape {labels.shape}")
    labels = check_labels(labels, n_classes)
    cumulative = np.cumsum(matrix, axis=1)
    cumulative[:, -1] = 1.0  # guard against rounding in the final bin
    u = derive_rng(seed).random(labels.size)
    given = (u[:, None] >= cumulative[labels]).sum(axis=1)
    return given.astype(np.int64)


def empirical_matrix(true_labels, given_labels, n_classes: int) -> np.ndarray:
    """Row i = frequencies of given labels among samples whose true class is i.

    Rows with no samples are returned uniform; a warning flags them.
    """
    t, g = np.asarray(true_labels), np.asarray(given_labels)
    if t.shape != g.shape or t.ndim != 1:
        raise DataError(f"label sequences must be equal-length 1-D, got {t.shape} and {g.shape}")
    t, g = check_labels(t, n_classes, "true label"), check_labels(g, n_classes, "given label")
    counts = np.zeros((n_classes, n_classes))
    np.add.at(counts, (t, g), 1.0)
    support = counts.sum(axis=1)
    empty = support == 0
    if np.any(empty):
        warnings.warn(
            f"no samples for true classes {np.flatnonzero(empty).tolist()}; rows set uniform",
            stacklevel=2,
        )
        counts[empty] = 1.0
        support[empty] = n_classes
    return counts / support[:, None]


def save_matrix_csv(matrix, path) -> None:
    matrix = validate_transition_matrix(matrix)
    write_files({path: "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)})


def load_matrix_csv(path) -> np.ndarray:
    """K lines of K comma-separated entries; a bad cell, row or matrix raises InputError."""
    rows = []
    for lineno, line in enumerate(text_lines(read_text(path)), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            raise InputError(f"{path}:{lineno}: expected numbers, got {line.strip()!r}") from None
        if len(rows[-1]) != len(rows[0]):
            raise InputError(f"{path}:{lineno}: expected {len(rows[0])} entries, "
                             f"got {len(rows[-1])}")
    try:
        return validate_transition_matrix(np.array(rows))
    except (ConfigurationError, DimensionError) as exc:
        raise InputError(f"{path}: {exc}") from None
