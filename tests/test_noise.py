"""Noise-engine tests: rational-arithmetic row sums, binomial flip-rate bands,
and independent tallies for the empirical matrix."""

import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertnet.errors import ConfigurationError, DataError, InputError
from expertnet.noise import (
    corrupt_labels,
    empirical_matrix,
    load_matrix_csv,
    save_matrix_csv,
    symmetric_matrix,
    validate_transition_matrix,
)
from expertnet.seeding import derive_rng


def rational_symmetric_matrix(n_classes, ratio):
    """Exact-rational mirror of the symmetric construction."""
    rho = Fraction(ratio)  # exact value of the float
    off = rho / (n_classes - 1)
    return [[1 - rho if i == j else off for j in range(n_classes)]
            for i in range(n_classes)]


def test_symmetric_matrix_no_noise_is_identity():
    np.testing.assert_array_equal(symmetric_matrix(10, 0.0), np.eye(10))


def test_symmetric_matrix_two_classes():
    np.testing.assert_allclose(symmetric_matrix(2, 0.4), [[0.6, 0.4], [0.4, 0.6]], atol=1e-15)


def test_symmetric_matrix_rational_row_sums():
    matrix = symmetric_matrix(10, 0.2)
    exact = rational_symmetric_matrix(10, 0.2)
    for row in exact:
        assert sum(row) == 1  # exactly, in rational arithmetic
    # float entries are the correctly rounded images of the exact entries
    for i in range(10):
        for j in range(10):
            assert matrix[i, j] == float(exact[i][j])
    assert np.all(matrix.diagonal() == 1.0 - 0.2)
    off = matrix[~np.eye(10, dtype=bool)]
    assert np.all(off == 0.2 / 9)


def test_symmetric_matrix_validation():
    with pytest.raises(ConfigurationError):
        symmetric_matrix(1, 0.2)
    with pytest.raises(ConfigurationError):
        symmetric_matrix(4, 1.0)
    with pytest.raises(ConfigurationError):
        symmetric_matrix(4, -0.1)


def test_corrupt_labels_no_noise_is_identity():
    labels = derive_rng(1).integers(0, 7, size=500)
    out = corrupt_labels(labels, symmetric_matrix(7, 0.0), 9)
    np.testing.assert_array_equal(out, labels)


def test_corrupt_labels_one_hot_row_is_deterministic_map():
    # class 0 always becomes class 2, class 1 stays put
    matrix = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    labels = np.array([0, 1, 0, 1, 2, 0])
    out = corrupt_labels(labels, matrix, 4)
    np.testing.assert_array_equal(out, [2, 1, 2, 1, 2, 2])


@st.composite
def labels_and_matrix(draw):
    """A row-stochastic KxK matrix (zero entries allowed) and labels in [0, K)."""
    k = draw(st.integers(2, 6))
    weights = np.array(draw(st.lists(st.lists(st.integers(0, 20), min_size=k, max_size=k),
                                     min_size=k, max_size=k)), dtype=float)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    labels = np.array(draw(st.lists(st.integers(0, k - 1), max_size=300)), dtype=np.int64)
    return labels, weights / weights.sum(axis=1, keepdims=True)


seeds = st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(labels_and_matrix(), seeds)
def test_corrupt_labels_output_is_in_range_and_repeats_per_seed(case, seed):
    labels, matrix = case
    out = corrupt_labels(labels, matrix, seed)
    assert out.shape == labels.shape and out.dtype == np.int64
    assert np.all((out >= 0) & (out < matrix.shape[0]))
    assert np.all(matrix[labels, out] > 0)  # never draws a zero-probability label
    np.testing.assert_array_equal(out, corrupt_labels(labels, matrix, seed))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(lambda k: st.tuples(st.permutations(range(k)),
                                                     st.lists(st.integers(0, k - 1)))),
       seeds)
def test_corrupt_labels_permutation_matrix_is_a_deterministic_map(case, seed):
    target, labels = np.array(case[0]), np.array(case[1], dtype=np.int64)
    matrix = np.eye(len(target))[target]  # row i is one-hot at target[i]
    np.testing.assert_array_equal(corrupt_labels(labels, matrix, seed), target[labels])


def test_corrupt_labels_flip_rate_within_binomial_band():
    n = 10_000
    labels = derive_rng(2).integers(0, 10, size=n)
    for ratio in (0.2, 0.3, 0.4, 0.5):
        out = corrupt_labels(labels, symmetric_matrix(10, ratio), 21)
        realized = np.mean(out != labels)
        band = 3.0 * np.sqrt(ratio * (1.0 - ratio) / n)
        assert abs(realized - ratio) < band


def test_corrupt_labels_seed_determinism_and_independence():
    labels = derive_rng(3).integers(0, 10, size=10_000)
    a = corrupt_labels(labels, symmetric_matrix(10, 0.3), 77)
    np.testing.assert_array_equal(a, corrupt_labels(labels, symmetric_matrix(10, 0.3), 77))
    b = corrupt_labels(labels, symmetric_matrix(10, 0.3), 78)
    # two independent draws from row p differ with prob 1 - sum p_k^2
    p_same = (1 - 0.3) ** 2 + 0.3 ** 2 / 9
    expected = 1.0 - p_same
    realized = np.mean(a != b)
    band = 4.0 * np.sqrt(expected * (1.0 - expected) / labels.size)
    assert abs(realized - expected) < band


def test_corrupt_labels_out_of_range():
    with pytest.raises(DataError):
        corrupt_labels([0, 5], symmetric_matrix(4, 0.1), 0)


def test_empirical_matrix_identity_when_clean():
    labels = derive_rng(4).integers(0, 5, size=200)
    np.testing.assert_array_equal(empirical_matrix(labels, labels, 5), np.eye(5))


def test_empirical_matrix_single_pair():
    true = np.zeros(50, dtype=int)
    given = np.ones(50, dtype=int)
    with pytest.warns(UserWarning):
        matrix = empirical_matrix(true, given, 3)
    np.testing.assert_array_equal(matrix[0], [0.0, 1.0, 0.0])
    # unsupported rows come back uniform
    np.testing.assert_allclose(matrix[1], np.full(3, 1 / 3))
    np.testing.assert_allclose(matrix[2], np.full(3, 1 / 3))


def test_empirical_matrix_against_independent_tally():
    k, per_class = 5, 10_000
    true = np.repeat(np.arange(k), per_class)
    given = corrupt_labels(true, symmetric_matrix(k, 0.3), 5)

    counts = Counter(zip(true.tolist(), given.tolist()))
    tally = np.zeros((k, k))
    for (i, j), c in counts.items():
        tally[i, j] = c
    tally /= tally.sum(axis=1, keepdims=True)

    estimated = empirical_matrix(true, given, k)
    np.testing.assert_allclose(estimated, tally, atol=1e-15)
    assert np.abs(estimated - symmetric_matrix(k, 0.3)).max() < 0.02


def test_empirical_matrix_length_mismatch():
    with pytest.raises(DataError):
        empirical_matrix([0, 1], [0], 2)


def test_constructed_and_estimated_matrices_are_row_stochastic():
    rng = derive_rng(6)
    for _ in range(25):
        k = int(rng.integers(2, 9))
        ratio = float(rng.uniform(0.0, 0.9))
        matrix = symmetric_matrix(k, ratio)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        labels = rng.integers(0, k, size=400)
        est = empirical_matrix(labels, corrupt_labels(labels, symmetric_matrix(k, ratio), 8), k)
        assert np.allclose(est.sum(axis=1), 1.0, atol=1e-9)


def test_composition_converges_to_nominal_matrix():
    k, n = 4, 100_000
    true = np.repeat(np.arange(k), n // k)
    given = corrupt_labels(true, symmetric_matrix(k, 0.25), 123)
    estimated = empirical_matrix(true, given, k)
    assert np.abs(estimated - symmetric_matrix(k, 0.25)).max() < 0.01


def test_matrix_csv_round_trip(tmp_path):
    matrix = symmetric_matrix(6, 0.35)
    path = tmp_path / "matrix.csv"
    save_matrix_csv(matrix, path)
    np.testing.assert_array_equal(load_matrix_csv(path), matrix)


@pytest.mark.parametrize("text, where", [
    ("0.5,0.5\n0.5,abc\n", ":2:"),     # a cell that is not a number
    ("1.0,0.0\n1.0\n", ":2:"),         # a ragged row
    (None, "matrix.csv: "),            # no such file
    ("0.5,0.4\n0.0,1.0\n", "matrix.csv: transition matrix rows must sum to 1"),
    ("", "matrix.csv: transition matrix must be square"),  # empty file
])
def test_load_matrix_csv_input_errors_name_the_file(tmp_path, text, where):
    path = tmp_path / "matrix.csv"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=where):
        load_matrix_csv(path)


def test_load_matrix_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("\n0.75,0.25\n\n0.5,0.5\n  \n", encoding="utf-8")
    np.testing.assert_array_equal(load_matrix_csv(path), [[0.75, 0.25], [0.5, 0.5]])


@pytest.mark.parametrize("call, message", [
    (lambda: corrupt_labels(np.zeros((2, 2)), symmetric_matrix(2, 0.2), 0),
     "labels must be 1-D, got shape (2, 2)"),
    (lambda: empirical_matrix([0, 2], [0, 1], 2), "true label out of range [0, 2)"),
], ids=["2-D labels", "label out of range"])
def test_label_arguments_are_checked(call, message):
    with pytest.raises(DataError, match=re.escape(message)):
        call()


def test_noise_spec_validation():
    with pytest.raises(ConfigurationError):
        corrupt_labels([0, 1], np.array([[0.5, 0.2], [0.0, 1.0]]), 0)
    with pytest.raises(ConfigurationError):
        validate_transition_matrix(np.array([[1.2, -0.2], [0.0, 1.0]]))
