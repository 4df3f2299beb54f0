"""Dataset tests: blob geometry against a Monte-Carlo nearest-center oracle,
subsampling against hypergeometric bounds, and the table loader against
two-pass statistics."""

import ast
import builtins
import errno
import os
import pathlib
import re
import stat
import threading
import warnings
from math import inf, nan

import numpy as np
import pytest

import expertnet.data as data_mod
from expertnet.baselines import bootstrap_target
from expertnet.data import (
    Dataset,
    check_labels,
    load_table,
    make_blobs,
    one_hot_batch,
    stratified_split,
    subsample,
    write_files,
)
from expertnet.errors import ConfigurationError, DataError, DimensionError, InputError
from expertnet.harness import read_config
from expertnet.model import build_expertnet, expert_input, train_step
from expertnet.noise import (
    corrupt_labels,
    empirical_matrix,
    load_matrix_csv,
    save_matrix_csv,
    symmetric_matrix,
)


def test_make_blobs_shape_and_balance():
    ds = make_blobs(5, 40, 7, separation=6.0, spread=1.0, seed=3)
    assert ds.n == 200 and ds.dim == 7 and ds.n_classes == 5
    counts = np.bincount(ds.true_labels, minlength=5)
    np.testing.assert_array_equal(counts, [40] * 5)


def test_make_blobs_determinism():
    a = make_blobs(3, 10, 4, 5.0, 1.0, seed=11)
    b = make_blobs(3, 10, 4, 5.0, 1.0, seed=11)
    np.testing.assert_array_equal(a.features, b.features)
    c = make_blobs(3, 10, 4, 5.0, 1.0, seed=12)
    assert not np.array_equal(a.features, c.features)


def test_make_blobs_tiny_spread_is_nearest_center_separable():
    ds = make_blobs(4, 25, 6, separation=5.0, spread=1e-9, seed=7)
    centers = np.stack([ds.features[ds.true_labels == c].mean(axis=0) for c in range(4)])
    dists = ((ds.features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(np.argmin(dists, axis=1), ds.true_labels)


def test_make_blobs_nearest_center_oracle_at_separation_8():
    # train/held-out split from one draw; class means estimate the centers,
    # the held-out 10^4 samples score >= 0.999 under the nearest-center rule
    ds = make_blobs(4, 5000, 16, separation=8.0, spread=1.0, seed=17)
    fit, held = stratified_split(ds, 2500)
    assert held.n == 10_000
    centers = np.stack([fit.features[fit.true_labels == c].mean(axis=0) for c in range(4)])
    dists = ((held.features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    accuracy = np.mean(np.argmin(dists, axis=1) == held.true_labels)
    assert accuracy >= 0.999


def test_make_blobs_validation():
    with pytest.raises(ConfigurationError):
        make_blobs(1, 10, 4, 5.0, 1.0, seed=0)
    with pytest.raises(ConfigurationError):
        make_blobs(3, 10, 4, -5.0, 1.0, seed=0)
    for separation, spread in ((nan, 1.0), (inf, 1.0), (5.0, nan), (5.0, inf)):
        with pytest.raises(ConfigurationError, match="finite and above 0"):
            make_blobs(3, 5, 2, separation, spread, seed=0)


def test_subsample_full_fraction_is_identity():
    ds = make_blobs(3, 20, 4, 5.0, 1.0, seed=2)
    sub = subsample(ds, 1.0, seed=9)
    np.testing.assert_array_equal(sub.features, ds.features)
    np.testing.assert_array_equal(sub.true_labels, ds.true_labels)


def test_subsample_exact_count():
    features = np.zeros((50_000, 2))
    labels = np.zeros(50_000, dtype=int)
    ds = Dataset(features, labels, n_classes=2)
    assert subsample(ds, 0.2, seed=1).n == 10_000


def test_subsample_preserves_order_and_is_idempotent():
    ds = make_blobs(4, 50, 3, 5.0, 1.0, seed=21)
    sub = subsample(ds, 0.5, seed=33)
    # order preserved: label sequence is a subsequence of the class-blocked parent
    assert np.all(np.diff(sub.true_labels) >= 0)
    again = subsample(sub, 1.0, seed=99)
    np.testing.assert_array_equal(again.features, sub.features)


def test_subsample_per_class_counts_within_hypergeometric_band():
    k, per_class = 4, 5000
    n = k * per_class
    ds = make_blobs(k, per_class, 2, 5.0, 1.0, seed=5)
    sub = subsample(ds, 0.5, seed=8)
    m = sub.n
    mean = m * per_class / n
    var = m * (per_class / n) * (1 - per_class / n) * (n - m) / (n - 1)
    band = 4.0 * np.sqrt(var)
    counts = np.bincount(sub.true_labels, minlength=k)
    assert np.all(np.abs(counts - mean) < band)


def test_subsample_validation():
    ds = make_blobs(2, 5, 2, 5.0, 1.0, seed=1)
    with pytest.raises(ConfigurationError):
        subsample(ds, 0.0, seed=0)
    with pytest.raises(ConfigurationError):
        subsample(ds, 0.01, seed=0)  # rounds to zero samples


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("call", [
    lambda seed: make_blobs(3, 5, 2, 3.0, 1.0, seed=seed),
    lambda seed: subsample(make_blobs(2, 5, 2, 5.0, 1.0, seed=1), 0.5, seed=seed),
    lambda seed: corrupt_labels(np.arange(3), symmetric_matrix(3, 0.2), seed),
], ids=["make_blobs", "subsample", "corrupt_labels"])
def test_seeds_outside_64_bits_are_rejected_not_aliased(call, seed):
    with pytest.raises(ConfigurationError, match=re.escape(f"in [0, 2**64), got {seed}")):
        call(seed)


def test_subsample_carries_given_labels():
    ds = make_blobs(3, 20, 2, 5.0, 1.0, seed=6)
    noisy = ds.with_given((ds.true_labels + 1) % 3)
    sub = subsample(noisy, 0.5, seed=2)
    np.testing.assert_array_equal(sub.given_labels, (sub.true_labels + 1) % 3)


def test_one_hot_basic():
    np.testing.assert_array_equal(one_hot_batch([0, 2], 3), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(DataError):
        one_hot_batch([3], 3)
    with pytest.raises(DataError):
        one_hot_batch([-1], 3)


def test_one_hot_round_trip_exhaustive():
    k = 1000
    for c in range(k):
        assert int(np.argmax(one_hot_batch([c], k)[0])) == c
    batch = one_hot_batch(np.arange(k), k)
    np.testing.assert_array_equal(np.argmax(batch, axis=1), np.arange(k))
    np.testing.assert_array_equal(batch.sum(axis=1), np.ones(k))


@pytest.mark.parametrize("bad", [0.5, 1.7, nan, inf, -inf])
@pytest.mark.parametrize("call, what", [
    (lambda y: one_hot_batch([0, y], 2), "label"),
    (lambda y: Dataset(np.zeros((2, 1)), [0, y], 2), "true label"),
    (lambda y: Dataset(np.zeros((2, 1)), [0, 1], 2, given_labels=[0, y]), "given label"),
    (lambda y: Dataset(np.zeros((2, 1)), [0, 1], 2).with_given([0, y]), "given label"),
    (lambda y: corrupt_labels([0, y], symmetric_matrix(2, 0.2), 0), "label"),
    (lambda y: empirical_matrix([0, y], [0, 1], 2), "true label"),
    (lambda y: empirical_matrix([0, 1], [0, y], 2), "given label"),
    (lambda y: expert_input([[0.5, 0.5], [0.5, 0.5]], [0, y]), "label"),
    (lambda y: bootstrap_target(np.full((2, 2), 0.5), [0, y], 0.5), "label"),
], ids=["one_hot_batch", "Dataset true", "Dataset given", "with_given", "corrupt_labels",
        "empirical_matrix true", "empirical_matrix given", "expert_input", "bootstrap_target"])
def test_a_label_that_is_not_a_whole_number_is_rejected_silently(call, what, bad, capfd):
    """A class label is a whole number: truncating 1.7 to class 1 would train on a label
    nobody gave, and a NaN cast to int64 is an arbitrary class."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"^{what} must be a whole number$"):
            call(bad)
    assert capfd.readouterr().err == ""


def test_check_labels_passes_whole_labels_and_an_int64_array_uncopied():
    for labels in ([0.0, 1.0], np.array([0, 1], dtype=np.int32), np.array([False, True])):
        out = check_labels(labels, 2)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [0, 1])
    labels = np.array([1, 0])
    assert check_labels(labels, 2) is labels
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # never cast before the range check
        for huge in ([1e300], np.array([2**64 - 1], dtype=np.uint64)):
            with pytest.raises(DataError, match=re.escape("label out of range [0, 2)")):
                check_labels(huge, 2)


def test_dataset_is_immutable_and_validated():
    ds = make_blobs(2, 5, 2, 5.0, 1.0, seed=1)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), n_classes=3)
    with pytest.raises(DimensionError):
        Dataset(np.zeros((2, 2)), np.array([0]), n_classes=2)
    given = ds.with_given(np.zeros(ds.n, dtype=int))
    assert given.given_labels is not None and ds.given_labels is None


def test_stratified_split_counts_and_order():
    ds = make_blobs(3, 30, 2, 5.0, 1.0, seed=4)
    first, rest = stratified_split(ds, 20)
    assert first.n == 60 and rest.n == 30
    np.testing.assert_array_equal(np.bincount(first.true_labels), [20, 20, 20])
    np.testing.assert_array_equal(np.bincount(rest.true_labels), [10, 10, 10])
    with pytest.raises(ConfigurationError):
        stratified_split(ds, 30)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_table_two_rows_exact(tmp_path):
    path = _write(tmp_path, "t.csv", "a,b,label\n1.0,10.0,x\n3.0,30.0,y\n")
    ds, schema = load_table(path, "label")
    # mean (2, 20), std (1, 10): rows normalize to -/+1 exactly
    np.testing.assert_array_equal(ds.features, [[-1.0, -1.0], [1.0, 1.0]])
    assert schema.classes == ("x", "y")
    np.testing.assert_array_equal(ds.true_labels, [0, 1])


@pytest.mark.parametrize("value, rows", [("5.0", 3), ("0.1", 3), ("7.7", 1000)])
def test_load_table_constant_column_becomes_zeros(tmp_path, value, rows):
    # a summed mean of 0.1 x 3 or 7.7 x 1000 is not the value itself
    body = "".join(f"{value},{i}.0,{'y' if i == rows else 'x'}\n" for i in range(1, rows + 1))
    path = _write(tmp_path, "t.csv", "a,b,label\n" + body)
    ds, schema = load_table(path, "label")
    np.testing.assert_array_equal(ds.features[:, 0], np.zeros(rows))
    assert schema.mean[0] == float(value)


def test_load_table_statistics_match_two_pass_oracle(tmp_path):
    rng = np.random.default_rng(15)
    rows = rng.normal(3.0, 2.5, size=(40, 3))
    text = "f1,f2,f3,label\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) + ",c" for row in rows) + "\n"
    path = _write(tmp_path, "t.csv", text)
    _, schema = load_table(path, "label")

    # independent two-pass computation
    oracle_mean = np.array([sum(rows[:, j]) / 40 for j in range(3)])
    oracle_var = np.array([sum((rows[:, j] - oracle_mean[j]) ** 2) / 40 for j in range(3)])
    np.testing.assert_allclose(schema.mean, oracle_mean, atol=1e-10)
    np.testing.assert_allclose(schema.std, np.sqrt(oracle_var), atol=1e-10)


def test_load_table_validation_reuses_training_stats(tmp_path):
    train = _write(tmp_path, "train.csv", "a,label\n1.0,x\n3.0,y\n")
    val = _write(tmp_path, "val.csv", "a,label\n2.0,y\n")
    _, schema = load_table(train, "label")
    ds, _ = load_table(val, "label", schema=schema)
    np.testing.assert_array_equal(ds.features, [[0.0]])  # (2 - 2) / 1
    np.testing.assert_array_equal(ds.true_labels, [1])


def test_load_table_unseen_validation_label(tmp_path):
    train = _write(tmp_path, "train.csv", "a,label\n1.0,x\n3.0,y\n")
    val = _write(tmp_path, "val.csv", "a,label\n2.0,z\n")
    _, schema = load_table(train, "label")
    with pytest.raises(DataError):
        load_table(val, "label", schema=schema)


def test_load_table_parse_error_reports_line(tmp_path):
    path = _write(tmp_path, "bad.csv", "a,label\n1.0,x\noops,y\n")
    with pytest.raises(InputError, match=":3:"):
        load_table(path, "label")
    short = _write(tmp_path, "short.csv", "a,b,label\n1.0,x\n")
    with pytest.raises(InputError, match=":2:"):
        load_table(short, "label")
    with pytest.raises(InputError, match="no column"):
        load_table(path, "target")
    not_finite = _write(tmp_path, "nan.csv", "a,b,label\n1.0,2.0,x\n\n3.0,nan,y\n")
    with pytest.raises(InputError, match=r"nan.csv:4: column 'b' is nan"):
        load_table(not_finite, "label")


def test_load_table_rejects_a_repeated_column(tmp_path):
    path = _write(tmp_path, "t.csv", "a,a,label\n1.0,2.0,x\n3.0,4.0,y\n")
    with pytest.raises(InputError, match=r"t.csv:1: column 'a' appears twice"):
        load_table(path, "label")


@pytest.mark.parametrize("labels", [
    ["a"], np.array(["1"]), [b"1"], [1 + 0j], np.array([1], dtype=np.complex64),
    np.array([object()]), np.array(["a"], dtype=object), np.array([1 + 0j], dtype=object),
    np.array([10**400], dtype=object), np.array([None]),
    np.array([np.complex128(1 + 2j)], dtype=object), np.array([np.complex128(1)], dtype=object),
], ids=["str", "numeral str", "bytes", "complex", "complex64", "object", "str object",
        "complex object", "huge int object", "None object", "numpy complex object",
        "numpy complex object of no imaginary part"])
def test_a_label_that_is_no_number_is_rejected_silently(labels, capfd):
    """Text and complex labels are no class index, even where numpy would read them as
    floats (`'1'`) or drop an imaginary part with a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^label must be a whole number$"):
            check_labels(labels, 2)
    assert capfd.readouterr().err == ""


def test_a_whole_object_array_passes_as_its_classes():
    out = check_labels(np.array([0, 1.0, True], dtype=object), 2)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, [0, 1, 1])


def _step(given, true):
    model = build_expertnet(1, 2, seed=0, amateur_hidden=(2,), expert_hidden=(2,))
    return train_step(model, np.zeros((2, 1)), given, true, 0.1)


BATCH = [[0.5, 0.5], [0.5, 0.5]]  # two probability rows


@pytest.mark.parametrize("call, bad, message", [
    (lambda y: Dataset(np.zeros((2, 1)), y, 2), [0, 1, 1], "true labels must be one per row of 2"),
    (lambda y: Dataset(np.zeros((2, 1)), [0, 1], 2, given_labels=y), [0],
     "given labels must be one per row of 2"),
    (lambda y: one_hot_batch(y, 2, rows=2), [0, 1, 1], "labels must be one per row of 2"),
    (lambda y: expert_input(BATCH, y), [0], "labels must be one per row of 2"),
    (lambda y: _step(y, [0, 1]), [0, 1, 1], "labels must be one per row of 2"),
    (lambda y: _step([0, 1], y), [0], "labels must be one per row of 2"),
    (lambda y: bootstrap_target(np.array(BATCH), y, 0.5), [0], "labels must be one per row of 2"),
    (lambda y: corrupt_labels(y, symmetric_matrix(2, 0.2), 0), 1, "labels must be one per row"),
    (lambda y: empirical_matrix(y, [0, 1], 2), 1, "true labels must be one per row"),
    (lambda y: empirical_matrix([0, 1], y, 2), [0, 1, 1], "given labels must be one per row of 2"),
], ids=["Dataset true", "Dataset given", "one_hot_batch", "expert_input", "train_step given",
        "train_step true", "bootstrap_target", "corrupt_labels", "empirical_matrix true",
        "empirical_matrix given"])
@pytest.mark.parametrize("two_d", [False, True], ids=["wrong length", "2-D"])
def test_labels_that_are_not_one_per_row_raise_the_one_shape_error(call, bad, message, two_d):
    """Each label array lines up one per row with its batch, checked by `check_labels`; a
    label array that sets the row count itself (`corrupt_labels`, `empirical_matrix`'s true
    labels) can only miss it by not being 1-D, so its "wrong length" is a scalar. The 2-D
    array has one label per row, which `one_hot_batch` used to flatten and accept."""
    bad = np.array([[0], [1]]) if two_d else np.array(bad)
    with pytest.raises(DimensionError, match=f"^{re.escape(f'{message}, got shape {bad.shape}')}$"):
        call(bad)


@pytest.mark.parametrize("call, what", [
    (lambda y: check_labels(y, 3), "labels"),
    (lambda y: Dataset(np.zeros((2, 1)), y, 3), "true labels"),
    (lambda y: Dataset(np.zeros((2, 1)), [0, 1], 3, given_labels=y), "given labels"),
    (lambda y: one_hot_batch(y, 3, rows=2), "labels"),
], ids=["check_labels", "Dataset true", "Dataset given", "one_hot_batch"])
def test_a_ragged_label_list_raises_the_one_shape_error(call, what):
    """numpy cannot shape a ragged list; it is labels that are not one per row."""
    with pytest.raises(DimensionError, match=f"^{what} must be one per row, got a ragged sequence$"):
        call([[0], [1, 2]])


def test_load_table_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError, match="nope.csv: "):
        load_table(tmp_path / "nope.csv", "label")


def test_load_table_reads_validation_columns_by_name(tmp_path):
    train = _write(tmp_path, "train.csv", "a,b,label\n1.0,10.0,x\n3.0,30.0,y\n")
    same = _write(tmp_path, "same.csv", "a,b,label\n2.0,40.0,y\n0.0,20.0,x\n")
    swapped = _write(tmp_path, "swapped.csv", "b,label,a\n40.0,y,2.0\n20.0,x,0.0\n")
    _, schema = load_table(train, "label")
    ds, _ = load_table(same, "label", schema=schema)
    np.testing.assert_array_equal(ds.features, [[0.0, 2.0], [-2.0, 0.0]])
    np.testing.assert_array_equal(ds.true_labels, [1, 0])
    other, used = load_table(swapped, "label", schema=schema)
    np.testing.assert_array_equal(other.features, ds.features)
    np.testing.assert_array_equal(other.true_labels, ds.true_labels)
    assert used is schema


def test_load_table_validation_without_a_training_column(tmp_path):
    train = _write(tmp_path, "train.csv", "a,b,label\n1.0,10.0,x\n3.0,30.0,y\n")
    val = _write(tmp_path, "val.csv", "b,c,label\n20.0,5.0,x\n")
    _, schema = load_table(train, "label")
    with pytest.raises(InputError, match=re.escape(f"{val}:1: missing feature columns ['a']")):
        load_table(val, "label", schema=schema)


def test_load_table_takes_columns_or_a_schema_not_both(tmp_path):
    path = _write(tmp_path, "t.csv", "a,b,label\n1.0,10.0,x\n3.0,30.0,y\n")
    _, schema = load_table(path, "label")
    with pytest.raises(ConfigurationError, match="feature_columns or a schema, not both"):
        load_table(path, "label", ["a"], schema=schema)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Dataset(np.zeros(3), [0, 0, 1], 2), DimensionError,
     "features must be 2-D, got shape (3,)"),
    (lambda: Dataset(np.zeros((3, 1)), [0, 0, 1], 2, given_labels=[0, 1]), DimensionError,
     "given labels must be one per row of 3, got shape (2,)"),
    (lambda: Dataset(np.zeros((3, 1)), [0, 0, 1], 2, given_labels=[0, 1, 2]), DataError,
     "given label out of range [0, 2)"),
    (lambda: stratified_split(make_blobs(2, 3, 2, 5.0, 1.0, seed=0), 0), ConfigurationError,
     "per_class must be >= 1, got 0"),
    (lambda: make_blobs(3, 5, 2, 5.0, 1e308, seed=0), ConfigurationError,
     "separation 5.0 and spread 1e+308 give features beyond float range"),
], ids=["1-D features", "given-label length", "given-label range", "per_class 0",
        "blobs beyond float range"])
def test_dataset_and_split_reject_unusable_arguments(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("text, columns, message", [
    ("", None, "t.csv:1: empty file"),
    ("a,b,label\n\n", None, "t.csv:2: no data rows"),
    ("a,b,label\n1.0,2.0,x\n", ["a", "c"], "t.csv:1: missing feature columns ['c']"),
    ("label\nx\ny\n", None, "t.csv:1: no feature columns besides 'label'"),
    ("a,label\n1.0,0\n2.0,1\n", ["a", "label"],
     "t.csv:1: label column 'label' is listed as a feature"),
    ("a,label\n1.0,x\n2.0,y\n", ["a", "a"], "t.csv:1: column 'a' is listed twice"),
    ("a,label\n1.0,x\n2.0,\n3.0,x\n4.0,y\n", None, "t.csv:3: empty label"),
    ("a,b,label\n1.0,1e308,x\n2.0,1e308,y\n3.0,-1e308,x\n4.0,5,y\n", None,
     "t.csv: column 'b' holds values too large to standardize"),
    ("a,b,label\n1.0,2.0,x\n\n3.0,1.5#2,y\n", None,
     "t.csv:4: could not convert string to float: '1.5#2'"),
    ("a,label\n1.0,x\n\n2.0,y,3.0\n", None, "t.csv:4: expected 2 cells, got 3"),
], ids=["empty file", "no data rows", "missing feature column", "label column only",
        "label column listed as a feature", "feature column listed twice", "empty label",
        "values too large to standardize", "a number then a hash", "an extra cell"])
def test_load_table_rejects_an_unusable_table(tmp_path, text, columns, message):
    path = _write(tmp_path, "t.csv", text)
    with pytest.raises(InputError, match=re.escape(message)):
        load_table(path, "label", columns)


@pytest.mark.parametrize("cell, value", [
    ("1_000", 1000.0), ("\u0661", 1.0), ("\uff11.\uff15", 1.5), ("\u30002.5\x1c", 2.5),
], ids=["underscore", "arabic-indic digit", "fullwidth digits", "unicode spaces"])
def test_load_table_reads_a_cell_as_float_reads_it_stripped(tmp_path, cell, value):
    """numpy's reader refuses underscores and non-ASCII digits; the table loads to the bytes
    of the same table with the number written plainly."""
    loaded = [load_table(_write(tmp_path, f"{name}.csv",
                                f"a,b,label\n{text},0.5,x\n\n3.0,-1.0,y\n4.0,2.0,x\n"),
                         "label")
              for name, text in (("cell", cell), ("plain", repr(value)))]
    (ds, schema), (plain, plain_schema) = loaded
    assert ds.features.tobytes() == plain.features.tobytes()
    assert schema.mean.tobytes() == plain_schema.mean.tobytes()
    assert schema.std.tobytes() == plain_schema.std.tobytes()
    np.testing.assert_array_equal(ds.true_labels, [0, 1, 0])


def test_load_table_ends_lines_only_at_line_ends(tmp_path):
    # U+0085 inside a cell is part of the label, not a line break
    path = _write(tmp_path, "t.csv", "a,label\r\n1.0,x\x85y\r2.0,z\n")
    ds, schema = load_table(path, "label")
    assert schema.classes == ("x\x85y", "z")
    np.testing.assert_array_equal(ds.true_labels, [0, 1])


@pytest.mark.parametrize("text, read", [
    ("label,a,b\nx,1.0,2.0\ny,3.0,4.0\n", lambda path: load_table(path, "label")[0].n),
    ("0.75,0.25\n0.5,0.5\n", lambda path: load_matrix_csv(path)[0, 0]),
    ("epochs = 3\n", lambda path: read_config(path).epochs),
], ids=["table", "matrix", "config"])
def test_a_byte_order_mark_is_ignored(tmp_path, text, read):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(str(marked)) == read(str(plain))


@pytest.mark.parametrize("write", [
    lambda path: write_files({path: "text\n"}),
    lambda path: save_matrix_csv(symmetric_matrix(2, 0.2), path),
], ids=["text", "matrix"])
def test_a_write_that_fails_names_the_path(tmp_path, monkeypatch, write):
    def full_disk(file, mode="r", *args, **kwargs):
        if mode == "w":
            raise OSError(errno.ENOSPC, "No space left on device")
        return builtins.open(file, mode, *args, **kwargs)

    path = tmp_path / "out.txt"
    write(path)
    assert path.read_bytes()
    monkeypatch.setattr(data_mod, "open", full_disk, raising=False)
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"cannot write {path}: No space left on device")):
        write(path)


def test_a_name_near_the_length_limit_is_written_with_a_new_file_mode(tmp_path):
    """The temporary's name stays within 255 bytes; the file gets `open`'s mode."""
    path = tmp_path / ("x" * 246 + ".csv")  # 250 bytes
    matrix = symmetric_matrix(2, 0.2)
    save_matrix_csv(matrix, path)
    np.testing.assert_array_equal(load_matrix_csv(path), matrix)
    with open(tmp_path / "plain", "w", encoding="utf-8"):
        pass
    new_file, plain = (stat.S_IMODE(os.stat(p).st_mode) for p in (path, tmp_path / "plain"))
    assert new_file == plain
    assert {p.name for p in tmp_path.iterdir()} == {path.name, "plain"}  # no temporary left


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_fifo_is_written_in_place(tmp_path):
    matrix = symmetric_matrix(2, 0.2)
    save_matrix_csv(matrix, tmp_path / "plain.csv")
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    save_matrix_csv(matrix, fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [(tmp_path / "plain.csv").read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)



@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_a_pipe_named_by_its_descriptor_is_written_in_place():
    """`--save /dev/stdout` into a pipe: the link resolves to a name no directory holds."""
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as reader, os.fdopen(write_end, "wb") as writer:
        write_files({f"/proc/self/fd/{writer.fileno()}": "text\n"})
        writer.close()
        assert reader.read() == b"text\n"

@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_a_file_named_by_its_descriptor_is_written_at_its_offset(tmp_path):
    """`--save /dev/stdout > file`: the text lands after what was printed, in the same file."""
    path = tmp_path / "out.txt"
    with open(path, "w", encoding="utf-8") as fh:
        inode = os.fstat(fh.fileno()).st_ino
        fh.write("printed\n")
        fh.flush()
        write_files({f"/proc/self/fd/{fh.fileno()}": "saved\n"})
        fh.write("printed after\n")
    assert os.stat(path).st_ino == inode
    assert path.read_text(encoding="utf-8") == "printed\nsaved\nprinted after\n"


def test_an_empty_path_is_rejected_before_any_temporary_is_made(tmp_path, monkeypatch):
    """`realpath("")` names the current directory; the writer must not read it that way."""
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(file)
        return builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(data_mod, "open", recording_open, raising=False)
    with pytest.raises(ConfigurationError,
                       match="^" + re.escape("cannot write : No such file or directory") + "$"):
        write_files({"": "x"})
    assert opened == [] and os.listdir(tmp_path) == ["cwd"] and os.listdir() == []


@pytest.mark.parametrize("path", ["/dev/fd/99999999999999999999", "a\0b"],
                         ids=["descriptor-beyond-any", "nul-byte"])
def test_a_path_that_names_no_possible_file_is_a_configuration_error(path):
    with pytest.raises(ConfigurationError, match=re.escape(f"cannot write {path}: ")):
        save_matrix_csv(symmetric_matrix(2, 0.2), path)


def _writes(call: ast.Call) -> bool:
    """Whether a call opens a file to write, append, create or update, or renames one."""
    func = call.func
    owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if owner == "os" and name in ("replace", "rename", "renames"):
        return True
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    at = 0 if owner not in (None, "io", "builtins") else 1  # Path.open(mode) vs open(file, mode)
    mode = call.args[at] if len(call.args) > at else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode only known at run time may write
    return bool(set(mode.value) & set("wax+"))


@pytest.mark.parametrize("source, writes", [
    ('open(p, "w")', True), ('open(p, mode="a", encoding="utf-8")', True),
    ('io.open(p, "xb")', True), ('open(p, "r+")', True), ("open(p, m)", True),
    ('p.open("w")', True), ("os.replace(a, b)", True), ("os.rename(a, b)", True),
    ("p.write_text(t)", True),
    ("open(p)", False), ('open(p, encoding="utf-8-sig")', False), ('open(p, "rb")', False),
    ('p.open("r")', False), ("os.remove(p)", False), ("text.replace(a, b)", False),
])
def test_the_writer_check_reads_a_call(source, writes):
    assert _writes(ast.parse(source).body[0].value) is writes


def _creates_a_new_file(call: ast.Call) -> bool:
    """Whether a call is `os.open(path, flags)` with O_CREAT and O_EXCL in its flags, which
    makes a new empty file and fails on any existing one."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
            and func.attr == "open" and len(call.args) > 1):
        return False
    return {"O_CREAT", "O_EXCL"} <= {getattr(n, "attr", None) for n in ast.walk(call.args[1])}


@pytest.mark.parametrize("source, creates", [
    ("os.open(p, os.O_WRONLY | os.O_CREAT | os.O_EXCL)", True),
    ("os.open(p, os.O_WRONLY | os.O_CREAT)", False), ("os.open(p, os.O_EXCL)", False),
    ("os.open(p, flags)", False), ('open(p, "x")', False),
])
def test_the_new_file_check_reads_a_call(source, creates):
    assert _creates_a_new_file(ast.parse(source).body[0].value) is creates


def test_only_write_files_opens_a_file_for_writing_or_renames_one():
    """Every file the package writes goes through `data.write_files`; a second write
    path would bring back a policy it replaced (in-place writes, a link replaced).
    `data.write_target` may only make a new empty file, which proves that a directory
    takes one and can touch no existing file."""
    offenders = []
    for path in sorted(pathlib.Path(data_mod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in tree.body:
            if path.name == "data.py" and getattr(node, "name", None) == "write_files":
                allowed |= {id(n) for n in ast.walk(node)}
            if path.name == "data.py" and getattr(node, "name", None) == "write_target":
                allowed |= {id(n) for n in ast.walk(node)
                            if isinstance(n, ast.Call) and _creates_a_new_file(n)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and id(node) not in allowed and _writes(node)]
    assert offenders == []


@pytest.mark.parametrize("write", [
    lambda path: write_files({path: "1.0,0.0\n0.0,1.0\n"}),
    lambda path: save_matrix_csv(np.eye(2), path),
], ids=["write_files", "save_matrix_csv"])
def test_a_bytes_path_is_written(tmp_path, write):
    write(os.fsencode(tmp_path / "m.csv"))
    np.testing.assert_array_equal(load_matrix_csv(tmp_path / "m.csv"), np.eye(2))


def _tests_the_label_range(node: ast.AST) -> bool:
    """`X.min() < 0` or `X.max() >= Y`, the range test of a class label."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(isinstance(left, ast.Call) and isinstance(left.func, ast.Attribute)
               and (left.func.attr == "min" and isinstance(op, ast.Lt)
                    and isinstance(right, ast.Constant) and right.value == 0
                    or left.func.attr == "max" and isinstance(op, ast.GtE))
               for left, op, right in zip(operands, node.ops, operands[1:]))


@pytest.mark.parametrize("source, tests", [
    ("y.min() < 0", True), ("y.max() >= k", True), ("0 <= y.min() < 0", True),
    ("y.min() <= 0", False), ("y.min() < 1", False), ("y.max() > k", False),
    ("min(y) < 0", False), ("abs(d).max() >= tol", True),
])
def test_the_label_range_check_reads_a_comparison(source, tests):
    assert _tests_the_label_range(ast.parse(source, mode="eval").body) is tests


def test_only_check_labels_tests_the_label_range():
    """`data.check_labels` is the one label rule; a second range test would come back with
    its own view of which labels are whole and which are in range."""
    offenders = []
    for path in sorted(pathlib.Path(data_mod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in tree.body:
            if path.name == "data.py" and getattr(node, "name", None) == "check_labels":
                allowed |= {id(n) for n in ast.walk(node)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if id(node) not in allowed and _tests_the_label_range(node)]
    assert offenders == []


def _tests_a_label_shape(node: ast.AST) -> bool:
    """`X.ndim` compared with 1 or `X.shape` with a one-element tuple, the shape test of a
    label array."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(isinstance(attr, ast.Attribute)
               and (attr.attr == "ndim" and isinstance(other, ast.Constant) and other.value == 1
                    or attr.attr == "shape" and isinstance(other, ast.Tuple)
                    and len(other.elts) == 1)
               for left, right in zip(operands, operands[1:])
               for attr, other in ((left, right), (right, left)))


@pytest.mark.parametrize("source, tests", [
    ("y.ndim != 1", True), ("1 == y.ndim", True), ("y.shape != (n,)", True),
    ("(len(x),) == y.shape", True), ("y.ndim != 2", False), ("y.shape != x.shape", False),
    ("y.shape != (n, k)", False), ("y.size == 1", False), ("y.shape[0] != 1", False),
])
def test_the_label_shape_check_reads_a_comparison(source, tests):
    assert _tests_a_label_shape(ast.parse(source, mode="eval").body) is tests


def _functions(tree: ast.Module):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def test_only_check_labels_tests_the_label_shape():
    """`data.check_labels` is the one shape rule for label arrays: a second test of a 1-D
    array would bring back its own message and error class. `model.accuracy` scores arrays
    that are not class labels yet and keeps its own test, as `Dense` does for its bias."""
    allowed_functions = {"data.check_labels", "model.accuracy", "nn.Dense.__init__"}
    offenders = []
    for path in sorted(pathlib.Path(data_mod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for name, fn in _functions(tree)
                   if f"{path.stem}.{name}" in allowed_functions for node in ast.walk(fn)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if id(node) not in allowed and _tests_a_label_shape(node)]
    assert offenders == []


def test_only_data_decides_whether_a_path_can_be_written():
    """`data.write_target` is the one writability rule: no other module matches a descriptor
    path or reads a directory's name limit, which would be a second, diverging rule."""
    offenders = []
    for path in sorted(pathlib.Path(data_mod.__file__).parent.glob("*.py")):
        if path.name != "data.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [f"{path.name}:{getattr(node, 'lineno', '?')}" for node in ast.walk(tree)
                          if {getattr(node, key, None) for key in ("id", "attr", "name")}
                          & {"DESCRIPTOR_PATH", "pathconf"}]
    assert offenders == []
