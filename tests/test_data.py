"""Dataset tests: blob geometry against a Monte-Carlo nearest-center oracle,
subsampling against hypergeometric bounds, and the table loader against
two-pass statistics."""

import re
from math import inf, nan

import numpy as np
import pytest

from expertnet.data import (
    Dataset,
    load_table,
    make_blobs,
    one_hot_batch,
    stratified_split,
    subsample,
)
from expertnet.errors import ConfigurationError, DataError, DimensionError, InputError
from expertnet.harness import read_config
from expertnet.noise import load_matrix_csv


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


def test_load_table_constant_column_becomes_zeros(tmp_path):
    path = _write(tmp_path, "t.csv", "a,b,label\n5.0,1.0,x\n5.0,2.0,x\n5.0,3.0,y\n")
    ds, _ = load_table(path, "label")
    np.testing.assert_array_equal(ds.features[:, 0], np.zeros(3))


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
     "given labels must match true labels in length"),
    (lambda: Dataset(np.zeros((3, 1)), [0, 0, 1], 2, given_labels=[0, 1, 2]), DataError,
     "given label out of range [0, 2)"),
    (lambda: stratified_split(make_blobs(2, 3, 2, 5.0, 1.0, seed=0), 0), ConfigurationError,
     "per_class must be >= 1, got 0"),
], ids=["1-D features", "given-label length", "given-label range", "per_class 0"])
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
], ids=["empty file", "no data rows", "missing feature column", "label column only",
        "label column listed as a feature", "feature column listed twice", "empty label"])
def test_load_table_rejects_an_unusable_table(tmp_path, text, columns, message):
    path = _write(tmp_path, "t.csv", text)
    with pytest.raises(InputError, match=re.escape(message)):
        load_table(path, "label", columns)


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
