"""Harness tests: grid counting, fair-comparison dataset hashes, byte-level
determinism of emitted CSVs, failed-cell handling, and config parsing."""

import csv
import dataclasses
import errno
import math
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expertnet.harness as harness
from expertnet.data import make_blobs
from expertnet.errors import ConfigurationError, DataError, InputError, NumericError
from expertnet.harness import (
    METHODS,
    BlobsSpec,
    ExperimentConfig,
    FileSpec,
    MethodRun,
    build_cell_datasets,
    cell_seed,
    dataset_hash,
    emit_report,
    grid_records,
    load_source,
    parse_config,
    pivot_name,
    run_grid,
)
from expertnet.model import EpochStats, accuracy
from expertnet.noise import save_matrix_csv, symmetric_matrix


def tiny_config(**kwargs):
    defaults = dict(
        dataset=BlobsSpec(classes=3, dim=4, per_class=25, val_per_class=15,
                          separation=5.0, spread=1.0),
        noise_ratios=(0.2,),
        fractions=(1.0,),
        methods=("expertnet",),
        seeds=(1,),
        epochs=2,
        batch_size=16,
        amateur_hidden=(8,),
        expert_hidden=(8,),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# --- accuracy -------------------------------------------------------------------

def test_accuracy_examples():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 1, 1], [0, 2, 3]) == 0.0
    preds = np.zeros(10_000, dtype=int)
    truth = np.zeros(10_000, dtype=int)
    truth[8923:] = 1  # 8923 correct out of 10000
    assert accuracy(preds, truth) == 0.8923
    with pytest.raises(DataError):
        accuracy([], [])


# --- config parsing -------------------------------------------------------------

CONFIG_TEXT = """
# comment line
schema = 1
dataset = blobs
blobs.classes = 5
blobs.dim = 8
blobs.per_class = 100   # inline comment
blobs.val_per_class = 50
blobs.separation = 3.5
blobs.spread = 0.5
noise_ratios = 0.2, 0.3
fractions = 1.0, 0.5
methods = expertnet, plain-ce, forward
seeds = 7, 8
epochs = 12
batch_size = 32
lr = 0.02
lr_decay_period = 5
expert_terminal = sigmoid
out = /tmp/some_out
"""


def test_parse_config_round_trip():
    config = parse_config(CONFIG_TEXT)
    assert config.dataset == BlobsSpec(5, 8, 100, 50, 3.5, 0.5)
    assert config.noise_ratios == (0.2, 0.3)
    assert config.fractions == (1.0, 0.5)
    assert config.methods == ("expertnet", "plain-ce", "forward")
    assert config.seeds == (7, 8)
    assert config.epochs == 12
    assert config.lr_decay_period == 5
    assert config.expert_terminal == "sigmoid"
    assert config.out == "/tmp/some_out"


def test_parse_config_defaults_and_overrides():
    config = parse_config("", overrides={"epochs": "3", "seeds": "9"})
    assert config.epochs == 3
    assert config.seeds == (9,)
    assert config.dataset == BlobsSpec()
    overridden = parse_config(CONFIG_TEXT, overrides={"epochs": "99"})
    assert overridden.epochs == 99


def test_parse_config_errors():
    with pytest.raises(ConfigurationError):
        parse_config("schema = 2")
    with pytest.raises(ConfigurationError):
        parse_config("unknown_key = 1")
    with pytest.raises(InputError):
        parse_config("not a key value line")
    with pytest.raises(ConfigurationError):
        parse_config("dataset = file")  # missing file.* keys
    with pytest.raises(ConfigurationError):
        parse_config("methods = expertnet, d2l")
    with pytest.raises(ConfigurationError):
        parse_config("noise_ratios = 1.5")
    with pytest.raises(ConfigurationError, match="unknown dataset kind 'mnist'"):
        parse_config("dataset = mnist")


# --- grid counting and fairness ---------------------------------------------------

def test_run_grid_expertnet_contributes_two_modes():
    records = grid_records(run_grid(tiny_config()))
    assert len(records) == 2
    assert {r.mode for r in records} == {"amateur-only", "full"}
    assert all(r.status == "ok" for r in records)


def test_run_grid_record_count():
    config = tiny_config(methods=("expertnet", "plain-ce"), noise_ratios=(0.2, 0.4),
                         seeds=(1, 2, 3), epochs=1)
    records = grid_records(run_grid(config))
    assert len(records) == 18  # (2 + 1) modes x 2 ratios x 1 fraction x 3 seeds


def test_equal_seed_cells_share_dataset_hash():
    config = tiny_config(methods=("expertnet", "plain-ce", "bootstrap", "forward"), epochs=1)
    records = grid_records(run_grid(config))
    hashes = {r.dataset_hash for r in records}
    assert len(hashes) == 1
    different_seed = grid_records(run_grid(tiny_config(seeds=(2,), epochs=1)))
    assert different_seed[0].dataset_hash not in hashes


def test_a_row_depends_only_on_its_coordinates():
    # the module's promise: adding methods (or ratios, fractions, seeds) never perturbs a cell
    full = tiny_config(methods=tuple(METHODS), noise_ratios=(0.2, 0.4), fractions=(1.0, 0.6),
                       seeds=(1, 2), epochs=1, amateur_hidden=(4,), expert_hidden=(4,))
    rows = {(r.method, r.mode, r.noise_ratio, r.fraction, r.seed): r
            for r in grid_records(run_grid(full))}
    assert len(rows) == 5 * 2 * 2 * 2 and all(r.status == "ok" for r in rows.values())
    one = dataclasses.replace(full, methods=("forward",), noise_ratios=(0.4,), fractions=(0.6,),
                              seeds=(2,))
    reordered = dataclasses.replace(full, methods=("plain-ce", "expertnet"),
                                    noise_ratios=(0.4, 0.2), fractions=(0.6,), seeds=(2, 1))
    for config, count in ((one, 1), (reordered, 3 * 2 * 2)):
        records = grid_records(run_grid(config))
        assert len(records) == count
        for r in records:
            assert r == rows[(r.method, r.mode, r.noise_ratio, r.fraction, r.seed)]


def test_run_grid_is_deterministic(tmp_path):
    config = tiny_config(methods=("expertnet", "plain-ce"), seeds=(1, 2), epochs=1)
    first = run_grid(config)
    second = run_grid(config)
    assert grid_records(first) == grid_records(second)
    emit_report(first, tmp_path / "a")
    emit_report(second, tmp_path / "b")
    for name in ("results.csv", "pivot_rho20.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def masked(run):
        return re.sub(r" done in [0-9.]+s$", " done in Xs",
                      (tmp_path / run / "run.log").read_text(), flags=re.M).splitlines()
    assert len(masked("a")) == 2 * (1 + 1 + 1) * 2  # 2 methods x (hash, epoch, done) x 2 seeds
    assert masked("a") == masked("b")


def test_failed_cell_is_recorded_and_grid_continues(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise NumericError("intentional test failure")

    monkeypatch.setattr(harness, "train_baseline", boom)
    config = tiny_config(methods=("expertnet", "plain-ce"), epochs=1)
    runs = run_grid(config)
    by_method = {r.method: r for r in grid_records(runs)}
    assert by_method["plain-ce"].status == "failed"
    assert "intentional test failure" in by_method["plain-ce"].diagnostic
    assert by_method["plain-ce"].accuracy is None
    assert by_method["expertnet"].status == "ok"
    emit_report(runs, tmp_path)
    assert "FAILED" in (tmp_path / "run.log").read_text()


def test_each_cell_builds_and_hashes_its_data_once(monkeypatch):
    calls = {"build_cell_datasets": 0, "dataset_hash": 0}

    def counting(name):
        original = getattr(harness, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    config = tiny_config(methods=tuple(METHODS), noise_ratios=(0.2, 0.4), seeds=(1, 2), epochs=1)
    records = grid_records(run_grid(config))
    assert len(records) == 5 * 2 * 2 and all(r.status == "ok" for r in records)
    assert calls == {"build_cell_datasets": 4, "dataset_hash": 4}


def test_cell_build_failure_fails_every_method_of_that_cell_only(tmp_path):
    # 0.0001 of 75 training rows rounds to none: that cell's build fails
    config = tiny_config(methods=tuple(METHODS), fractions=(1.0, 0.0001), epochs=1)
    runs = run_grid(config)
    records = grid_records(runs)
    small = [r for r in records if r.fraction == 0.0001]
    assert len(small) == 5 and all(r.status == "failed" for r in small)
    (diagnostic,) = {r.diagnostic for r in small}
    assert diagnostic == "ConfigurationError: fraction 0.0001 of 75 samples selects nothing"
    assert all(r.status == "ok" for r in records if r.fraction == 1.0)
    emit_report(runs, tmp_path)
    failed_lines = [line for line in (tmp_path / "run.log").read_text().splitlines()
                    if " FAILED " in line]
    assert failed_lines == [f"[{m} rho=0.2 frac=0.0001 seed=1] FAILED {diagnostic}"
                            for m in sorted(METHODS)]


# --- cell datasets -----------------------------------------------------------------

def test_cell_seed_depends_on_all_coordinates():
    base = cell_seed(1, 0.2, 1.0)
    assert cell_seed(1, 0.2, 1.0) == base
    assert cell_seed(2, 0.2, 1.0) != base
    assert cell_seed(1, 0.3, 1.0) != base
    assert cell_seed(1, 0.2, 0.5) != base


def test_build_cell_datasets_noise_after_subsample():
    config = tiny_config(dataset=BlobsSpec(classes=4, dim=4, per_class=2500,
                                           val_per_class=100, separation=5.0, spread=1.0),
                         noise_ratios=(0.3,))
    train_set, val_set, matrix = build_cell_datasets(config, ratio=0.3, fraction=0.2,
                                                     master_seed=5, source=load_source(config))
    assert train_set.n == 2000  # 0.2 of 10000
    realized = np.mean(train_set.given_labels != train_set.true_labels)
    band = 4.0 * np.sqrt(0.3 * 0.7 / train_set.n)
    assert abs(realized - 0.3) < band  # nominal ratio holds on the subset
    val_realized = np.mean(val_set.given_labels != val_set.true_labels)
    assert abs(val_realized - 0.3) < 4.0 * np.sqrt(0.3 * 0.7 / val_set.n)
    np.testing.assert_allclose(matrix.sum(axis=1), np.ones(4), atol=1e-9)


def test_build_cell_datasets_honors_matrix_file(tmp_path):
    # permutation matrix: every label maps deterministically to the next class
    permutation = np.roll(np.eye(3), 1, axis=1)
    path = tmp_path / "matrix.csv"
    save_matrix_csv(permutation, path)
    config = tiny_config(matrix=str(path))
    train_set, val_set, matrix = build_cell_datasets(config, ratio=0.2, fraction=1.0,
                                                     master_seed=3, source=load_source(config))
    np.testing.assert_array_equal(matrix, permutation)
    np.testing.assert_array_equal(train_set.given_labels, (train_set.true_labels + 1) % 3)
    np.testing.assert_array_equal(val_set.given_labels, (val_set.true_labels + 1) % 3)


def test_file_dataset_grid(tmp_path):
    def dump(path, n_per_class):
        ds = make_blobs(3, n_per_class, 4, 5.0, 1.0, seed=9)
        rows = ["f0,f1,f2,f3,label"]
        for row, label in zip(ds.features, ds.true_labels):
            rows.append(",".join(repr(float(v)) for v in row) + f",c{label}")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    dump(tmp_path / "train.csv", 30)
    dump(tmp_path / "val.csv", 10)
    config = tiny_config(
        dataset=FileSpec(str(tmp_path / "train.csv"), str(tmp_path / "val.csv"), "label"),
        methods=("plain-ce",), epochs=1)
    records = grid_records(run_grid(config))
    assert len(records) == 1 and records[0].status == "ok"


# --- report emission ----------------------------------------------------------------

def make_run(accuracy=0.9, **kwargs):
    """A hand-built plain-ce run whose one epoch scored `accuracy`; None makes it failed."""
    defaults = dict(method="plain-ce", noise_ratio=0.2, fraction=1.0, seed=1, epochs=10)
    if accuracy is None:
        defaults["diagnostic"] = "NumericError: boom"
    else:
        defaults.update(dataset_hash="abc123", train_n=75, val_n=45, seconds=1.5,
                        history=(EpochStats(0, 0.5, None, accuracy, None),))
    defaults.update(kwargs)
    return MethodRun(**defaults)


def test_emit_report_single_record(tmp_path):
    paths = emit_report([make_run()], tmp_path / "out")
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert len(lines) == 2  # header + one row
    assert lines[0].startswith("method,mode,noise_ratio,fraction,seed,accuracy")
    assert lines[1].startswith("plain-ce,amateur-only,0.2,1,1,0.9,10,ok,abc123")
    assert [p.rsplit("/", 1)[1] for p in paths] == ["results.csv", "pivot_rho20.csv", "run.log"]


def test_emit_report_pivot_mean_and_sample_stdev(tmp_path):
    runs = [make_run(seed=1, accuracy=0.80), make_run(seed=2, accuracy=0.82)]
    emit_report(runs, tmp_path / "out")
    pivot = (tmp_path / "out" / "pivot_rho20.csv").read_text().splitlines()
    assert pivot[0] == "fraction,plain-ce/amateur-only"
    assert pivot[1] == "1,0.8100±0.0141"


def test_emit_report_all_failed_pivot_bytes(tmp_path):
    runs = [make_run(fraction=f, accuracy=None) for f in (0.5, 1.0)]
    emit_report(runs, tmp_path / "out")
    assert (tmp_path / "out" / "pivot_rho20.csv").read_bytes() == b"fraction\n1\n0.5\n"


def test_emit_report_writes_the_run_log_grammar(tmp_path):
    expert = make_run(method="expertnet", seed=2, seconds=2.5, history=(
        EpochStats(0, 1.5, 0.75, 0.5, 0.625), EpochStats(1, 1.25, 0.5, 0.75, 0.875)))
    emit_report([make_run(noise_ratio=0.4, fraction=0.5, accuracy=None), make_run(seed=3),
                 expert], tmp_path)
    assert (tmp_path / "run.log").read_bytes() == (
        b"[expertnet rho=0.2 frac=1 seed=2] dataset_hash=abc123 train_n=75 val_n=45\n"
        b"[expertnet rho=0.2 frac=1 seed=2] epoch=0 amateur_loss=1.500000 "
        b"expert_loss=0.750000 val_amateur=0.5000 val_full=0.6250\n"
        b"[expertnet rho=0.2 frac=1 seed=2] epoch=1 amateur_loss=1.250000 "
        b"expert_loss=0.500000 val_amateur=0.7500 val_full=0.8750\n"
        b"[expertnet rho=0.2 frac=1 seed=2] done in 2.50s\n"
        b"[plain-ce rho=0.2 frac=1 seed=3] dataset_hash=abc123 train_n=75 val_n=45\n"
        b"[plain-ce rho=0.2 frac=1 seed=3] epoch=0 loss=0.500000 val_amateur=0.9000\n"
        b"[plain-ce rho=0.2 frac=1 seed=3] done in 1.50s\n"
        b"[plain-ce rho=0.4 frac=0.5 seed=1] FAILED NumericError: boom\n")


def test_emit_report_is_byte_deterministic(tmp_path):
    runs = [make_run(seed=s, accuracy=0.5 + 0.01 * s) for s in range(5)]
    runs += [make_run(method="expertnet", noise_ratio=0.4, seed=s,
                      history=(EpochStats(0, 0.5, 0.25, 0.6, 0.7 + 0.01 * s),)) for s in (1, 2)]
    runs += [make_run(method="forward", fraction=f, accuracy=None) for f in (0.5, 1.0)]
    orders = [runs, runs[::-1], runs[3:] + runs[:3]]
    for i, order in enumerate(orders):
        emit_report(order, tmp_path / str(i))
    names = sorted(p.name for p in (tmp_path / "0").iterdir())
    assert names == ["pivot_rho20.csv", "pivot_rho40.csv", "results.csv", "run.log"]
    for i in range(1, len(orders)):
        for name in names:
            assert (tmp_path / str(i) / name).read_bytes() == (tmp_path / "0" / name).read_bytes()


@pytest.mark.parametrize("under", [False, True])
def test_emit_report_into_a_file_raises_configuration_error(tmp_path, under):
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    out = taken / "out" if under else taken
    with pytest.raises(ConfigurationError,
                       match=f"^cannot use {re.escape(str(out))} as the output directory: "):
        emit_report([make_run()], out)
    assert taken.read_text(encoding="utf-8") == "not a directory"


def test_a_report_that_fails_midway_leaves_the_previous_report(tmp_path, monkeypatch):
    out = tmp_path / "out"
    emit_report([make_run(accuracy=0.5)], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def open_or_fail(path, *args, **kwargs):
        if ".run.log." in str(path):
            raise OSError(errno.ENOSPC, "No space left on device")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(harness, "open", open_or_fail, raising=False)
    with pytest.raises(ConfigurationError, match=re.escape(
            f"cannot write {out / 'run.log'}: No space left on device")):
        emit_report([make_run(accuracy=0.9), make_run(noise_ratio=0.4)], out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_emit_report_requires_records(tmp_path):
    with pytest.raises(DataError):
        emit_report([], tmp_path / "out")


def test_dataset_hash_tracks_content():
    config = tiny_config(noise_ratios=(0.2, 0.4))
    source = load_source(config)
    a_train, a_val, _ = build_cell_datasets(config, 0.2, 1.0, master_seed=1, source=source)
    b_train, b_val, _ = build_cell_datasets(config, 0.2, 1.0, master_seed=1, source=source)
    assert dataset_hash(a_train, a_val) == dataset_hash(b_train, b_val)
    c_train, c_val, _ = build_cell_datasets(config, 0.4, 1.0, master_seed=1, source=source)
    assert dataset_hash(c_train, c_val) != dataset_hash(a_train, a_val)


def test_failed_expertnet_cell_reports_both_modes_and_grid_continues(monkeypatch):
    def boom(*args, **kwargs):
        raise NumericError("intentional test failure")

    monkeypatch.setattr(harness, "train", boom)
    config = tiny_config(methods=("expertnet", "plain-ce"), epochs=1)
    records = grid_records(run_grid(config))
    failed = [r for r in records if r.method == "expertnet"]
    assert sorted(r.mode for r in failed) == ["amateur-only", "full"]
    assert all(r.status == "failed" and r.accuracy is None for r in failed)
    (plain,) = [r for r in records if r.method == "plain-ce"]
    assert plain.status == "ok" and plain.accuracy is not None


@pytest.mark.parametrize("given, key", [
    ("epochs = abc", "epochs"),
    ("seeds = 1.5", "seeds"),
    ("batch_size = 0", "batch_size"),
    ("epochs = 0", "epochs"),
    ("amateur_hidden = 0", "amateur_hidden"),
    ("expert_hidden = 8, 0", "expert_hidden"),
    ("lr = 0", "learning rate"),
    ("lr_decay_factor = -0.1", "decay factor"),
    ("lr_decay_period = 0", "decay period"),
    ("momentum = 1", "momentum"),
    ("momentum = -0.1", "momentum"),
    ("weight_decay = -1e-4", "weight decay"),
    ("bootstrap_beta = 0", "bootstrap beta"),
    ("bootstrap_beta = 1.5", "bootstrap beta"),
    ("bootstrap_variant = medium", "bootstrap variant"),
    ("expert_terminal = tanh", "expert terminal"),
    ("noise_ratios = 0.12, 0.125", "pivot_rho12"),
    ("matrix = m.csv\nnoise_ratios = 0.2, 0.4", "noise_ratios"),
    ("seeds = 1, 1", "seeds"),
    ("seeds = -1", "seeds"),
    ("seeds = 1, 18446744073709551617", "seeds"),  # 2**64 + 1 would alias seed 1
    ("noise_ratios = 0.2, 0.4, 0.2", "noise_ratios"),
    ("fractions = 1.0, 1", "fractions"),
    ("fractions = 1.0, 0.99999999999999",
     re.escape("fractions 1.0 and 0.99999999999999 share the output label '1'")),
    ("noise_ratios = 0.125, 0.1250000001",
     re.escape("noise_ratios 0.125 and 0.1250000001 share the output label '0.125'")),
    ("methods = expertnet, plain-ce, expertnet", "methods"),
    ("lr = nan", "lr"),
    ("weight_decay = inf", "weight_decay"),
    ("blobs.separation = nan", "blobs.separation"),
    ("seeds = 1,,2", re.escape("config key seeds: empty item in '1,,2'")),
    ("methods = expertnet,", "methods"),
    ("amateur_hidden = 8, ", "amateur_hidden"),
    pytest.param("dataset = file\nfile.train = t.csv\nfile.val = v.csv\nfile.label = y\n"
                 "file.features = a, a", "file.features", id="file.features = a, a"),
    pytest.param("dataset = file\nfile.train = t.csv\nfile.val = v.csv\nfile.label = y\n"
                 "file.features = a, y", "file.label", id="file.features = a, y"),
    ("fractions = 0", re.escape("fraction must be in (0, 1], got 0.0")),
    ("fractions = 1.5", re.escape("fraction must be in (0, 1], got 1.5")),
    # built in Python, not parsed: the config itself rejects non-finite numbers
    pytest.param(dict(lr=math.nan), "lr", id="ExperimentConfig(lr=nan)"),
    pytest.param(dict(lr=math.inf), "lr", id="ExperimentConfig(lr=inf)"),
    pytest.param(dict(weight_decay=math.nan), "weight_decay",
                 id="ExperimentConfig(weight_decay=nan)"),
    pytest.param(dict(lr_decay_factor=math.inf), "lr_decay_factor",
                 id="ExperimentConfig(lr_decay_factor=inf)"),
])
def test_parse_config_rejects_unusable_values(given, key):
    with pytest.raises(ConfigurationError, match=key):
        tiny_config(**given) if isinstance(given, dict) else parse_config(given)


def test_parse_config_allocates_nothing_sized_by_the_widths():
    def peak(overrides):
        tracemalloc.start()
        try:
            parse_config("", overrides)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    defaults = peak({})
    for overrides in ({"amateur_hidden": "2000000"}, {"expert_hidden": "3000,3000"}):
        assert abs(peak(overrides) - defaults) <= 64 * 1024, overrides


FILE_CONFIG_TEXT = """
dataset = file
file.train = train.csv
file.val = val.csv
file.label = y
file.features = f1, f2
matrix = none
lr_decay_period = none
"""


def test_parse_config_file_section_and_none_values():
    config = parse_config(FILE_CONFIG_TEXT)
    assert config.dataset == FileSpec("train.csv", "val.csv", "y", ("f1", "f2"))
    assert config.matrix is None and config.lr_decay_period is None
    with pytest.raises(ConfigurationError, match="file.label"):
        parse_config(FILE_CONFIG_TEXT.replace("file.label = y", "file.label ="))
    with pytest.raises(ConfigurationError, match="file.val"):
        parse_config(FILE_CONFIG_TEXT.replace("file.val = val.csv", ""))
    with pytest.raises(ConfigurationError, match="blobs.dim"):
        parse_config(FILE_CONFIG_TEXT + "blobs.dim = 3\n")


# --- config round trips ------------------------------------------------------------

names = st.text(string.ascii_lowercase + string.digits + "_./-", min_size=1, max_size=12)
file_names = names.filter(lambda text: text != "none")  # `none` unsets an optional key
finite = dict(allow_nan=False, allow_infinity=False)
widths = st.lists(st.integers(1, 8), max_size=2).map(tuple)


def distinct(elements, **kwargs):
    return st.lists(elements, min_size=1, max_size=3, unique=True, **kwargs).map(tuple)


DATASET_SPECS = {
    "blobs": st.builds(BlobsSpec, classes=st.integers(2, 9), dim=st.integers(1, 64),
                       per_class=st.integers(1, 999), val_per_class=st.integers(1, 999),
                       separation=st.floats(0.01, 50, **finite),
                       spread=st.floats(0.01, 50, **finite)),
    "file": st.builds(FileSpec, train=file_names, val=file_names, label=names,
                      features=distinct(names) | st.just(())).filter(
                          lambda spec: spec.label not in spec.features),  # config rejects it
}


@st.composite
def configs(draw, kind):
    matrix = draw(st.none() | file_names)
    # a matrix sets the noise itself, so it comes with the one ratio that labels the run
    ratios = st.lists(st.floats(0, 0.99, **finite), min_size=1, max_size=1 if matrix else 3,
                      unique_by=(pivot_name, "{:g}".format)).map(tuple)
    fractions = st.lists(st.floats(0, 1, exclude_min=True, **finite), min_size=1, max_size=3,
                         unique_by="{:g}".format).map(tuple)  # the report's label
    return draw(st.builds(
        ExperimentConfig, dataset=DATASET_SPECS[kind], noise_ratios=ratios, fractions=fractions,
        methods=distinct(st.sampled_from(tuple(METHODS))),
        seeds=distinct(st.integers(0, 2**32)),
        matrix=st.just(matrix), epochs=st.integers(1, 500), batch_size=st.integers(1, 512),
        lr=st.floats(1e-6, 10, **finite), lr_decay_factor=st.floats(1e-6, 10, **finite),
        lr_decay_period=st.none() | st.integers(1, 100),
        momentum=st.floats(0, 1, exclude_max=True, **finite),
        weight_decay=st.floats(0, 1, **finite), amateur_hidden=widths, expert_hidden=widths,
        expert_terminal=st.sampled_from(("softmax", "sigmoid")),
        bootstrap_beta=st.floats(0, 1, exclude_min=True, **finite),
        bootstrap_variant=st.sampled_from(("soft", "hard")), out=names))


def config_pairs():
    """Two configs over the same dataset kind."""
    return st.sampled_from(tuple(DATASET_SPECS)).flatmap(
        lambda kind: st.tuples(configs(kind), configs(kind)))


def render_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ", ".join(render_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def render(config) -> dict:
    """Every config key of `config` with its value as a config file spells it."""
    kind = "blobs" if isinstance(config.dataset, BlobsSpec) else "file"
    keys = {"dataset": kind}
    for obj, prefix in ((config.dataset, kind + "."), (config, "")):
        keys.update((prefix + f.name, render_value(getattr(obj, f.name)))
                    for f in dataclasses.fields(obj) if f.name != "dataset")
    return keys


@settings(max_examples=60, deadline=None)
@given(config_pairs(), st.data())
def test_config_renders_parses_and_overrides_round_trip(pair, data):
    config, other = pair
    text = "".join(f"{key} = {value}\n" for key, value in render(config).items())
    assert parse_config(text) == config
    key = data.draw(st.sampled_from(sorted(set(render(config)) - {"dataset"})))
    override = {key: render(other)[key]}
    prefix, _, name = key.rpartition(".")
    try:
        if prefix:
            expected = dataclasses.replace(config, dataset=dataclasses.replace(
                config.dataset, **{name: getattr(other.dataset, name)}))
        else:
            expected = dataclasses.replace(config, **{name: getattr(other, name)})
    except ConfigurationError:  # the value clashes with another key (a label among features)
        with pytest.raises(ConfigurationError):
            parse_config(text, override)
        return
    assert parse_config(text, override) == expected


@pytest.mark.parametrize("missing", ["train", "matrix"])
def test_missing_input_file_fails_cells_and_grid_continues(tmp_path, missing):
    ds = make_blobs(3, 20, 4, 5.0, 1.0, seed=9)
    text = "f0,f1,f2,f3,label\n" + "".join(
        ",".join(repr(float(v)) for v in row) + f",c{label}\n"
        for row, label in zip(ds.features, ds.true_labels))
    for name in ("train", "val"):
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    save_matrix_csv(np.eye(3), tmp_path / "matrix.csv")
    (tmp_path / f"{missing}.csv").unlink()
    config = tiny_config(
        dataset=FileSpec(str(tmp_path / "train.csv"), str(tmp_path / "val.csv"), "label"),
        matrix=str(tmp_path / "matrix.csv"), methods=("expertnet", "plain-ce"),
        seeds=(1, 2), epochs=1)
    records = grid_records(run_grid(config))
    assert len(records) == 6  # 3 (method, mode) pairs x 2 seeds
    assert all(r.status == "failed" for r in records)
    assert all(r.diagnostic.startswith("InputError: ") and f"{missing}.csv" in r.diagnostic
               for r in records)


def test_one_class_file_fails_every_cell_naming_the_file(tmp_path):
    text = "f0,f1,label\n" + "".join(f"{i}.0,{-i}.0,x\n" for i in range(6))
    for name in ("train", "val"):
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    train_path = tmp_path / "train.csv"
    config = tiny_config(dataset=FileSpec(str(train_path), str(tmp_path / "val.csv"), "label"),
                         methods=("expertnet", "plain-ce"), noise_ratios=(0.2, 0.4), epochs=1)
    records = grid_records(run_grid(config))
    assert len(records) == 6  # 3 (method, mode) pairs x 2 ratios
    assert all(r.status == "failed" for r in records)
    assert {r.diagnostic for r in records} == {
        f"DataError: {train_path}: every row has label 'x'; need at least 2 classes"}


def file_grid_config(tmp_path):
    """A 2 methods x 2 fractions grid on train/val CSV tables and a matrix file."""
    ds = make_blobs(3, 30, 4, 5.0, 1.0, seed=9)
    text = "f0,f1,f2,f3,label\n" + "".join(
        ",".join(repr(float(v)) for v in row) + f",c{label}\n"
        for row, label in zip(ds.features, ds.true_labels))
    for name in ("train", "val"):
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    save_matrix_csv(np.roll(np.eye(3), 1, axis=1) * 0.3 + np.eye(3) * 0.7,
                    tmp_path / "matrix.csv")
    return tiny_config(
        dataset=FileSpec(str(tmp_path / "train.csv"), str(tmp_path / "val.csv"), "label"),
        matrix=str(tmp_path / "matrix.csv"), methods=("expertnet", "forward"),
        fractions=(1.0, 0.5), epochs=1)


def test_run_grid_reads_each_input_file_once(tmp_path, monkeypatch):
    calls = {"load_table": 0, "load_matrix_csv": 0}

    def counting(name):
        original = getattr(harness, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    records = grid_records(run_grid(file_grid_config(tmp_path)))
    assert len(records) == 6 and all(r.status == "ok" for r in records)
    assert calls == {"load_table": 2, "load_matrix_csv": 1}


def test_file_grid_results_identical_across_runs(tmp_path):
    config = file_grid_config(tmp_path)
    for run in (1, 2):
        emit_report(run_grid(config), tmp_path / f"run{run}")
    assert (tmp_path / "run1" / "results.csv").read_bytes() == \
        (tmp_path / "run2" / "results.csv").read_bytes()


def test_matrix_class_mismatch_fails_every_cell_before_building_data(tmp_path, monkeypatch):
    builds = []

    def spy(*args, **kwargs):
        builds.append(args)
        return build_cell_datasets(*args, **kwargs)

    monkeypatch.setattr(harness, "build_cell_datasets", spy)
    save_matrix_csv(symmetric_matrix(3, 0.2), tmp_path / "matrix.csv")
    config = tiny_config(dataset=BlobsSpec(classes=4, dim=4, per_class=25, val_per_class=15),
                         matrix=str(tmp_path / "matrix.csv"),
                         methods=("expertnet", "forward"), seeds=(1, 2))
    records = grid_records(run_grid(config))
    assert len(records) == 6  # 3 (method, mode) pairs x 2 seeds
    assert all(r.status == "failed" for r in records)
    assert {r.diagnostic for r in records} == {
        "DimensionError: matrix is 3x3 but data has 4 classes"}
    assert builds == []


def test_results_csv_quotes_a_diagnostic_with_a_comma(tmp_path):
    text = "f0,f1,f2,f3,label\n" + "0,0,0,0,a\n" * 3 + "0,0,0,b\n"
    for name in ("train", "val"):
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    config = tiny_config(
        dataset=FileSpec(str(tmp_path / "train.csv"), str(tmp_path / "val.csv"), "label"))
    runs = run_grid(config)
    records = grid_records(runs)
    diagnostic = f"InputError: {tmp_path / 'train.csv'}:5: expected 5 cells, got 4"
    assert {r.diagnostic for r in records} == {diagnostic}
    emit_report(runs, tmp_path / "out")
    with open(tmp_path / "out" / "results.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["diagnostic"] for row in rows] == [diagnostic] * len(records)
