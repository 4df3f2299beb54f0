"""Tests for the benchmark's inputs and output checks."""

import numpy as np

from expertnet.data import load_table
from expertnet.noise import load_matrix_csv
from run import failed_cells
from workloads import INGEST, WORKLOADS, config_text, expected_cells, write_ingest_inputs

FILES = ("train.csv", "val.csv", "matrix.csv")


def generate(tmp_path, name, seed):
    directory = tmp_path / name
    directory.mkdir()
    write_ingest_inputs(seed, str(directory))
    return {f: (directory / f).read_bytes() for f in FILES}, directory


def test_ingest_inputs_are_deterministic_per_seed(tmp_path):
    first, directory = generate(tmp_path, "a", 5)
    again, _ = generate(tmp_path, "b", 5)
    other, _ = generate(tmp_path, "c", 6)
    assert first == again
    assert all(first[f] != other[f] for f in FILES)

    train, stats, labels = load_table(str(directory / "train.csv"), "label")
    val, _, _ = load_table(str(directory / "val.csv"), "label", stats=stats, label_map=labels)
    assert (train.n, val.n, train.dim) == (INGEST["train_rows"], INGEST["val_rows"],
                                          INGEST["features"])
    assert train.n_classes == INGEST["classes"]
    matrix = load_matrix_csv(str(directory / "matrix.csv"))
    assert not np.allclose(matrix, matrix.T)


def test_configs_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        assert config_text(workload, 3, "in") == config_text(workload, 3, "in")
        assert config_text(workload, 3, "in") != config_text(workload, 4, "in")


HEADER = "method,mode,noise_ratio,fraction,seed,accuracy,epochs,status,dataset_hash,diagnostic\n"
CELLS = [("expertnet", 0.2, 1.0, 7), ("plain-ce", 0.2, 1.0, 7)]
ROWS = ["expertnet,amateur-only,0.2,1,7,0.9,5,ok,abc,",
        "expertnet,full,0.2,1,7,0.95,5,ok,abc,",
        "plain-ce,amateur-only,0.2,1,7,0.8,5,ok,abc,"]


def csv_bytes(rows):
    return (HEADER + "\n".join(rows) + "\n").encode()


def test_failed_cells_accepts_a_clean_pass():
    good = csv_bytes(ROWS)
    assert failed_cells(good, 0, CELLS, 5, good) == set()


def test_failed_cells_flags_each_kind_of_bad_output():
    good = csv_bytes(ROWS)
    expertnet, plain = ("expertnet", "0.2", "1", "7"), ("plain-ce", "0.2", "1", "7")
    changed = ROWS[:2] + ["plain-ce,amateur-only,0.2,1,7,0.81,5,ok,abc,"]
    assert failed_cells(csv_bytes(changed), 0, CELLS, 5, good) == {plain}
    failed = ROWS[:2] + ["plain-ce,amateur-only,0.2,1,7,,5,failed,,NumericError: x"]
    assert failed_cells(csv_bytes(failed), 1, CELLS, 5, None) == {plain}
    assert failed_cells(csv_bytes(failed), 0, CELLS, 5, None) == {expertnet, plain}
    assert failed_cells(good, 1, CELLS, 5, None) == {expertnet, plain}
    assert failed_cells(csv_bytes(ROWS[1:]), 0, CELLS, 5, None) == {expertnet}
    other_hash = ROWS[:2] + ["plain-ce,amateur-only,0.2,1,7,0.8,5,ok,abd,"]
    assert failed_cells(csv_bytes(other_hash), 0, CELLS, 5, None) == {expertnet, plain}
    assert failed_cells(good, 0, CELLS, 6, None) == {expertnet, plain}
    assert failed_cells(None, 2, CELLS, 5, good) == {expertnet, plain}


def test_expected_cells_cover_the_grid():
    grid = WORKLOADS["grid"]
    assert len(expected_cells(grid, 1)) == 4 * 2 * 1 * 2
    assert len(expected_cells(WORKLOADS["ingest"], 1)) == 4 * 1 * 3 * 1
