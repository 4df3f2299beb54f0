"""The benchmark's `ingest` inputs load through the library with their declared shape.

`bench/workloads.py` writes the `ingest` tables and matrix; a `load_table` that
misread them would change what that workload measures.
"""

import pathlib

import numpy as np

from expertnet.data import load_table
from expertnet.noise import load_matrix_csv

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_ingest_inputs_load_with_their_declared_shape(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import INGEST, write_ingest_inputs

    write_ingest_inputs(5, str(tmp_path))
    train, schema = load_table(str(tmp_path / "train.csv"), "label")
    val, _ = load_table(str(tmp_path / "val.csv"), "label", schema=schema)
    assert (train.n, val.n, train.dim, val.dim) == (
        INGEST["train_rows"], INGEST["val_rows"], INGEST["features"], INGEST["features"])
    assert train.n_classes == val.n_classes == len(schema.classes) == INGEST["classes"]
    matrix = load_matrix_csv(str(tmp_path / "matrix.csv"))
    assert not np.allclose(matrix, matrix.T)
