"""The benchmark's `ingest` inputs load through the library with their declared shape and bytes.

`bench/workloads.py` writes the `ingest` tables and matrix; a `load_table` that
misread them would change what that workload measures.  The sha256 of each loaded
array is pinned, so a parser that moves one bit of what `ingest` measures fails here.
"""

import hashlib
import pathlib

import numpy as np

from expertnet.data import load_table
from expertnet.noise import load_matrix_csv

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
# sha256 of the arrays `load_table` makes of the seed-5 tables
PINNED = {
    "train.features": "b44c95895b98043e7617610fe30a207ffe171a64038477ee5a8a106b94fb8b28",
    "train.true_labels": "56cce2c34d13913c177751d7baf037534aa1eb013ce10081a788adf3020a1d99",
    "val.features": "cb56548d8b1f16265de87c0b88064c0c6973683c1b69a898bd8cad6b7bff4359",
    "val.true_labels": "ff34aac54e3f8199c3805833d86ef930a8a12902e0efc71de3e477bc60ea2517",
}


def test_ingest_inputs_load_with_their_declared_shape(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import INGEST, write_ingest_inputs

    write_ingest_inputs(5, str(tmp_path))
    train, schema = load_table(str(tmp_path / "train.csv"), "label")
    val, _ = load_table(str(tmp_path / "val.csv"), "label", schema=schema)
    assert (train.n, val.n, train.dim, val.dim) == (
        INGEST["train_rows"], INGEST["val_rows"], INGEST["features"], INGEST["features"])
    assert train.n_classes == val.n_classes == len(schema.classes) == INGEST["classes"]
    assert {f"{name}.{field}": hashlib.sha256(getattr(ds, field).tobytes()).hexdigest()
            for name, ds in (("train", train), ("val", val))
            for field in ("features", "true_labels")} == PINNED
    matrix = load_matrix_csv(str(tmp_path / "matrix.csv"))
    assert not np.allclose(matrix, matrix.T)
