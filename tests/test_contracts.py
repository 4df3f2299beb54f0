"""Contract fuzzing of the file readers and of `expertnet run`.

A damaged matrix file, table or checkpoint either reads or raises an InputError
whose message starts with the file's path, and no read emits a warning.  The
damage is byte edits to a valid file: flips, insertions, deletions, a number
replaced by a huge one, and deep nesting.  A drawn table loads as one `float()`
per stripped cell reads it: to the same bytes, or with the same first bad line.

`run --set KEY=VALUE` on a tiny grid exits 0, 1 or 2: exit 2 prints one `error:`
line and writes no report; exit 0 or 1 writes one results.csv row per method x
mode x cell and is 1 exactly when a row failed; nothing else reaches stderr.  On
blobs data the config foresees every cell failure but overflow and memory.
"""

import csv
import os
import pathlib
import re
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expertnet.cli import main
from expertnet.data import load_table
from expertnet.errors import InputError
from expertnet.harness import METHODS, parse_config, pivot_name
from expertnet.model import build_expertnet, load_checkpoint, save_checkpoint
from expertnet.noise import load_matrix_csv, save_matrix_csv

HUGE = [b"1e308", b"-1e308", b"1e400", b"1" + b"0" * 400, b"7" * 5000, b"nan", b"-inf"]
SPECIAL = HUGE + [b"[" * 100_000, b"{" * 3000, b'"', b",", b"\n", b"\r", b"\x00", b"\xff",
                  b"\xef\xbb\xbf", b"\xe2\x80\xa8", b"null", b"[]", b"{}", b"true", b"-0"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
POSITION = st.integers(0, 2**16)

EDIT = st.one_of(
    st.tuples(st.just("flip"), POSITION, st.integers(0, 255)),
    st.tuples(st.just("insert"), POSITION,
              st.one_of(st.sampled_from(SPECIAL), st.binary(min_size=1, max_size=8))),
    st.tuples(st.just("delete"), POSITION, st.integers(1, 64)),
    st.tuples(st.just("number"), POSITION, st.sampled_from(HUGE)),
)


def damage(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for kind, at, arg in edits:
        if kind == "flip" and data:
            data[at % len(data)] = arg
        elif kind == "insert":
            at %= len(data) + 1
            data[at:at] = arg
        elif kind == "delete":
            at %= len(data) + 1
            del data[at:at + arg]
        elif kind == "number" and (numbers := list(NUMBER.finditer(data))):
            hit = numbers[at % len(numbers)]
            data[hit.start():hit.end()] = arg
    return bytes(data)


READERS = {"matrix": load_matrix_csv, "table": lambda path: load_table(path, "label"),
           "checkpoint": load_checkpoint}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file of each kind, as bytes."""
    where = tmp_path_factory.mktemp("valid")
    save_matrix_csv(np.array([[0.75, 0.25, 0.0], [0.1, 0.8, 0.1], [0.0, 0.5, 0.5]]),
                    where / "matrix")
    save_checkpoint(build_expertnet(2, 2, seed=3, amateur_hidden=(2,), expert_hidden=(2,)),
                    where / "checkpoint")
    return {"matrix": (where / "matrix").read_bytes(),
            "table": b"a,b,label\n0.5,1.5,x\n-1.0,2.0,y\n3.25,-0.5,x\n2.0,0.0,y\n",
            "checkpoint": (where / "checkpoint").read_bytes()}


@pytest.mark.parametrize("reader", ["matrix", "table", "checkpoint"])
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDIT, min_size=1, max_size=4))
def test_a_damaged_file_reads_or_raises_an_input_error_naming_it(tmp_path, valid, reader,
                                                                   edits):
    path = tmp_path / f"damaged.{reader}"
    path.write_bytes(damage(valid[reader], edits))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning fails the read
        try:
            READERS[reader](path)
        except InputError as exc:
            assert str(exc).startswith(str(path))


# --- the table reader against one `float()` per stripped cell ------------------------

# Unicode whitespace that `str.strip()` removes, inside a line (no LF or CR, which end it)
SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
PIECES = [*"0123456789+-.eE_#", *SPACES, "nan", "inf", "\u0661", "\u0665", "\uff11",
          "\uff15", "\uff0e"]
NUMERAL = st.one_of(st.floats(-1e6, 1e6).map(repr), st.integers(-10**6, 10**6).map(str),
                    st.floats(-1e6, 1e6).map("{:.3e}".format),
                    st.sampled_from(["-0", ".5", "5.", "+1", "1E+2", "0e0", "1e-400"]))
PAD = st.sampled_from(["", *SPACES])
PADDED = st.tuples(PAD, NUMERAL, PAD).map("".join)
# underscores and Arabic-Indic or fullwidth digits, which `float()` reads and numpy does not
SPELLED = st.one_of(
    st.integers(1000, 10**6).map("{:_}".format),
    st.tuples(st.integers(0, 10**6).map(str), st.sampled_from([0x0660, 0xFF10])).map(
        lambda pair: pair[0].translate({ord("0") + d: pair[1] + d for d in range(10)})))
CELLS = [PADDED,  # numbers numpy reads
         st.one_of(PADDED, st.sampled_from(["nan", "-inf", "1e400"])),  # and non-finite ones
         st.one_of(PADDED, SPELLED),  # and ones only `float()` reads
         st.one_of(PADDED, PADDED.map("{}#2".format),  # and anything
                   st.lists(st.sampled_from(PIECES), max_size=6).map("".join))]
LABELS = ["x", "y", " x ", "\u3000y\x1c", "z#", "", " "]
BLANK = st.sampled_from(["", " ", "\t", "\x1c", "\u3000"])


@st.composite
def tables(draw):
    """(header, data lines): rows of numbers, of non-finite or unreadable cells, ragged rows
    or empty labels, with blank lines between them."""
    n_features = draw(st.integers(1, 3))
    header = [f"f{i}" for i in range(n_features)]
    at = draw(st.integers(0, n_features))
    header.insert(at, "label")
    cell = draw(st.sampled_from(CELLS))
    label = st.sampled_from(LABELS if draw(st.booleans()) else LABELS[:5])
    ragged = draw(st.integers(0, 3)) == 0
    width = st.integers(1, len(header) + 1) if ragged else st.just(len(header))
    row = width.flatmap(
        lambda n: st.tuples(*[label if i == at else cell for i in range(n)]).map(",".join))
    lines = draw(st.lists(row, min_size=1, max_size=5))
    for where, blank in draw(st.lists(st.tuples(st.integers(0, 5), BLANK), max_size=2)):
        lines.insert(where % (len(lines) + 1), blank)
    return header, lines


def _oracle(path, header, lines):
    """(features, labels) as one `float()` per stripped cell reads them, or the InputError
    text `load_table` raises: the first bad line, in the order a reader meets it."""
    at = header.index("label")
    features, labels, linenos = [], [], []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            return f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
        if not cells[at].strip():
            return f"{path}:{lineno}: empty label"
        try:
            features.append([float(c.strip()) for i, c in enumerate(cells) if i != at])
        except ValueError as exc:
            return f"{path}:{lineno}: {exc}"
        labels.append(cells[at].strip())
        linenos.append(lineno)
    if not labels:
        return f"{path}:2: no data rows"
    names = [h for h in header if h != "label"]
    for lineno, row in zip(linenos, features):
        for name, value in zip(names, row):
            if not np.isfinite(value):
                return f"{path}:{lineno}: column {name!r} is {value}, not a finite number"
    return features, labels


def _loaded(path):
    """What `load_table` makes of a file: its arrays' bytes and the labels, or the error."""
    try:
        ds, schema = load_table(path, "label")
    except Exception as exc:  # the error is the outcome compared
        return type(exc).__name__, str(exc)
    return (ds.features.tobytes(), schema.mean.tobytes(), schema.std.tobytes(),
            [schema.classes[i] for i in ds.true_labels])


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables())
def test_load_table_reads_what_float_reads_in_each_stripped_cell(tmp_path, table):
    """Where the oracle fails a line, `load_table` raises its text; where it reads the
    table, `load_table` returns its labels and the bytes of its numbers written plainly."""
    header, lines = table
    path = tmp_path / "t.csv"
    path.write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8")
    expected = _oracle(path, header, lines)
    if isinstance(expected, str):
        assert _loaded(path) == ("InputError", expected)
        return
    got = _loaded(path)
    features, labels = expected
    plain = [[repr(value) for value in row] for row in features]
    for cells, name in zip(plain, labels):
        cells.insert(header.index("label"), name)
    path.write_text("\n".join(",".join(cells) for cells in [header, *plain]) + "\n",
                    encoding="utf-8")
    assert got == _loaded(path)
    assert len(got) == 2 or got[3] == labels  # an error both tables raise alike, or labels


# --- `run --set` on a tiny grid -------------------------------------------------------

BASE_CONFIG = """
blobs.classes = 3
blobs.dim = 4
blobs.per_class = 20
blobs.val_per_class = 5
epochs = 1
batch_size = 16
amateur_hidden = 4
expert_hidden = 4
"""
# a size from this list makes every array it sizes larger than 2**47 bytes, beyond what
# a process can map, so no allocation of it is granted lazily and then touched
HUGE_SIZES = [str(2**45), str(10**15), str(2**63), str(10**400)]
BAD = ["", "-1", "-0", "0", "1.5", "1e-300", "1e308", "nan", "inf", "-inf", "x"]
# each key's usual items; epochs and the blobs row counts stay small enough to train at once
ITEMS = {
    "epochs": ["1", "2"],
    "batch_size": ["1", "16", *HUGE_SIZES],
    "blobs.classes": ["2", "3", "4", *HUGE_SIZES],
    "blobs.dim": ["1", "4", *HUGE_SIZES],
    "blobs.per_class": ["1", "5", "20", *HUGE_SIZES],
    "blobs.val_per_class": ["1", "5", *HUGE_SIZES],
    "blobs.separation": ["2.5", "1e-300", "1e308"],
    "blobs.spread": ["0.5", "1", "1e308"],
    "amateur_hidden": ["4", "1", "4,4", *HUGE_SIZES],
    "expert_hidden": ["4", "1", *HUGE_SIZES],
    "noise_ratios": ["0", "-0", "0.2", "0.125", "0.1250000001", "0.99"],
    "fractions": ["1", "0.5", "0.0001", "0.99999999999999"],
    "seeds": ["0", "1", str(2**64 - 1), str(2**64)],
    "methods": [*METHODS, "mlp"],
    "lr": ["0", "0.01", "1e300"],
    "lr_decay_factor": ["0.1", "1"],
    "lr_decay_period": ["1", "none"],
    "momentum": ["0.9", "1"],
    "weight_decay": ["1e-4"],
    "bootstrap_beta": ["0.8", "1"],
    "bootstrap_variant": ["soft", "hard"],
    "expert_terminal": ["softmax", "sigmoid", "relu"],
    "matrix": ["none", "missing-matrix.csv", "nul\0byte.csv"],
    "schema": ["1", "2"],
    "dataset": ["blobs", "file"],
    "file.train": ["missing-train.csv", "nul\0byte.csv"],
    "file.val": ["missing-val.csv", "nul\0byte.csv"],
    "file.label": ["label"],
    "file.features": ["a", "label"],
    "blobs.nope": ["1"],
    "nope": ["1"],
}
# the cell failures a blobs config cannot foresee: overflow, memory, make_blobs' float range
UNFORESEEABLE = re.compile(
    r"(NumericError|MemoryError): |ConfigurationError: .* beyond float range$")


def _value(key: str):
    """One of the key's usual items, a list of distinct ones, or a list with anything."""
    usual = st.sampled_from(ITEMS[key])
    return st.one_of(usual, st.lists(usual, min_size=1, max_size=3, unique=True),
                     st.lists(st.sampled_from(ITEMS[key] + BAD), min_size=1, max_size=3)
                     ).map(lambda items: items if isinstance(items, str) else ",".join(items))


PAIR = st.sampled_from([*ITEMS, "no-equals-sign", "=1", " epochs = 1 "]).flatmap(
    lambda key: _value(key).map(f"{key}={{}}".format) if key in ITEMS else st.just(key))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(PAIR, min_size=1, max_size=3))
def test_run_with_any_overrides_exits_0_1_or_2_and_reports_accordingly(tmp_path, capsys,
                                                                        pairs):
    config = tmp_path / "base.cfg"
    config.write_text(BASE_CONFIG, encoding="utf-8")
    out = pathlib.Path(tempfile.mkdtemp(dir=tmp_path)) / "out"
    argv = ["run", "--config", str(config), "--out", str(out)]
    for pair in pairs:
        argv += ["--set", pair]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning escapes main and fails the example
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists() or not os.listdir(out)
        return
    assert err == ""
    overrides = {key.strip(): value.strip()  # exit 0 or 1: each pair has an '='
                 for key, value in (pair.split("=", 1) for pair in pairs)}
    parsed = parse_config(BASE_CONFIG, overrides)
    with open(out / "results.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = len(parsed.noise_ratios) * len(parsed.fractions) * len(parsed.seeds)
    assert len(rows) == cells * sum(len(METHODS[m]) for m in parsed.methods)
    assert code == (1 if any(row["status"] == "failed" for row in rows) else 0)
    if not any(key in ("matrix", "dataset") or key.startswith("file.") for key in overrides):
        for row in rows:
            assert row["status"] == "ok" or UNFORESEEABLE.match(row["diagnostic"]), row


def test_a_nul_byte_in_a_config_path_is_a_user_error(tmp_path, capsys):
    """A config file can hold a NUL byte, which no path can: an `out` holding one exits 2
    before any cell runs, and a `matrix` holding one fails the cells with an InputError
    naming the path (and `train` exits 2 with it)."""
    config = tmp_path / "nul.cfg"
    config.write_text(BASE_CONFIG + "out = nul\0out\n", encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: cannot use nul\0out as the output directory: "
                              "embedded null byte\n")
    config.write_text(BASE_CONFIG + f"noise_ratios = 0.2\nmatrix = nul\0m.csv\n"
                      f"out = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 1
    with open(tmp_path / "out" / "results.csv", encoding="utf-8", newline="") as fh:
        assert {row["diagnostic"] for row in csv.DictReader(fh)} == {
            "InputError: nul\0m.csv: embedded null byte"}
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: nul\0m.csv: embedded null byte\n"


# --- two runs into one directory ------------------------------------------------------

RUN = st.tuples(st.lists(st.sampled_from(["0", "0.2", "0.4"]), min_size=1, max_size=2,
                         unique=True),
                st.lists(st.sampled_from(list(METHODS)), min_size=1, max_size=2, unique=True))


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(first=RUN, second=RUN)
def test_a_second_run_into_one_directory_leaves_exactly_its_own_report(tmp_path, capsys,
                                                                        first, second):
    config = tmp_path / "base.cfg"
    config.write_text(BASE_CONFIG, encoding="utf-8")
    shared, fresh = (pathlib.Path(tempfile.mkdtemp(dir=tmp_path)) for _ in range(2))
    (shared / "notes.txt").write_bytes(b"kept\n")

    def run(out, ratios, methods):
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--set", f"noise_ratios={','.join(ratios)}",
                     "--set", f"methods={','.join(methods)}"]) == 0

    run(shared, *first)
    run(shared, *second)
    run(fresh, *second)
    capsys.readouterr()
    pivots = {pivot_name(float(ratio)) for ratio in second[0]}
    assert set(os.listdir(shared)) == {"results.csv", "run.log", "notes.txt", *pivots}
    assert (shared / "notes.txt").read_bytes() == b"kept\n"
    for name in ("results.csv", *pivots):
        assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name


# --- `train --save` paths -------------------------------------------------------------

# a save path is a head, a name and a tail under a directory holding `dir`, `file`, `fifo`
# and links to `dir`, to a missing directory and to `file`; or an open or closed /dev/fd/N
HEADS = ["", "dir/", "missing/", "to-dir/", "to-missing/", "to-file/", "dir/../",
         "missing/../", "./"]
NAMES = ["new.ckpt", "dir", "file", "to-dir", "to-missing", "to-file", ".", "..",
         "n" * 254, "n" * 255, "n" * 256]
TAILS = ["", "/", "/.", "/.."]
SAVE = st.one_of(st.tuples(st.sampled_from(HEADS), st.sampled_from(NAMES),
                           st.sampled_from(TAILS)).map("".join),
                 st.sampled_from(["fifo", "open descriptor", "closed descriptor"]))


def _tree(root) -> dict:
    """Every entry under `root` with its bytes (None for a directory, FIFO or link)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() and not p.is_symlink()
            else None for p in pathlib.Path(root).rglob("*")}


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(save=SAVE)
def test_train_save_exits_2_before_training_or_writes_a_loadable_checkpoint(tmp_path, capsys,
                                                                            save):
    config = tmp_path / "base.cfg"
    config.write_text(BASE_CONFIG, encoding="utf-8")
    root = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    (root / "dir").mkdir()
    (root / "file").write_bytes(b"kept\n")
    os.mkfifo(root / "fifo")
    for link, target in (("to-dir", "dir"), ("to-missing", "missing"), ("to-file", "file")):
        (root / link).symlink_to(target)
    received = []
    if save == "fifo":  # a FIFO takes the save only while a reader waits
        reader = threading.Thread(target=lambda: received.append((root / "fifo").read_bytes()),
                                  daemon=True)
        reader.start()
    with open(root / "held", "wb") as held:
        closed = os.dup(held.fileno())
        os.close(closed)
        path = {"open descriptor": f"/dev/fd/{held.fileno()}",
                "closed descriptor": f"/dev/fd/{closed}"}.get(save, f"{root}/{save}")
        before = _tree(root)
        capsys.readouterr()
        code = main(["train", "--config", str(config), "--save", path])
        if save == "fifo":
            reader.join(timeout=10)
        out, err = capsys.readouterr()
        assert code in (0, 2)
        if code == 2:
            assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
            assert "epoch" not in out  # rejected before training
            assert _tree(root) == before
            return
        assert err == "" and out.endswith(f"checkpoint written to {path}\n")
        if save == "fifo":
            (root / "fifo.ckpt").write_bytes(received[0])
            path = root / "fifo.ckpt"
        assert load_checkpoint(path).amateur.input_dim == 4
