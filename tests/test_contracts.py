"""Contract fuzzing of the file readers: a damaged matrix file, table or checkpoint
either reads or raises an InputError whose message starts with the file's path, and
no read emits a warning.

The damage is byte edits to a valid file: flips, insertions, deletions, a number
replaced by a huge one, and deep nesting.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expertnet.data import load_table
from expertnet.errors import ConfigurationError, InputError
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
        except ConfigurationError as exc:
            # a checkpoint of another format or version is reported as a ConfigurationError
            # (the checkpoint tests pin that class); it names the file too
            assert reader == "checkpoint"
            assert re.match(re.escape(str(path)) +
                            "( is not an expertnet-checkpoint file|: unsupported checkpoint "
                            "version)", str(exc))
