import hashlib
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompact.serialize import (
    dumps_deterministic,
    sha256_file,
    to_jsonable,
    write_atomic,
    write_report,
)

from oracles import dumps_recursive

EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0, 2.0**53])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
SCALARS = FLOATS | st.integers(-(2**70), 2**70) | st.booleans() | st.none() | st.text(max_size=4)

# float rows (the one-join path), float rows with ints mixed in, and any
# nesting of those and of scalars, dicts and empty lists
FLOAT_ROWS = st.lists(FLOATS, min_size=1, max_size=6)
MIXED_ROWS = st.lists(FLOATS | st.integers(-3, 3) | st.booleans(), min_size=1, max_size=6)
REPORTS = st.recursive(
    SCALARS | FLOAT_ROWS | MIXED_ROWS | st.just([]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=30,
)


def test_write_atomic_honours_umask(tmp_path):
    old = os.umask(0o022)
    try:
        target = tmp_path / "report.json"
        write_atomic(str(target), "{}\n")
    finally:
        os.umask(old)
    assert target.read_text() == "{}\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_write_atomic_writes_into_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    write_atomic(str(fifo), "{}\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == ["{}\n"]
    assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]


@given(REPORTS)
@settings(max_examples=300)
def test_dumps_matches_the_recursive_writer(tree):
    assert dumps_deterministic(tree) == dumps_recursive(tree)


def _outcome(write, tree):
    """The text ``write`` gives for ``tree``, or the error it raises."""
    try:
        return write(tree)
    except ValueError as exc:
        return repr(exc)


@pytest.mark.parametrize(
    "array",
    [
        np.array([[True, False], [False, True]]),
        np.array([-128, 0, 127], dtype=np.int8),
        np.array([0, 2**64 - 1], dtype=np.uint64),
        np.array([[0.1, -0.0], [1e38, 5e-45]], dtype=np.float32),
        np.array([[-0.0, 5e-324], [1e308, 0.1]]),
        np.array([1, 2.5, "x", None, [0.5]], dtype=object),
        np.zeros((0, 3)),
        np.float64(2.5) * np.ones(()),
        np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7,
        np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7,
        np.array([[[-0.0, 5e-324]], [[0.1, -5e-324]]]),
        np.array([[1, 2.5], ["x", None]], dtype=object),
        np.zeros((3, 0)),
        np.zeros((2, 0, 3), dtype=np.float32),
        np.array([[0.5, -0.0], [5e-324, np.inf]]),
        np.array([[[0.5, -np.inf]]], dtype=np.float32),
        np.linspace(-1.0, 1.0, 64),
        np.eye(70)[:3] * np.array([1.0, -0.0, 5e-324] * 23 + [0.1]),
        np.where(np.arange(200) % 7, 0.0, np.arange(200) / 3).reshape(2, 100),
        np.concatenate([np.zeros(80), [np.inf], -np.zeros(3)]),
        np.concatenate([-np.zeros(70), [5e-324, -np.inf]]).reshape(1, 72),
    ],
)
def test_arrays_match_the_recursive_writer(array, tmp_path):
    assert_writers_agree({"a": array, "rows": [array, array]}, tmp_path)
    assert to_jsonable(array) == array.tolist()


def assert_writers_agree(tree, tmp_path):
    """``dumps_deterministic`` and ``write_report`` give the recursive
    writer's text, or its error with no file left behind."""
    want = _outcome(dumps_recursive, tree)
    assert _outcome(dumps_deterministic, tree) == want
    target = tmp_path / "report.json"
    raised = _outcome(lambda t: write_report(str(target), t), tree)
    if raised is None:
        assert target.read_text() == want
    else:
        assert raised == want and not target.exists()
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "rows",
    [
        [[0.5], [1.0], [-2.5]],
        [[-0.0], [0.0], [-0.0, 0.0]],
        [[0.25, 1e308], [], [5e-324]],
        [[], []],
        ([0.5, 1.5], (2.5,), [3.5]),
        [[0.5], [1, 2.5], [True], ["x"], [2.5]],
        [[0.5], [1.0], [float("nan")]],
        [[0.5], [-float("inf"), 1.0]],
    ],
)
def test_float_row_lists_match_the_recursive_writer(rows, tmp_path):
    """Lists of float rows (a path's values, one row per knot) are written a
    row per piece: one-element rows, signed zeros, empty rows, rows that are
    not all floats, and a non-finite float in the last row."""
    path = {"knots": [0.0, 1.0], "values": rows}
    assert_writers_agree({"paths": [path, path], "values": rows}, tmp_path)


WIDE_ENTRIES = st.sampled_from([0.0, 0.0, 0.0, -0.0]) | FLOATS


@given(st.lists(WIDE_ENTRIES, min_size=60, max_size=140), st.integers(1, 3))
@settings(max_examples=100)
def test_wide_rows_match_the_recursive_writer(row, n_rows):
    """Rows on both sides of ``WIDE_ROW``, mostly zeros of both signs, as
    arrays of one and two dimensions."""
    wide = np.array(row * n_rows).reshape(n_rows, len(row))
    tree = {"row": wide[0], "matrix": wide}
    assert dumps_deterministic(tree) == dumps_recursive(tree)


def test_writing_a_coupling_holds_one_row_at_a_time(tmp_path):
    """A report with a 1000 x 1000 float coupling (a 22 MB file) is written
    with under 2 MiB of memory beyond the array itself."""
    coupling = np.random.default_rng(0).random((1000, 1000))
    report = {"certificate": {"flow": coupling, "lam": 1.0}, "status_code": 0}
    target = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_report(str(target), report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert target.stat().st_size > 20 * 10**6


def test_write_report_gives_a_fifo_the_whole_text(tmp_path):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    tree = {"flow": np.arange(12.0).reshape(3, 4) / 3}
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    write_report(str(fifo), tree)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [dumps_deterministic(tree)]
    assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_floats_raise(bad):
    for tree in ([1.0, bad, 2.0], np.array([[0.5, bad]]), {"x": bad}, [bad, 1]):
        with pytest.raises(ValueError, match=f"non-finite float {bad!r}"):
            dumps_deterministic(tree)


def test_complex_arrays_raise():
    with pytest.raises(TypeError, match="complex"):
        dumps_deterministic(np.array([1 + 2j]))


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 200000])
def test_sha256_file_matches_hashlib(size, tmp_path):
    # sizes around the 64 KiB read, and several reads
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    assert sha256_file(str(path)) == hashlib.sha256(data).hexdigest()
