import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompact.serialize import dumps_deterministic, to_jsonable, write_atomic

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
    ],
)
def test_arrays_match_the_recursive_writer(array):
    tree = {"a": array, "rows": [array, array]}
    assert dumps_deterministic(tree) == dumps_recursive(tree)
    assert to_jsonable(array) == array.tolist()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_floats_raise(bad):
    for tree in ([1.0, bad, 2.0], np.array([[0.5, bad]]), {"x": bad}, [bad, 1]):
        with pytest.raises(ValueError, match=f"non-finite float {bad!r}"):
            dumps_deterministic(tree)


def test_complex_arrays_raise():
    with pytest.raises(TypeError, match="complex"):
        dumps_deterministic(np.array([1 + 2j]))
