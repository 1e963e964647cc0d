import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompact.arrays import distinct


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestDistinct:
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-1074, -(2.0**-1074)]),
                st.floats(-1e6, 1e6),
            ),
            max_size=300,
        ),
        st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=200)
    def test_matches_np_unique(self, values, repeat):
        # repeats and signed zeros; long arrays reach numpy's vectorised sort
        arr = np.array(values * repeat, dtype=float)
        assert_bitwise_equal(distinct(arr), np.unique(arr))

    def test_flattens_a_matrix_like_np_unique(self):
        rng = np.random.default_rng(0)
        block = np.round(rng.standard_normal((40, 30)), 1)
        block[rng.random(block.shape) < 0.2] = -0.0
        assert_bitwise_equal(distinct(block), np.unique(block))

    def test_empty(self):
        assert_bitwise_equal(distinct(np.empty(0)), np.unique(np.empty(0)))
