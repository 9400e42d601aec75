"""Tests for repro.numeric — float totals that do not depend on the
interpreter.

The oracle is the builtin ``sum`` as CPython 3.11 and earlier compute a
float total: start from the integer 0 and add left to right.  It is
spelled out as a loop, because Python 3.12's builtin compensates
(Neumaier) and is no reference there.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numeric import left_sum, left_sums


def builtin_sum_311(values):
    """``sum(values)`` of floats as CPython <= 3.11 computes it."""
    total = 0
    for value in values:
        total = total + value
    return total


def hexes(values):
    return [float(value).hex() for value in values]


#: Floats whose left-to-right total rounds at every step, plus both
#: signed zeros and infinities.
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 0.1, float("inf")]),
)


class TestLeftSum:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(floats, max_size=60))
    def test_equals_the_311_builtin_bit_for_bit(self, values):
        assert left_sum(values).hex() == float(
            builtin_sum_311(values)
        ).hex()

    @pytest.mark.skipif(
        sys.version_info >= (3, 12),
        reason="3.12's builtin sum compensates float totals",
    )
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(floats, min_size=1, max_size=60))
    def test_the_oracle_is_the_builtin_before_312(self, values):
        assert float(builtin_sum_311(values)).hex() == float(
            sum(values)
        ).hex()

    def test_signed_zeros_total_like_the_builtin(self):
        # The builtin starts from the integer 0: 0 + -0.0 is +0.0.
        assert left_sum([-0.0]).hex() == "0x0.0p+0"
        assert left_sum([-0.0, -0.0]).hex() == "0x0.0p+0"
        assert left_sum(np.array([-0.0, 1.0, -1.0])).hex() == "0x0.0p+0"

    def test_order_is_left_to_right_not_pairwise(self):
        values = [1e16, 1.0, -1e16, 1.0] * 40
        # The walk loses each 1.0 that meets 1e16; pairwise and
        # compensated sums keep some of them.
        assert left_sum(values) == builtin_sum_311(values)
        assert left_sum(values) != float(np.sum(values))

    def test_empty_and_python_float(self):
        assert left_sum([]) == 0.0
        assert type(left_sum([])) is float
        assert type(left_sum(np.arange(3.0))) is float


class TestLeftSums:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_each_column_is_its_left_sum(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
            -12, 13, size=(rows, cols)
        )
        matrix[rng.random((rows, cols)) < 0.1] = -0.0
        assert hexes(left_sums(matrix)) == [
            float(builtin_sum_311(column)).hex()
            for column in matrix.T.tolist()
        ]

    def test_empty_first_axis(self):
        assert left_sums(np.empty((0, 3))).tolist() == [0.0, 0.0, 0.0]
