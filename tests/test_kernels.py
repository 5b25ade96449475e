import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bac import kernels


def test_dp_fill_sentinels():
    prefix = np.array([0.0, 0.5, 1.0, 1.2])
    dp, ptr = kernels.dp_fill(prefix, 2)
    assert dp[0, 0] == 0.0 and np.all(np.isneginf(dp[0, 1:]))
    assert np.isneginf(dp[1, 0])        # first interior update cannot sit at 0
    assert np.isneginf(dp[2, :2]).all()  # two interior updates need j >= 2
    # pointer entries are always strictly below their column
    cols = np.arange(prefix.size)
    assert np.all(ptr < cols)


def test_anchored_dp_fill_sentinels():
    sim = np.arange(16.0).reshape(4, 4)
    row_prefix = np.cumsum(sim, axis=1)
    dp, ptr = kernels.anchored_dp_fill(row_prefix, 2)
    assert dp.shape == ptr.shape == (3, 4)
    assert dp[0, 0] == 0.0 and np.all(np.isneginf(dp[0, 1:]))
    assert np.isneginf(dp[1, 0])        # first interior update cannot sit at 0
    assert np.isneginf(dp[2, :2]).all()  # two interior updates need j >= 2
    # row 0 has no predecessor; below it, unset pointers are exactly the
    # infeasible states, and set ones lie below their column
    assert np.all(ptr[0] == -1)
    assert np.array_equal(ptr[1:] == -1, np.isneginf(dp[1:]))
    cols = np.arange(4)
    assert np.all(ptr < cols)
    # one interior update at j closes the anchor-0 segment (0, j-1]
    assert dp[1, 1:].tolist() == [0.0, 1.0, 3.0]
    assert ptr[1, 1:].tolist() == [0, 0, 0]


def test_pairwise_l1_matches_brute_force():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(37, 50))
    brute = sum(
        float(np.abs(X[t] - X[u]).sum()) for t in range(37) for u in range(37)
    )
    assert kernels.pairwise_l1_total(X) == pytest.approx(brute, rel=1e-12)


def test_pairwise_l1_constant_rows_zero():
    X = np.ones((5, 4)) * 2.5
    assert kernels.pairwise_l1_total(X) == 0.0


def _brute_l1_total(X):
    K = X.shape[0]
    return math.fsum(
        float(np.abs(X[t] - X[u]).sum()) for t in range(K) for u in range(K)
    )


# integer-valued draws from a narrow range give many ties and negatives
_ELEMENTS = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)


@given(
    st.tuples(st.integers(1, 40), st.integers(0, 8)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=_ELEMENTS)
    )
)
@settings(max_examples=80, deadline=None)
def test_pairwise_l1_property_matches_double_loop(X):
    assert kernels.pairwise_l1_total(X) == pytest.approx(_brute_l1_total(X), rel=1e-12)


def test_pairwise_l1_large_common_offset_exact():
    rng = np.random.default_rng(3)
    X = 1e8 + rng.normal(0.0, 1e-3, size=(30, 8))
    rows = [[Fraction(v) for v in row] for row in X.tolist()]
    exact = sum(
        abs(a - b) for r in rows for q in rows for a, b in zip(r, q)
    )
    assert kernels.pairwise_l1_total(X) == pytest.approx(float(exact), rel=1e-12)


def test_pairwise_l1_single_step_is_zero():
    assert kernels.pairwise_l1_total(np.arange(6.0).reshape(1, 6)) == 0.0
