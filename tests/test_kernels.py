import numpy as np
import pytest

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
