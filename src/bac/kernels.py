"""Hot numeric kernels, in numpy.

The anchored schedule DP fill and the pairwise-L1 feature spread are the
inner loops of scheduling and profiling; they live here so they can be timed
and tested on their own.  The consecutive schedule is a selection and needs
no kernel; its DP fill stays only as a test reference.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Consecutive schedule DP table fill.  No package code calls it (the
# consecutive optimum is a selection); it stays as the tests' reference for
# that selection, and because perfbench/tracing.py looks it up by name, so
# every traced benchmark run fails without it.
#
# State: dp[m][j] = best total interval score of segments closed so far when
# the m-th chosen update sits at step j (step 0 is always chosen as c_0).
# Transition maximizes base[i] + prefix[j-1] over i < j with
# base[i] = dp[m-1][i] - prefix[i]; ties resolve to the smallest i.  -inf marks
# infeasible states and ptr = -1 marks unset pointers.
# ---------------------------------------------------------------------------


def dp_fill(prefix: np.ndarray, n_interior: int) -> tuple[np.ndarray, np.ndarray]:
    prefix = np.ascontiguousarray(prefix, dtype=np.float64)
    K = prefix.shape[0]
    dp = np.full((n_interior + 1, K), -np.inf)
    ptr = np.full((n_interior + 1, K), -1, dtype=np.int64)
    dp[0, 0] = 0.0
    idx = np.arange(K, dtype=np.int64)
    for m in range(1, n_interior + 1):
        base = dp[m - 1] - prefix
        run = np.maximum.accumulate(base)
        prev = np.concatenate(([-np.inf], run[:-1]))
        improve = base > prev
        arg = np.maximum.accumulate(np.where(improve, idx, -1))
        dp[m, 1:] = run[:-1] + prefix[:-1]
        ptr[m, 1:] = arg[:-1]
    return dp, ptr


# ---------------------------------------------------------------------------
# Anchored schedule DP table fill.
#
# Same state space and sentinels as dp_fill, but a segment (i, j] opened by an
# update at step i is scored against the anchor row i of the similarity
# matrix: seg(i, j) = row_prefix[i, j] - row_prefix[i, i], which is exactly
# 0.0 for the empty segment j = i (x - x is +0.0 for finite x, and the
# scheduler admits only finite matrices).  The transition into an update at j closes
# (i, j-1], so each m takes a column argmax over the (K, K) candidates
# dp[m-1, i] + seg(i, j-1) with i >= j masked to -inf; argmax returns the
# first maximum, so ties resolve to the smallest i.
# ---------------------------------------------------------------------------


def anchored_dp_fill(
    row_prefix: np.ndarray, n_interior: int
) -> tuple[np.ndarray, np.ndarray]:
    row_prefix = np.ascontiguousarray(row_prefix, dtype=np.float64)
    K = row_prefix.shape[0]
    # seg[i, j] = anchored score of (i, j-1] when an update at j follows i
    seg = np.full((K, K), -np.inf)
    seg[:, 1:] = row_prefix[:, :-1] - np.diagonal(row_prefix)[:, None]
    seg[np.tri(K, dtype=bool)] = -np.inf
    dp = np.full((n_interior + 1, K), -np.inf)
    ptr = np.full((n_interior + 1, K), -1, dtype=np.int64)
    dp[0, 0] = 0.0
    cols = np.arange(K)
    for m in range(1, n_interior + 1):
        cand = dp[m - 1][:, None] + seg
        arg = np.argmax(cand, axis=0)
        best = cand[arg, cols]
        ok = best > -np.inf
        dp[m, ok] = best[ok]
        ptr[m, ok] = arg[ok]
    return dp, ptr


# ---------------------------------------------------------------------------
# Pairwise L1 spread over all K*K ordered feature pairs, by sorted gaps.
#
# Per coordinate, sort the K values v_(0) <= ... <= v_(K-1).  The gap
# v_(k) - v_(k-1) lies between k values below and K-k above it, so k*(K-k)
# unordered pairs cross it; summing the weighted gaps over coordinates and
# doubling gives the ordered-pair total in O(n*K log K) time with (K, n)
# temporaries, where a broadcast of all differences costs O(K^2*n).  The
# equivalent rank form 2*sum_i (2i-K+1)*v_(i) is not used: its weights have
# mixed signs and cancel, so a large common offset in the features (say
# 1e8 + small noise) costs it digits that the gaps keep, since the
# difference of two nearby floats is exact.
# ---------------------------------------------------------------------------


def pairwise_l1_total(feats: np.ndarray) -> float:
    """Sum of ||x_t - x_u||_1 over all ordered pairs (t, u) of rows.

    Computed from the sorted per-coordinate gaps, each weighted by the
    k*(K-k) unordered pairs that cross it; O(n*K log K) for K rows of n.
    """
    gaps = np.diff(np.sort(np.asarray(feats, dtype=np.float64), axis=0), axis=0)
    K = gaps.shape[0] + 1
    k = np.arange(1, K, dtype=np.float64)
    return 2.0 * float(((k * (K - k)) @ gaps).sum())
