"""Hot numeric kernels, in numpy.

The schedule DP fill and the pairwise-L1 feature spread are the two inner
loops of scheduling and profiling; they live here so they can be timed and
tested on their own.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Schedule DP table fill.
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
# Mean pairwise L1 distance over all K*K ordered feature pairs (diagonal 0).
# ---------------------------------------------------------------------------


def pairwise_l1_total(feats: np.ndarray) -> float:
    """Sum of ||x_t - x_u||_1 over all ordered pairs (t, u)."""
    feats = np.ascontiguousarray(feats, dtype=np.float64)
    K = feats.shape[0]
    total = 0.0
    # chunked broadcast keeps peak memory at chunk*K*N floats
    chunk = max(1, int(4e6) // max(1, K * feats.shape[1]))
    for start in range(0, K, chunk):
        block = feats[start : start + chunk]
        total += float(np.abs(block[:, None, :] - feats[None, :, :]).sum())
    return total
