"""Hot numeric kernels: numba-jitted by default, pure numpy on demand.

Set ``BAC_NO_NUMBA=1`` to force the numpy path; it is also taken automatically
when numba is not importable.  The DP fill evaluates the same floating-point
expressions with the same associativity on both paths, so its tables are
bit-identical across backends (asserted by tests); the pairwise-L1 reduction
differs only in summation order.  benchmarks/bench_kernels.py times both.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap if not (args and callable(args[0])) else args[0]


def use_numba() -> bool:
    return HAVE_NUMBA and os.environ.get("BAC_NO_NUMBA", "") != "1"


def active_backend() -> str:
    return "numba" if use_numba() else "numpy"


# ---------------------------------------------------------------------------
# Schedule DP table fill.
#
# State: dp[m][j] = best total interval score of segments closed so far when
# the m-th chosen update sits at step j (step 0 is always chosen as c_0).
# Transition maximizes base[i] + prefix[j-1] over i < j with
# base[i] = dp[m-1][i] - prefix[i]; ties resolve to the smallest i.  -inf marks
# infeasible states and ptr = -1 marks unset pointers.
# ---------------------------------------------------------------------------


def _dp_fill_numpy(prefix: np.ndarray, n_interior: int) -> tuple[np.ndarray, np.ndarray]:
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


@njit(cache=True)
def _dp_fill_numba(prefix, n_interior):  # pragma: no cover - numba-compiled
    K = prefix.shape[0]
    dp = np.full((n_interior + 1, K), -np.inf)
    ptr = np.full((n_interior + 1, K), -1, dtype=np.int64)
    dp[0, 0] = 0.0
    for m in range(1, n_interior + 1):
        best = -np.inf
        best_i = -1
        for j in range(1, K):
            i = j - 1
            v = dp[m - 1, i] - prefix[i]
            if v > best:
                best = v
                best_i = i
            if best_i >= 0:
                dp[m, j] = best + prefix[j - 1]
                ptr[m, j] = best_i
    return dp, ptr


def dp_fill(prefix: np.ndarray, n_interior: int) -> tuple[np.ndarray, np.ndarray]:
    prefix = np.ascontiguousarray(prefix, dtype=np.float64)
    if use_numba():
        return _dp_fill_numba(prefix, n_interior)
    return _dp_fill_numpy(prefix, n_interior)


# ---------------------------------------------------------------------------
# Mean pairwise L1 distance over all K*K ordered feature pairs (diagonal 0).
# ---------------------------------------------------------------------------


def _pairwise_l1_total_numpy(feats: np.ndarray) -> float:
    K = feats.shape[0]
    total = 0.0
    # chunked broadcast keeps peak memory at chunk*K*N floats
    chunk = max(1, int(4e6) // max(1, K * feats.shape[1]))
    for start in range(0, K, chunk):
        block = feats[start : start + chunk]
        total += float(np.abs(block[:, None, :] - feats[None, :, :]).sum())
    return total


@njit(cache=True)
def _pairwise_l1_total_numba(feats):  # pragma: no cover - numba-compiled
    K, N = feats.shape
    total = 0.0
    for t in range(K):
        for u in range(t + 1, K):
            acc = 0.0
            for n in range(N):
                diff = feats[t, n] - feats[u, n]
                acc += diff if diff >= 0.0 else -diff
            total += 2.0 * acc
    return total


def pairwise_l1_total(feats: np.ndarray) -> float:
    """Sum of ||x_t - x_u||_1 over all ordered pairs (t, u)."""
    feats = np.ascontiguousarray(feats, dtype=np.float64)
    if use_numba():
        return float(_pairwise_l1_total_numba(feats))
    return _pairwise_l1_total_numpy(feats)
