"""Optimal per-block cache-update schedules.

A schedule for a horizon of K steps is an ascending set of update timesteps
that always contains step 0 (a cold cache forces computation at the first
step).  Given the consecutive similarities s_1..s_{K-1} of a block, the score
of a schedule is the summed interval similarity of the reuse segments it
induces:

    score(C) = sum_m phi(c_m, c_{m+1} - 1),   phi(i, j) = prefix[j] - prefix[i]

with c_0 = 0 and the virtual right boundary c_{M+1} = K.  Choosing an interior
update at step c removes exactly s_c from the covered sum, so the optimum also
equals total(s) minus the sum of the smallest selectable values; that analytic
form and an exhaustive enumeration both serve as independent oracles for the
dynamic-programming solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BudgetError, EnumerationSizeError, ScheduleError


@dataclass(frozen=True)
class Schedule:
    """Ascending update steps for one block over horizon K; 0 is mandatory."""

    steps: tuple[int, ...]
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ScheduleError("horizon must be positive")
        if not self.steps or self.steps[0] != 0:
            raise ScheduleError("schedule must contain step 0")
        for a, b in zip(self.steps, self.steps[1:]):
            if b <= a:
                raise ScheduleError("steps must be strictly ascending")
        if self.steps[-1] >= self.K:
            raise ScheduleError(f"step {self.steps[-1]} outside [0, {self.K})")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class DpTables:
    """Filled DP/pointer matrices and the chosen endpoint of the backtrack."""

    dp: np.ndarray   # (M+1, K), -inf marks infeasible states
    ptr: np.ndarray  # (M+1, K), entries < their column index, -1 unset
    endpoint: int


def _prefix_sums(s: np.ndarray) -> np.ndarray:
    prefix = np.zeros(len(s) + 1)
    np.cumsum(s, out=prefix[1:])
    return prefix


def _validate_similarities(s) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or len(s) < 1:
        raise ScheduleError("similarity sequence must be a non-empty 1-D array")
    return s


def objective(schedule: Schedule, s) -> float:
    """Covered interval similarity of ``schedule`` under s_1..s_{K-1}."""
    s = _validate_similarities(s)
    K = len(s) + 1
    if schedule.K != K:
        raise ScheduleError(f"schedule horizon {schedule.K} != {K}")
    prefix = _prefix_sums(s)
    starts = np.array(schedule.steps, dtype=np.int64)
    ends = np.append(starts[1:], K) - 1  # segment (c_m, c_{m+1} - 1]
    return float(np.sum(prefix[ends] - prefix[starts]))


def solve_schedule(s, K: int, budget_S: int) -> tuple[Schedule, DpTables]:
    """Maximize the covered similarity with exactly ``budget_S`` updates.

    Fills the DP and pointer tables (kernels.dp_fill), picks the endpoint that
    maximizes the table value plus the final open segment, and backtracks the
    pointers.  All argmax ties resolve to the smallest index, so the result is
    deterministic across runs and backends.
    """
    s = _validate_similarities(s)
    if K != len(s) + 1:
        raise ScheduleError(f"K={K} inconsistent with len(s)={len(s)}")
    if not 1 <= budget_S <= K:
        raise BudgetError(f"budget {budget_S} outside [1, {K}]")

    n_interior = budget_S - 1
    prefix = _prefix_sums(s)[:K]  # prefix[t] = s_1 + ... + s_t
    dp, ptr = kernels.dp_fill(prefix, n_interior)

    endpoint = _best_endpoint(dp[n_interior] + (prefix[K - 1] - prefix), budget_S)
    schedule = _backtrack(ptr, endpoint, n_interior, K)
    return schedule, DpTables(dp=dp, ptr=ptr, endpoint=endpoint)


def _best_endpoint(totals: np.ndarray, budget_S: int) -> int:
    """Smallest step maximizing the table value plus the final open segment."""
    finite = np.isfinite(totals)
    if not finite.any():
        raise BudgetError(f"no feasible schedule for budget {budget_S}")
    return int(np.argmax(np.where(finite, totals, -np.inf)))


def _backtrack(ptr: np.ndarray, endpoint: int, n_interior: int, K: int) -> Schedule:
    steps = [0] * (n_interior + 1)
    j = endpoint
    for m in range(n_interior, 0, -1):
        steps[m] = j
        j = int(ptr[m, j])
    if j != 0:
        raise ScheduleError("backtrack did not terminate at step 0")
    return Schedule(tuple(steps), K)


def brute_force_schedule(s, K: int, budget_S: int) -> Schedule:
    """Exhaustive oracle: evaluate every interior-step combination.

    Guarded to at most 1e6 candidates; ties resolve to the lexicographically
    smallest combination (enumeration order).
    """
    s = _validate_similarities(s)
    if K != len(s) + 1:
        raise ScheduleError(f"K={K} inconsistent with len(s)={len(s)}")
    if not 1 <= budget_S <= K:
        raise BudgetError(f"budget {budget_S} outside [1, {K}]")
    m = budget_S - 1
    n_candidates = math.comb(K - 1, m)
    if n_candidates > 10**6:
        raise EnumerationSizeError(
            f"C({K - 1}, {m}) = {n_candidates} exceeds the 1e6 guard"
        )

    prefix = _prefix_sums(s)
    if m == 0:
        return Schedule((0,), K)
    combos = np.array(
        list(itertools.combinations(range(1, K), m)), dtype=np.int64
    )
    zeros = np.zeros((len(combos), 1), dtype=np.int64)
    starts = np.hstack([zeros, combos])
    ends = np.hstack([combos, np.full((len(combos), 1), K, dtype=np.int64)]) - 1
    scores = (prefix[ends] - prefix[starts]).sum(axis=1)
    best = int(np.argmax(scores))
    return Schedule((0, *map(int, combos[best])), K)


def decomposition_objective(s, K: int, budget_S: int) -> float:
    """Analytic optimum: total similarity minus the budget-1 smallest values."""
    s = _validate_similarities(s)
    if K != len(s) + 1:
        raise ScheduleError(f"K={K} inconsistent with len(s)={len(s)}")
    if not 1 <= budget_S <= K:
        raise BudgetError(f"budget {budget_S} outside [1, {K}]")
    m = budget_S - 1
    if m == 0:
        return float(np.sum(s))
    removed = np.partition(s, m - 1)[:m]
    return float(np.sum(s) - np.sum(removed))


# ---------------------------------------------------------------------------
# Anchored variant (experimentation only): a segment starting at update step i
# is scored by the similarity of each covered step to the anchor feature b_i
# itself, which needs the full K x K similarity matrix instead of consecutive
# similarities.  The DP has the same state space as solve_schedule and its
# fill is the numpy kernel kernels.anchored_dp_fill.  Reached only through
# `bac schedule --anchored`; not used by the default pipeline.
# ---------------------------------------------------------------------------


def _validate_matrix(sim) -> np.ndarray:
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1] or sim.size == 0:
        raise ScheduleError("similarity matrix must be a non-empty square 2-D array")
    bad = np.argwhere(~np.isfinite(sim))
    if len(bad):
        i, j = map(int, bad[0])
        raise ScheduleError(f"similarity matrix entry ({i}, {j}) is {sim[i, j]}")
    return sim


def anchored_objective(schedule: Schedule, sim: np.ndarray) -> float:
    """Covered anchored similarity of ``schedule`` under the K x K matrix."""
    sim = _validate_matrix(sim)
    K = sim.shape[0]
    if schedule.K != K:
        raise ScheduleError(f"schedule horizon {schedule.K} != {K}")
    row_prefix = np.cumsum(sim, axis=1)
    starts = np.array(schedule.steps, dtype=np.int64)
    ends = np.append(starts[1:], K) - 1  # segment (c_m, c_{m+1} - 1]
    return float(np.sum(row_prefix[starts, ends] - row_prefix[starts, starts]))


def solve_schedule_anchored(sim: np.ndarray, budget_S: int) -> Schedule:
    """Maximize the covered anchored similarity with exactly ``budget_S`` updates.

    Fills the tables with kernels.anchored_dp_fill, then picks the endpoint
    and backtracks as solve_schedule does; ties resolve to the smallest index.
    """
    sim = _validate_matrix(sim)
    K = sim.shape[0]
    if not 1 <= budget_S <= K:
        raise BudgetError(f"budget {budget_S} outside [1, {K}]")

    n_interior = budget_S - 1
    row_prefix = np.cumsum(sim, axis=1)
    dp, ptr = kernels.anchored_dp_fill(row_prefix, n_interior)
    tail = row_prefix[:, K - 1] - np.diagonal(row_prefix)  # segment (j, K-1]
    endpoint = _best_endpoint(dp[n_interior] + tail, budget_S)
    return _backtrack(ptr, endpoint, n_interior, K)
