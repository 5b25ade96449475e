"""Optimal per-block cache-update schedules.

A schedule for a horizon of K steps is an ascending set of update timesteps
that always contains step 0 (a cold cache forces computation at the first
step).  Given the consecutive similarities s_1..s_{K-1} of a block, the score
of a schedule is the summed interval similarity of the reuse segments it
induces:

    score(C) = sum_m phi(c_m, c_{m+1} - 1),   phi(i, j) = prefix[j] - prefix[i]

with c_0 = 0 and the virtual right boundary c_{M+1} = K.  Choosing an interior
update at step c removes exactly s_c from the covered sum, so the optimum is a
selection: update at the budget-1 steps with the smallest s_c.  The analytic
form total(s) minus those values and an exhaustive enumeration both serve as
independent oracles for it.
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


# Both objectives score a segment (i, j] opened by an update at step i as
# row_prefix[i, j] - row_prefix[i, i] over the row-wise cumulative sum of a
# K x K matrix: the anchored one over the similarity matrix, the consecutive
# one over rows that all equal [0, s_1..s_{K-1}] (a broadcast view).


def _covered(row_prefix: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Covered score of the update steps along the last axis of ``starts``."""
    K = row_prefix.shape[0]
    ends = np.concatenate([starts[..., 1:], np.full(starts.shape[:-1] + (1,), K)], axis=-1) - 1
    return (row_prefix[starts, ends] - row_prefix[starts, starts]).sum(axis=-1)


def _schedule_score(schedule: Schedule, row_prefix: np.ndarray) -> float:
    K = row_prefix.shape[0]
    if schedule.K != K:
        raise ScheduleError(f"schedule horizon {schedule.K} != {K}")
    return float(_covered(row_prefix, np.array(schedule.steps, dtype=np.int64)))


def _enumerate_best(row_prefix: np.ndarray, budget_S: int) -> Schedule:
    """Exhaustive oracle: evaluate every interior-step combination.

    Guarded to at most 1e6 candidates; ties resolve to the lexicographically
    smallest combination (enumeration order).
    """
    K = row_prefix.shape[0]
    m = budget_S - 1
    n_candidates = math.comb(K - 1, m)
    if n_candidates > 10**6:
        raise EnumerationSizeError(
            f"C({K - 1}, {m}) = {n_candidates} exceeds the 1e6 guard"
        )
    combos = np.array(list(itertools.combinations(range(1, K), m)), dtype=np.int64)
    starts = np.hstack([np.zeros((n_candidates, 1), dtype=np.int64), combos])
    best = int(np.argmax(_covered(row_prefix, starts)))
    return Schedule((0, *map(int, combos[best])), K)


def _validate_similarities(s) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or len(s) < 1:
        raise ScheduleError("similarity sequence must be a non-empty 1-D array")
    bad = np.flatnonzero(~np.isfinite(s))
    if len(bad):
        i = int(bad[0])
        raise ScheduleError(f"similarity sequence entry {i} is {s[i]}")
    return s


def _validate_problem(s, K: int, budget_S: int) -> np.ndarray:
    s = _validate_similarities(s)
    if K != len(s) + 1:
        raise ScheduleError(f"K={K} inconsistent with len(s)={len(s)}")
    if not 1 <= budget_S <= K:
        raise BudgetError(f"budget {budget_S} outside [1, {K}]")
    return s


def _tiled_row_prefix(s: np.ndarray) -> np.ndarray:
    prefix = np.concatenate(([0.0], np.cumsum(s)))
    return np.broadcast_to(prefix, (len(prefix), len(prefix)))


def objective(schedule: Schedule, s) -> float:
    """Covered interval similarity of ``schedule`` under s_1..s_{K-1}."""
    return _schedule_score(schedule, _tiled_row_prefix(_validate_similarities(s)))


def solve_schedule(s, K: int, budget_S: int) -> tuple[Schedule, float]:
    """Maximize the covered similarity with exactly ``budget_S`` updates.

    An interior update at step c removes exactly s_c from the covered sum, so
    the optimum updates at the ``budget_S - 1`` steps with the smallest s_c.
    The sort is stable, so ties resolve to the earliest step.  Returns the
    schedule and its covered similarity (``objective``).
    """
    s = _validate_problem(s, K, budget_S)
    interior = np.sort(np.argsort(s, kind="stable")[: budget_S - 1] + 1)
    schedule = Schedule((0, *map(int, interior)), K)
    return schedule, objective(schedule, s)


def brute_force_schedule(s, K: int, budget_S: int) -> Schedule:
    """Exhaustive oracle for ``solve_schedule`` (see ``_enumerate_best``)."""
    s = _validate_problem(s, K, budget_S)
    return _enumerate_best(_tiled_row_prefix(s), budget_S)


def decomposition_objective(s, K: int, budget_S: int) -> float:
    """Analytic optimum: total similarity minus the budget-1 smallest values."""
    s = _validate_problem(s, K, budget_S)
    m = budget_S - 1
    if m == 0:
        return float(np.sum(s))
    removed = np.partition(s, m - 1)[:m]
    return float(np.sum(s) - np.sum(removed))


# ---------------------------------------------------------------------------
# Anchored variant (experimentation only): a segment starting at update step i
# is scored by the similarity of each covered step to the anchor feature b_i
# itself, which needs the full K x K similarity matrix instead of consecutive
# similarities, and no selection solves it: the solver is a DP whose fill is
# the numpy kernel kernels.anchored_dp_fill.  Reached only through
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


def _anchored_problem(sim, budget_S: int) -> np.ndarray:
    """Row prefix of a validated matrix, once the budget fits its horizon."""
    sim = _validate_matrix(sim)
    if not 1 <= budget_S <= len(sim):
        raise BudgetError(f"budget {budget_S} outside [1, {len(sim)}]")
    return np.cumsum(sim, axis=1)


def anchored_objective(schedule: Schedule, sim: np.ndarray) -> float:
    """Covered anchored similarity of ``schedule`` under the K x K matrix."""
    return _schedule_score(schedule, np.cumsum(_validate_matrix(sim), axis=1))


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


def solve_schedule_anchored(sim: np.ndarray, budget_S: int) -> Schedule:
    """Maximize the covered anchored similarity with exactly ``budget_S`` updates.

    Fills the tables with kernels.anchored_dp_fill, picks the endpoint that
    maximizes the table value plus the final open segment, and backtracks the
    pointers; all ties resolve to the smallest index.
    """
    row_prefix = _anchored_problem(sim, budget_S)
    K, n_interior = len(row_prefix), budget_S - 1
    dp, ptr = kernels.anchored_dp_fill(row_prefix, n_interior)
    tail = row_prefix[:, K - 1] - np.diagonal(row_prefix)  # segment (j, K-1]
    endpoint = _best_endpoint(dp[n_interior] + tail, budget_S)
    return _backtrack(ptr, endpoint, n_interior, K)


def brute_force_schedule_anchored(sim: np.ndarray, budget_S: int) -> Schedule:
    """Exhaustive oracle for ``solve_schedule_anchored`` (see ``_enumerate_best``)."""
    return _enumerate_best(_anchored_problem(sim, budget_S), budget_S)
