import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bac import kernels
from bac.errors import BudgetError, EnumerationSizeError, ScheduleError
from bac.scheduler import (
    Schedule,
    _backtrack,
    anchored_objective,
    brute_force_schedule,
    decomposition_objective,
    objective,
    solve_schedule,
    solve_schedule_anchored,
)
from bac.profiler import similarity_matrices

HAND_S = [0.9, 0.1, 0.8, 0.2]


# -- Schedule type ---------------------------------------------------------


def test_schedule_invariants():
    Schedule((0, 3, 5), 8)
    with pytest.raises(ScheduleError):
        Schedule((1, 2), 8)  # missing 0
    with pytest.raises(ScheduleError):
        Schedule((0, 5, 5), 8)  # duplicate
    with pytest.raises(ScheduleError):
        Schedule((0, 9), 8)  # out of range


# -- objective ---------------------------------------------------------------


def test_objective_all_ones_telescopes():
    s = np.ones(9)
    for interior in itertools.combinations(range(1, 10), 3):
        sched = Schedule((0, *interior), 10)
        assert objective(sched, s) == pytest.approx(6.0, abs=1e-12)


def test_objective_all_steps_is_zero():
    s = np.full(7, 0.3)
    sched = Schedule(tuple(range(8)), 8)
    assert objective(sched, s) == 0.0


def test_objective_hand_instance_via_enumeration():
    best_val, best_sched = -np.inf, None
    for interior in itertools.combinations(range(1, 5), 2):
        val = objective(Schedule((0, *interior), 5), HAND_S)
        if val > best_val:
            best_val, best_sched = val, (0, *interior)
    assert best_sched == (0, 2, 4)
    assert best_val == pytest.approx(1.7, abs=1e-12)
    assert objective(Schedule((0, 2, 4), 5), HAND_S) == pytest.approx(1.7, abs=1e-12)


def test_objective_rejects_wrong_horizon():
    with pytest.raises(ScheduleError):
        objective(Schedule((0, 2), 6), HAND_S)


# -- solve_schedule -----------------------------------------------------------


def test_solver_hand_instance():
    sched, tables = solve_schedule(HAND_S, 5, 3)
    assert sched.steps == (0, 2, 4)
    assert objective(sched, HAND_S) == pytest.approx(1.7, abs=1e-12)
    assert tables.endpoint == 4
    assert tables.dp.shape == (3, 5) and tables.ptr.shape == (3, 5)


def test_solver_budget_edges():
    s = np.array([0.5, -0.2, 0.9])
    full, _ = solve_schedule(s, 4, 4)
    assert full.steps == (0, 1, 2, 3)
    assert objective(full, s) == 0.0
    single, _ = solve_schedule(s, 4, 1)
    assert single.steps == (0,)
    assert objective(single, s) == pytest.approx(float(s.sum()), abs=1e-12)


def test_solver_budget_errors():
    with pytest.raises(BudgetError):
        solve_schedule(HAND_S, 5, 0)
    with pytest.raises(BudgetError):
        solve_schedule(HAND_S, 5, 6)


def test_solver_deterministic_under_ties():
    s = np.zeros(9)  # every choice ties
    a, _ = solve_schedule(s, 10, 4)
    b, _ = solve_schedule(s, 10, 4)
    assert a.steps == b.steps


def test_solver_reports_its_own_objective():
    rng = np.random.default_rng(8)
    for _ in range(20):
        K = int(rng.integers(3, 30))
        budget = int(rng.integers(1, K + 1))
        s = rng.uniform(-1, 1, K - 1)
        sched, tables = solve_schedule(s, K, budget)
        prefix = np.concatenate([[0.0], np.cumsum(s)])
        reported = tables.dp[budget - 1, tables.endpoint] + (
            prefix[K - 1] - prefix[tables.endpoint]
        )
        assert objective(sched, s) == pytest.approx(reported, abs=1e-9)


def test_backtrack_rejects_chain_missing_step_zero():
    # both solvers backtrack through this helper; a pointer chain that ends
    # anywhere but step 0 is a corrupt table, not a schedule
    ptr = np.array([[-1, -1, -1, -1], [-1, 0, 0, 0], [-1, -1, 1, 1]])
    assert _backtrack(ptr, 3, 2, 4).steps == (0, 1, 3)
    ptr[1, 1] = 2
    with pytest.raises(ScheduleError, match="step 0"):
        _backtrack(ptr, 3, 2, 4)


# -- oracles ---------------------------------------------------------------------


def test_brute_force_hand_instance():
    assert brute_force_schedule(HAND_S, 5, 3).steps == (0, 2, 4)
    assert brute_force_schedule(HAND_S, 5, 1).steps == (0,)


def test_brute_force_guard():
    s = np.zeros(60)
    with pytest.raises(EnumerationSizeError):
        brute_force_schedule(s, 61, 10)


def test_decomposition_hand_values():
    assert decomposition_objective(HAND_S, 5, 3) == pytest.approx(1.7, abs=1e-12)
    assert decomposition_objective(HAND_S, 5, 1) == pytest.approx(2.0, abs=1e-12)
    assert decomposition_objective(np.full(6, 0.4), 7, 3) == pytest.approx(
        4 * 0.4, abs=1e-12
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dp_matches_both_oracles(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 13))
    budget = int(rng.integers(1, min(9, K) + 1))
    s = rng.uniform(-1, 1, K - 1)
    dp_obj = objective(solve_schedule(s, K, budget)[0], s)
    assert dp_obj == pytest.approx(
        objective(brute_force_schedule(s, K, budget), s), abs=1e-9
    )
    assert dp_obj == pytest.approx(decomposition_objective(s, K, budget), abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_budget_monotone_for_nonnegative_s(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(3, 20))
    s = rng.uniform(0, 1, K - 1)
    values = [
        objective(solve_schedule(s, K, budget)[0], s) for budget in range(1, K + 1)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_solver_returns_valid_schedule(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 40))
    budget = int(rng.integers(1, K + 1))
    s = rng.uniform(-1, 1, K - 1)
    sched, _ = solve_schedule(s, K, budget)
    assert len(sched.steps) == budget
    assert sched.steps[0] == 0
    assert list(sched.steps) == sorted(set(sched.steps))
    assert sched.steps[-1] < K


# -- anchored variant ---------------------------------------------------------------


def _random_sim(rng, K):
    m = rng.uniform(-1, 1, (K, K))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    return m


def test_anchored_matches_small_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(10):
        K = int(rng.integers(3, 9))
        budget = int(rng.integers(1, K + 1))
        sim = _random_sim(rng, K)
        got = solve_schedule_anchored(sim, budget)
        best = max(
            (
                Schedule((0, *interior), K)
                for interior in itertools.combinations(range(1, K), budget - 1)
            ),
            key=lambda sched: anchored_objective(sched, sim),
        )
        assert anchored_objective(got, sim) == pytest.approx(
            anchored_objective(best, sim), abs=1e-9
        )


def _anchored_loop(sim, budget_S):
    """Exact-parity oracle: the anchored DP as a pure-Python triple loop.

    Runs on Python floats, whose IEEE double arithmetic is numpy's, so its
    tables and schedule must equal kernels.anchored_dp_fill's bit for bit.
    Returns (schedule, dp, ptr).
    """
    sim = np.asarray(sim, dtype=np.float64)
    K = sim.shape[0]
    row_prefix = np.cumsum(sim, axis=1).tolist()

    def seg(i, j):
        # anchored score of segment (i, j], 0 when empty
        return row_prefix[i][j] - row_prefix[i][i] if j > i else 0.0

    n_interior = budget_S - 1
    dp = [[-math.inf] * K for _ in range(n_interior + 1)]
    ptr = [[-1] * K for _ in range(n_interior + 1)]
    dp[0][0] = 0.0
    for m in range(1, n_interior + 1):
        for j in range(m, K):
            best, best_i = -math.inf, -1
            for i in range(m - 1, j):
                if not math.isfinite(dp[m - 1][i]):
                    continue
                v = dp[m - 1][i] + seg(i, j - 1)
                if v > best:
                    best, best_i = v, i
            if best_i >= 0:
                dp[m][j] = best
                ptr[m][j] = best_i

    totals = [
        dp[n_interior][j] + seg(j, K - 1) if math.isfinite(dp[n_interior][j]) else -math.inf
        for j in range(K)
    ]
    endpoint = int(np.argmax(totals))
    steps = [0] * budget_S
    j = endpoint
    for m in range(n_interior, 0, -1):
        steps[m] = j
        j = ptr[m][j]
    return Schedule(tuple(steps), K), np.array(dp), np.array(ptr, dtype=np.int64)


def _assert_anchored_parity(sim, budget):
    want, dp_want, ptr_want = _anchored_loop(sim, budget)
    assert solve_schedule_anchored(sim, budget) == want
    dp, ptr = kernels.anchored_dp_fill(np.cumsum(sim, axis=1), budget - 1)
    assert np.array_equal(dp, dp_want) and np.array_equal(ptr, ptr_want)


# integer-valued draws from a narrow range tie often; floats break ties
_INT_ELEMENTS = st.integers(-2, 2).map(float)
_MIXED_ELEMENTS = st.one_of(
    _INT_ELEMENTS, st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
)


@given(
    st.tuples(st.integers(1, 30), st.sampled_from([_INT_ELEMENTS, _MIXED_ELEMENTS]))
    .flatmap(lambda kw: arrays(np.float64, (kw[0], kw[0]), elements=kw[1]))
)
@settings(max_examples=60, deadline=None)
def test_anchored_property_matches_loop_oracle(sim):
    for budget in range(1, sim.shape[0] + 1):
        _assert_anchored_parity(sim, budget)


def test_anchored_default_config_matches_loop_oracle(default_denoiser):
    matrices = similarity_matrices(default_denoiser, 1, 42)
    assert len(matrices) == 24
    for budget in range(8, 13):
        for sim in matrices.values():
            _assert_anchored_parity(sim, budget)


@pytest.mark.parametrize("sim", [np.float64(1.0), np.array(0.5)], ids=["scalar", "0d"])
def test_anchored_rejects_zero_dim(sim):
    with pytest.raises(ScheduleError, match="square"):
        solve_schedule_anchored(sim, 1)
    with pytest.raises(ScheduleError, match="square"):
        anchored_objective(Schedule((0,), 1), sim)


@pytest.mark.parametrize(
    "sim",
    [[[1.0, 0.5, 0.2], [0.5, 1.0, 0.4]], [1.0, 0.5], np.ones((2, 2, 2)), np.ones((0, 0))],
    ids=["2x3", "1d", "3d", "empty"],
)
def test_anchored_rejects_non_square(sim):
    with pytest.raises(ScheduleError, match="square"):
        solve_schedule_anchored(sim, 1)
    with pytest.raises(ScheduleError, match="square"):
        anchored_objective(Schedule((0,), 2), sim)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_anchored_rejects_non_finite_naming_entry(bad):
    sim = np.eye(4)
    sim[1, 3] = bad
    sim[2, 3] = np.nan
    with pytest.raises(ScheduleError, match=r"\(1, 3\)"):
        solve_schedule_anchored(sim, 3)
    with pytest.raises(ScheduleError, match=r"\(1, 3\)"):
        anchored_objective(Schedule((0, 1, 2), 4), sim)
