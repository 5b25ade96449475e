"""Self-contained invariant suite behind `bac verify`.

Each check returns (name, passed, detail) from its own fixed seed and case
count; `run_all`, which takes no arguments, executes the suite on desk-scale
inputs in well under a minute.  Only the three solver checks accept an
injectable solver, so a deliberately broken implementation is detectable (used
by the tests as a mutation harness).  Those three share one sweep,
``_worst_gap``: the largest gap between the solver's score and an oracle's
over seeded random instances.
"""

from __future__ import annotations

import numpy as np

from .blocks import canonical_blocks
from .bua import SchedulePlan, bubble_union, downstream_ffns
from .config import DenoiserConfig
from .denoiser import FfnWeights, build_denoiser, denoise_full, execute, synth_episode
from .engine import block_errors, run_cached, uniform_plan
from .errorlab import linear_response, ln_eps_free, ln_operators, remainder_curve
from .rng import derive_seed
from .scheduler import (
    anchored_objective,
    brute_force_schedule,
    brute_force_schedule_anchored,
    decomposition_objective,
    objective,
    solve_schedule,
    solve_schedule_anchored,
)

Check = tuple[str, bool, str]


def _default_solver(s, K, budget):
    sched, _ = solve_schedule(s, K, budget)
    return sched


def _worst_gap(seed, cases, max_K, max_budget, matrix, gap) -> float:
    """The largest ``|gap(s, K, budget)|`` over ``cases`` draws from ``seed``,
    each in this order: K in [5, max_K), budget in [1, min(max_budget, K)],
    and s uniform in [-1, 1), a (K, K) matrix if ``matrix`` else K - 1 values."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        K = int(rng.integers(5, max_K))
        budget = int(rng.integers(1, min(max_budget, K) + 1))
        s = rng.uniform(-1.0, 1.0, size=(K, K) if matrix else K - 1)
        worst = max(worst, abs(gap(s, K, budget)))
    return worst


def check_dp_vs_brute_force(solver=_default_solver) -> Check:
    worst = _worst_gap(2024, 60, 15, 9, False, lambda s, K, budget: (
        objective(solver(s, K, budget), s) - objective(brute_force_schedule(s, K, budget), s)))
    return ("dp-vs-brute-force", worst <= 1e-9, f"max_abs_gap={worst:.3e}")


def check_anchored_dp_vs_brute_force(solver=solve_schedule_anchored) -> Check:
    worst = _worst_gap(2026, 40, 13, 7, True, lambda sim, K, budget: (
        anchored_objective(solver(sim, budget), sim)
        - anchored_objective(brute_force_schedule_anchored(sim, budget), sim)))
    return ("anchored-dp-vs-brute-force", worst <= 1e-9, f"max_abs_gap={worst:.3e}")


def check_decomposition_identity(solver=_default_solver) -> Check:
    worst = _worst_gap(2025, 60, 25, 9, False, lambda s, K, budget: (
        objective(solver(s, K, budget), s) - decomposition_objective(s, K, budget)))
    return ("decomposition-identity", worst <= 1e-9, f"max_abs_gap={worst:.3e}")


def check_linear_response_suite() -> Check:
    rng = np.random.default_rng(77)
    d = 32
    ok = True
    details = []

    ratios = np.concatenate([remainder_curve(rng, d, [1e-2, 5e-3, 2.5e-3]).ratios
                             for _ in range(12)])
    med = float(np.median(ratios))
    if not 3.5 <= med <= 4.5:
        ok = False
    details.append(f"remainder_ratio_median={med:.3f}")

    worst = 0.0
    for _ in range(20):
        d_j = int(rng.choice([3, 8, 64]))
        x = rng.normal(size=d_j)
        gamma = rng.uniform(0.5, 1.5, size=d_j)
        if np.std(x) < 0.1:
            continue
        a_op, b_op = ln_operators(x, gamma)
        jac = _fd_ln_jacobian(x, gamma)
        rel = np.linalg.norm((a_op - b_op) - jac) / np.linalg.norm(jac)
        worst = max(worst, rel)
    if worst > 1e-5:
        ok = False
    details.append(f"jacobian_rel_err={worst:.2e}")

    null = 0.0
    for _ in range(10):
        x = rng.normal(size=2)
        if abs(x[0] - x[1]) < 1e-3:
            continue
        params = FfnWeights(
            w1=rng.normal(size=(2, 8)),
            b1=np.zeros(8),
            w2=rng.normal(size=(8, 2)),
            b2=np.zeros(2),
            gamma=np.ones(2),
        )
        null = max(null, float(np.linalg.norm(linear_response(params, x, rng.normal(size=2)))))
    if null > 1e-12:
        ok = False
    details.append(f"null_response_d2={null:.2e}")
    return ("first-order-response", ok, "; ".join(details))


def _fd_ln_jacobian(x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    h = 1e-5
    d = x.shape[0]
    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        jac[:, j] = (ln_eps_free(x + e, gamma) - ln_eps_free(x - e, gamma)) / (2 * h)
    return jac


def check_bubble_union_properties() -> Check:
    """On random plans and selections, row by row of the update masks: a
    selected block's row keeps its steps and holds its downstream FFNs'
    rows, every other row is unchanged, and a second union changes nothing.
    A kept step 0 needs no check of its own: ``Schedule`` refuses a plan
    without it."""
    cases = 20
    rng = np.random.default_rng(31)
    for _ in range(cases):
        layers = int(rng.integers(2, 6))
        K = int(rng.integers(8, 40))
        blocks = canonical_blocks(layers)
        mask = rng.random((3 * layers, K)) < 0.15
        mask[:, 0] = True
        plan = SchedulePlan.from_mask(mask)
        k = int(rng.integers(0, len(blocks) + 1))
        upstream = set(rng.choice(blocks, size=k, replace=False).tolist()) if k else set()
        out = bubble_union(plan, upstream)
        before, after = plan.update_mask, out.update_mask
        again = bubble_union(out, upstream).update_mask
        for b in blocks:
            row = after[b.ordinal]
            if b in upstream:
                if (before[b.ordinal] & ~row).any():
                    return ("bubble-union-properties", False, f"superset broken at {b.name}")
                down = [v.ordinal for v in downstream_ffns(b, layers)]
                if (after[down] & ~row).any():
                    return ("bubble-union-properties", False, f"downstream not absorbed at {b.name}")
            elif not np.array_equal(row, before[b.ordinal]):
                return ("bubble-union-properties", False, f"untouched block changed: {b.name}")
            if not np.array_equal(again[b.ordinal], row):
                return ("bubble-union-properties", False, f"not idempotent at {b.name}")
    return ("bubble-union-properties", True, f"plans_checked={cases}")


def check_bit_exact_full_plan() -> Check:
    """``run_cached`` bit for bit: the full plan, computed from step 0,
    against the full pass it is reported against, and a uniform plan that
    reuses against ``execute`` of the same mask, in its action and in every
    block's errors."""
    seeds = (3, 11)
    config = DenoiserConfig(layers=3, d_model=32, heads=4, K=40)
    denoiser = build_denoiser(config)
    plan = SchedulePlan.from_mask(np.ones((3 * config.layers, config.K), dtype=bool))
    uniform = uniform_plan(config.K, 10, config.layers)
    for seed in seeds:
        init, obs = synth_episode(config, derive_seed(seed, 0))
        want, trace = denoise_full(denoiser, init, obs)
        got, report = run_cached(denoiser, plan, init, obs, reference=trace)
        if not np.array_equal(got, want):
            return ("bit-exact-full-plan", False, f"seed {seed} diverged")
        if report.final_action_l2 != 0.0:
            return ("bit-exact-full-plan", False, f"seed {seed} nonzero deviation")
        got, report = run_cached(denoiser, uniform, init, obs, reference=trace)
        want, run = execute(denoiser, report.update_mask, init, obs)
        if not (np.array_equal(got, want)
                and np.array_equal(report.errors, block_errors(run, trace))):
            return ("bit-exact-full-plan", False, f"seed {seed} diverged")
    return ("bit-exact-full-plan", True, f"seeds_checked={len(seeds)}")


def run_all() -> list[Check]:
    return [
        check_dp_vs_brute_force(),
        check_anchored_dp_vs_brute_force(),
        check_decomposition_identity(),
        check_linear_response_suite(),
        check_bubble_union_properties(),
        check_bit_exact_full_plan(),
    ]
