"""Self-contained invariant suite behind `bac verify`.

Each check returns (name, passed, detail) from its own fixed seed and case
count; `run_all`, which takes no arguments, executes the suite on desk-scale
inputs in well under a minute.  Only the three solver checks accept an
injectable solver, so a deliberately broken implementation is detectable (used
by the tests as a mutation harness).
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockId, canonical_blocks
from .bua import SchedulePlan, bubble_union, downstream_ffns
from .config import DenoiserConfig
from .denoiser import FfnWeights, build_denoiser, denoise_full, synth_episode
from .engine import run_cached
from .errorlab import linear_response, ln_eps_free, ln_operators, random_ffn, verify_first_order
from .rng import derive_seed
from .scheduler import (
    Schedule,
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


def check_dp_vs_brute_force(solver=_default_solver) -> Check:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(60):
        K = int(rng.integers(5, 15))
        budget = int(rng.integers(1, min(9, K) + 1))
        s = rng.uniform(-1.0, 1.0, size=K - 1)
        got = objective(solver(s, K, budget), s)
        want = objective(brute_force_schedule(s, K, budget), s)
        worst = max(worst, abs(got - want))
    return ("dp-vs-brute-force", worst <= 1e-9, f"max_abs_gap={worst:.3e}")


def check_anchored_dp_vs_brute_force(solver=solve_schedule_anchored) -> Check:
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(40):
        K = int(rng.integers(5, 13))
        budget = int(rng.integers(1, min(7, K) + 1))
        sim = rng.uniform(-1.0, 1.0, size=(K, K))
        got = anchored_objective(solver(sim, budget), sim)
        want = anchored_objective(brute_force_schedule_anchored(sim, budget), sim)
        worst = max(worst, abs(got - want))
    return ("anchored-dp-vs-brute-force", worst <= 1e-9, f"max_abs_gap={worst:.3e}")


def check_decomposition_identity(solver=_default_solver) -> Check:
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(60):
        K = int(rng.integers(5, 25))
        budget = int(rng.integers(1, min(9, K) + 1))
        s = rng.uniform(-1.0, 1.0, size=K - 1)
        got = objective(solver(s, K, budget), s)
        want = decomposition_objective(s, K, budget)
        worst = max(worst, abs(got - want))
    return ("decomposition-identity", worst <= 1e-9, f"max_abs_gap={worst:.3e}")


def check_linear_response_suite() -> Check:
    rng = np.random.default_rng(77)
    d = 32
    ok = True
    details = []

    ratios = []
    for _ in range(12):
        params = random_ffn(rng, d)
        x = rng.normal(size=d)
        delta = rng.normal(size=d)
        delta /= np.linalg.norm(delta)
        curve = verify_first_order(params, x, delta, [1e-2, 5e-3, 2.5e-3])
        ratios.extend(curve.ratios)
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
    cases = 20
    rng = np.random.default_rng(31)
    for _ in range(cases):
        layers = int(rng.integers(2, 6))
        K = int(rng.integers(8, 40))
        blocks = canonical_blocks(layers)
        plan = SchedulePlan(
            layers=layers,
            schedules={
                b: Schedule(
                    (0, *sorted(rng.choice(np.arange(1, K), size=int(rng.integers(1, min(6, K - 1))), replace=False).tolist())),
                    K,
                )
                for b in blocks
            },
        )
        k = int(rng.integers(0, len(blocks) + 1))
        upstream = set(rng.choice(blocks, size=k, replace=False).tolist()) if k else set()
        out = bubble_union(plan, upstream)
        again = bubble_union(out, upstream)
        for b in blocks:
            before = set(plan.schedule(b).steps)
            after = set(out.schedule(b).steps)
            if b in upstream:
                if not after >= before:
                    return ("bubble-union-properties", False, f"superset broken at {b.name}")
                for v in downstream_ffns(b, layers):
                    if not after >= set(out.schedule(v).steps):
                        return ("bubble-union-properties", False, f"downstream not absorbed at {b.name}")
            elif after != before:
                return ("bubble-union-properties", False, f"untouched block changed: {b.name}")
            if set(again.schedule(b).steps) != after:
                return ("bubble-union-properties", False, f"not idempotent at {b.name}")
            if 0 not in after:
                return ("bubble-union-properties", False, f"step 0 lost at {b.name}")
    return ("bubble-union-properties", True, f"plans_checked={cases}")


def check_bit_exact_full_plan() -> Check:
    seeds = (3, 11)
    config = DenoiserConfig(layers=3, d_model=32, heads=4, K=40)
    denoiser = build_denoiser(config)
    full = Schedule(tuple(range(config.K)), config.K)
    plan = SchedulePlan(
        layers=config.layers,
        schedules={b: full for b in canonical_blocks(config.layers)},
    )
    for seed in seeds:
        init, obs = synth_episode(config, derive_seed(seed, 0))
        want, trace = denoise_full(denoiser, init, obs)
        got, report = run_cached(denoiser, plan, init, obs, reference=trace)
        if not np.array_equal(got, want):
            return ("bit-exact-full-plan", False, f"seed {seed} diverged")
        if report.final_action_l2 != 0.0:
            return ("bit-exact-full-plan", False, f"seed {seed} nonzero deviation")
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
