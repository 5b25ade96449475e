"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bac.blocks import BlockId, canonical_blocks
from bac.bua import SchedulePlan, bubble_union, select_upstream_blocks
from bac.config import DenoiserConfig
from bac.denoiser import (
    FfnWeights,
    build_denoiser,
    denoise_full,
    execute,
    synth_episode,
)
from bac.engine import flops_estimate, run_cached, uniform_plan
from bac.errorlab import (
    error_surge_experiment,
    linear_response,
    ln_eps_free,
    ln_operators,
    verify_first_order,
)
from bac import fileio
from bac.profiler import profile_task
from bac.rng import derive_seed
from bac.scheduler import (
    Schedule,
    brute_force_schedule,
    decomposition_objective,
    objective,
    solve_schedule,
)
from conftest import MacTally, execute_oracle

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


# -- shared sweeps -----------------------------------------------------------


@pytest.fixture(scope="module")
def dp_sweep():
    """200 seeded random similarity vectors, K in 5..24, budget in 1..min(9,K)."""
    rng = np.random.default_rng(20240808)
    rows = []
    start = time.monotonic()
    for _ in range(200):
        K = int(rng.integers(5, 25))
        budget = int(rng.integers(1, min(9, K) + 1))
        s = rng.uniform(-1.0, 1.0, size=K - 1)
        dp_obj = objective(solve_schedule(s, K, budget)[0], s)
        bf_obj = objective(brute_force_schedule(s, K, budget), s)
        rows.append((dp_obj, bf_obj, decomposition_objective(s, K, budget)))
    elapsed = time.monotonic() - start
    return np.array(rows), elapsed


@pytest.fixture(scope="module")
def acs_vs_uniform(default_denoiser, default_config):
    """Shared seed sweep for criterion 11: uniform vs block-wise vs repaired."""
    cfg = default_config
    profile = profile_task(default_denoiser, episodes=3, seed=42)
    naive = SchedulePlan(
        layers=cfg.layers,
        schedules={
            b: solve_schedule(stats.s, cfg.K, 10)[0]
            for b, stats in profile.blocks.items()
        },
    )
    repaired = bubble_union(naive, select_upstream_blocks(profile, 5))
    uniform = uniform_plan(cfg.K, 10, cfg.layers)

    def max_ffn_update_error(report, plan):
        """Each episode's largest FFN error at the plan's update steps."""
        worst = np.zeros(len(report.errors))
        for b in canonical_blocks(cfg.layers):
            if b.kind == "FFN":
                steps = list(plan.schedule(b).steps)
                worst = np.maximum(worst, report.errors[:, b.ordinal, steps].max(axis=-1))
        return worst

    # the 20 seeds run as one batch: one full reference, one cached run per plan
    runs = [synth_episode(cfg, derive_seed(1000 + seed, 0)) for seed in range(20)]
    init, obs = (np.stack(arrays) for arrays in zip(*runs))
    _, ref = denoise_full(default_denoiser, init, obs)
    _, r_uni = run_cached(default_denoiser, uniform, init, obs, reference=ref)
    _, r_acs = run_cached(default_denoiser, naive, init, obs, reference=ref)
    _, r_rep = run_cached(default_denoiser, repaired, init, obs, reference=ref)
    return np.stack([
        r_acs.final_action_l2,
        r_uni.final_action_l2,
        max_ffn_update_error(r_acs, naive),
        max_ffn_update_error(r_rep, repaired),
    ], axis=1)


# -- criteria ------------------------------------------------------------------


def test_criterion_01_dp_optimality(dp_sweep):
    with criterion("01 dp-vs-brute-force optimality (200 cases, <10s)"):
        rows, elapsed = dp_sweep
        worst = np.abs(rows[:, 0] - rows[:, 1]).max()
        assert worst <= 1e-9, f"max |dp - brute| = {worst:.3e}"
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_criterion_02_decomposition_identity(dp_sweep):
    with criterion("02 decomposition identity (same sweep)"):
        rows, _ = dp_sweep
        worst = np.abs(rows[:, 0] - rows[:, 2]).max()
        assert worst <= 1e-9, f"max |dp - decomposition| = {worst:.3e}"


def test_criterion_03_hand_instance():
    with criterion("03 hand instance s=[0.9,0.1,0.8,0.2], budget 3"):
        s = [0.9, 0.1, 0.8, 0.2]
        sched, _ = solve_schedule(s, 5, 3)
        assert sched.steps == (0, 2, 4)
        assert objective(sched, s) == pytest.approx(1.7, abs=1e-12)
        assert brute_force_schedule(s, 5, 3).steps == (0, 2, 4)


def test_criterion_04_bit_exact_degenerate_caching(default_denoiser, default_config):
    with criterion("04 full-step plan bit-exact on 10 seeds"):
        cfg = default_config
        full = Schedule(tuple(range(cfg.K)), cfg.K)
        plan = SchedulePlan(
            layers=cfg.layers,
            schedules={b: full for b in canonical_blocks(cfg.layers)},
        )
        # run_cached computes every step of the full plan from step 0; a plan
        # that reuses is checked against execute of its mask too
        reusing = uniform_plan(cfg.K, 10, cfg.layers)
        for seed in range(10):
            init, obs = synth_episode(cfg, derive_seed(seed, 0))
            want, trace = denoise_full(default_denoiser, init, obs)
            got, _ = run_cached(default_denoiser, plan, init, obs, reference=trace)
            assert np.array_equal(got, want), f"seed {seed} not bit-identical"
            got, report = run_cached(default_denoiser, reusing, init, obs, reference=trace)
            want, _ = execute(default_denoiser, report.update_mask, init, obs)
            assert np.array_equal(got, want), f"seed {seed} reusing plan not bit-identical"


def test_criterion_05_first_order_remainder():
    with criterion("05 remainder ratio median in [3.5,4.5]; d=2 null response"):
        rng = np.random.default_rng(515)
        d, d_ff = 64, 256
        ratios = []
        for _ in range(50):
            params = FfnWeights(
                w1=rng.normal(size=(d, d_ff)) / np.sqrt(d),
                b1=rng.normal(size=d_ff) * 0.1,
                w2=rng.normal(size=(d_ff, d)) / np.sqrt(d_ff),
                b2=rng.normal(size=d) * 0.1,
                gamma=rng.uniform(0.5, 1.5, size=d),
            )
            x = rng.normal(size=d)
            delta = rng.normal(size=d)
            delta /= np.linalg.norm(delta)
            curve = verify_first_order(params, x, delta, [1e-2, 5e-3, 2.5e-3])
            ratios.extend(curve.ratios)  # ratios at eps = 1e-2 and 5e-3
        med = float(np.median(ratios))
        assert 3.5 <= med <= 4.5, f"median ratio {med:.3f}"

        params2 = FfnWeights(
            w1=rng.normal(size=(2, 8)),
            b1=rng.normal(size=8),
            w2=rng.normal(size=(8, 2)),
            b2=rng.normal(size=2),
            gamma=np.ones(2),
        )
        x2 = np.array([0.9, -0.4])
        for _ in range(20):
            delta = rng.normal(size=2)
            norm = np.linalg.norm(linear_response(params2, x2, delta))
            assert norm <= 1e-12, f"null case violated: {norm:.2e}"


def test_criterion_06_jacobian_finite_differences():
    with criterion("06 LayerNorm Jacobian vs finite differences (100 cases)"):
        rng = np.random.default_rng(606)
        dims = [3, 8, 64]
        done = 0
        worst = 0.0
        while done < 100:
            d = dims[done % 3]
            x = rng.normal(size=d)
            if float(np.std(x)) < 0.1:
                continue
            gamma = rng.uniform(0.5, 1.5, size=d)
            a_op, b_op = ln_operators(x, gamma)
            jac = np.empty((d, d))
            h = 1e-5
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                jac[:, j] = (ln_eps_free(x + e, gamma) - ln_eps_free(x - e, gamma)) / (2 * h)
            rel = np.linalg.norm((a_op - b_op) - jac) / np.linalg.norm(jac)
            worst = max(worst, rel)
            done += 1
        assert worst <= 1e-5, f"worst relative error {worst:.2e}"


def test_criterion_07_bubbling_union_golden_fixture():
    with criterion("07 golden schedule fixture reproduces printed added steps"):
        from bac.blocks import parse_block_name

        plan = fileio.read_plan(str(DATA / "golden_acs_s10.bacsched"), K=100)
        added: dict[BlockId, set[int]] = {}
        for line in (DATA / "golden_bua_added.txt").read_text().splitlines():
            name, _, steps = line.partition(":")
            added[parse_block_name(name)] = {int(v) for v in steps.split(",")}
        upstream = set(added)
        out = bubble_union(plan, upstream)
        for block, steps in added.items():
            before = set(plan.schedule(block).steps)
            after = set(out.schedule(block).steps)
            missing = steps - after
            assert not missing, f"{block.name} misses {sorted(missing)}"
            assert steps.isdisjoint(before), f"{block.name} steps not new"
        spot = {28, 47, 62, 69, 74, 77}
        sa6 = BlockId(6, "SA")
        assert spot <= set(out.schedule(sa6).steps)
        assert spot.isdisjoint(set(plan.schedule(sa6).steps))


def test_criterion_08_bubbling_union_properties():
    with criterion("08 union properties on 100 random plans"):
        rng = np.random.default_rng(808)
        for _ in range(100):
            layers = int(rng.integers(2, 6))
            K = int(rng.integers(6, 40))
            blocks = canonical_blocks(layers)
            plan = SchedulePlan(
                layers=layers,
                schedules={
                    b: Schedule(
                        (0, *sorted(int(v) for v in rng.choice(
                            np.arange(1, K),
                            size=int(rng.integers(0, min(6, K - 1))),
                            replace=False,
                        ))),
                        K,
                    )
                    for b in blocks
                },
            )
            k = int(rng.integers(0, len(blocks) + 1))
            upstream = {blocks[i] for i in rng.choice(len(blocks), size=k, replace=False)}
            out = bubble_union(plan, upstream)
            again = bubble_union(out, upstream)
            for b in blocks:
                before = set(plan.schedule(b).steps)
                after = set(out.schedule(b).steps)
                if b in upstream:
                    assert after >= before
                    from bac.bua import downstream_ffns

                    for v in downstream_ffns(b, layers):
                        assert after >= set(out.schedule(v).steps)
                else:
                    assert out.schedule(b).steps == plan.schedule(b).steps
                assert 0 in after
                assert list(out.schedule(b).steps) == sorted(after)
                assert set(again.schedule(b).steps) == after


def test_criterion_09_flops_accounting(default_denoiser, default_config):
    with criterion("09 analytic = instrumented MACs; uniform S=10 reduction 10x; speedup >= 3x"):
        cfg = default_config
        plans = [
            uniform_plan(cfg.K, s, cfg.layers) for s in (5, 10, 20)
        ]
        full = Schedule(tuple(range(cfg.K)), cfg.K)
        plans.append(SchedulePlan(layers=cfg.layers,
                                  schedules={b: full for b in canonical_blocks(cfg.layers)}))
        single = Schedule((0,), cfg.K)
        plans.append(SchedulePlan(layers=cfg.layers,
                                  schedules={b: single for b in canonical_blocks(cfg.layers)}))
        # the instrumented side: the test oracle's MACs, counted from the
        # shapes of the products it performs at every step
        for seed, plan in enumerate(plans):
            init, obs = synth_episode(cfg, derive_seed(900 + seed, 0))
            _, ref = denoise_full(default_denoiser, init, obs)
            action, report = run_cached(default_denoiser, plan, init, obs, reference=ref)
            tally = MacTally()
            want = execute_oracle(default_denoiser, report.update_mask, init, obs,
                                  tally=tally)[0]
            assert np.array_equal(action, want), f"plan {seed}: oracle action differs"
            assert tally.count == report.flops.flops_cached, (
                f"plan {seed}: counter {tally.count} != analytic {report.flops.flops_cached}"
            )
        tally_full = MacTally()
        init, obs = synth_episode(cfg, derive_seed(900, 0))
        execute_oracle(default_denoiser, np.ones((3 * cfg.layers, cfg.K), dtype=bool),
                       init, obs, tally=tally_full)
        breakdown = flops_estimate(cfg, plans[1])  # uniform S=10
        assert tally_full.count == breakdown.flops_full
        assert breakdown.decoder_reduction == 10.0
        assert breakdown.speedup >= 3.0, f"speedup {breakdown.speedup:.2f}"


def test_criterion_10_error_surge(default_denoiser, default_config):
    with criterion("10 surge: Pearson r > 0.5 over 5 seeds; beta sweep monotone"):
        stats = error_surge_experiment(default_denoiser, seeds=range(5))
        assert stats.upstream_errors.shape[1] - 1 >= 30  # timesteps correlated
        assert stats.pooled_r > 0.5, f"pooled r = {stats.pooled_r:.3f}"
        assert np.all(stats.per_seed_r > 0.5), f"per-seed r = {stats.per_seed_r}"
        inner = stats.beta_errors[:, :4]  # beta = 0.25, 0.5, 1, 2
        assert np.all(np.diff(inner, axis=1) >= 0.0), "beta sweep not monotone"


def test_criterion_11_block_wise_beats_uniform(acs_vs_uniform):
    with criterion("11 block-wise beats uniform on most seeds; repair lowers max FFN update error"):
        rows = acs_vs_uniform
        n = len(rows)
        acs_wins = int(np.sum(rows[:, 0] <= rows[:, 1]))
        assert acs_wins > n // 2, f"block-wise wins only {acs_wins}/{n}"
        repair_wins = int(np.sum(rows[:, 3] <= rows[:, 2]))
        assert repair_wins > n // 2, f"repair wins only {repair_wins}/{n}"
        assert rows[:, 3].mean() < rows[:, 2].mean(), "repair did not lower the mean"
