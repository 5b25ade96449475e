import numpy as np
import pytest

from bac.blocks import BlockId, canonical_blocks
from bac.bua import SchedulePlan
from bac.config import DenoiserConfig
from bac.denoiser import MacCounter, build_denoiser, denoise_full, execute, synth_episode
from bac.engine import (
    block_cost,
    flops_estimate,
    overhead_per_step,
    run_cached,
    uniform_plan,
)
from bac.errors import BudgetError, ConsistencyError, DimensionError, PlanError
from bac.rng import derive_seed
from bac.scheduler import Schedule


def _plan(config, steps_fn):
    return SchedulePlan(
        layers=config.layers,
        schedules={
            b: Schedule(tuple(steps_fn(b)), config.K)
            for b in canonical_blocks(config.layers)
        },
    )


def full_plan(config):
    return _plan(config, lambda b: range(config.K))


def zero_plan(config):
    return _plan(config, lambda b: (0,))


# -- uniform plan -----------------------------------------------------------


def test_uniform_plan_canonical_case():
    plan = uniform_plan(100, 10, 2)
    for block in canonical_blocks(2):
        assert plan.schedule(block).steps == tuple(range(0, 100, 10))


def test_uniform_plan_edges():
    assert uniform_plan(12, 12, 1).schedule(BlockId(0, "SA")).steps == tuple(range(12))
    assert uniform_plan(12, 1, 1).schedule(BlockId(0, "SA")).steps == (0,)
    with pytest.raises(BudgetError):
        uniform_plan(10, 11, 1)


def test_uniform_plan_exact_step_count():
    for K, S in [(100, 10), (100, 7), (13, 5), (7, 7)]:
        plan = uniform_plan(K, S, 1)
        assert len(plan.schedule(BlockId(0, "SA")).steps) == S


# -- bit-exact degenerate case ------------------------------------------------


def test_full_plan_bit_exact(small_denoiser, small_config, small_episode):
    init, obs = small_episode
    want, trace = denoise_full(small_denoiser, init, obs)
    got, report = run_cached(small_denoiser, full_plan(small_config), init, obs,
                             reference=trace)
    assert np.array_equal(got, want)
    assert report.final_action_l2 == 0.0
    assert np.all(report.errors == 0.0)
    assert report.flops.speedup == 1.0


# -- reuse semantics -------------------------------------------------------------


def test_reuse_provenance_is_latest_update(small_denoiser, small_config, small_episode):
    init, obs = small_episode
    plan = _plan(small_config, lambda b: (0, 4, 9))
    _, report = run_cached(small_denoiser, plan, init, obs)
    steps = (0, 4, 9)
    for block in canonical_blocks(small_config.layers):
        for t in range(small_config.K):
            want = max(i for i in steps if i <= t)
            assert report.provenance[block.ordinal, t] == want
            assert report.update_mask[block.ordinal, t] == (t in steps)


def test_zero_plan_surface_is_drift_from_step_zero(small_denoiser, small_config, small_episode):
    """With every schedule at {0}, each served feature is the reference step-0
    residual, so the surface must equal the reference drift, recomputable from
    the stored trace alone."""
    init, obs = small_episode
    _, trace = denoise_full(small_denoiser, init, obs)
    _, report = run_cached(small_denoiser, zero_plan(small_config), init, obs,
                           reference=trace)
    for block in canonical_blocks(small_config.layers):
        feats = trace.residuals[block.ordinal]
        want = np.linalg.norm(feats - feats[0], axis=(1, 2))
        assert np.allclose(report.errors[block.ordinal], want, atol=1e-10)
    assert report.update_mask[:, 0].all() and not report.update_mask[:, 1:].any()


def test_mixed_plan_error_surface(small_denoiser, small_config, small_episode):
    """Per-block schedules that differ: every error is the distance between
    the served and the reference residual, and every served residual is the
    one computed at its provenance step."""
    init, obs = small_episode
    plan = _plan(small_config, lambda b: (0, 2, 7) if b.kind == "FFN" else (0, 5))
    _, reference = denoise_full(small_denoiser, init, obs)
    got, report = run_cached(small_denoiser, plan, init, obs, reference=reference)
    want, served = execute(small_denoiser, report.update_mask, init, obs)
    assert np.array_equal(got, want)
    for block in canonical_blocks(small_config.layers):
        b = block.ordinal
        for t in range(small_config.K):
            r = served.residuals[b, t]
            dist = np.linalg.norm(r - reference.residuals[b, t])
            assert report.errors[b, t] == pytest.approx(dist, rel=1e-12, abs=0.0)
            assert np.array_equal(r, served.residuals[b, report.provenance[b, t]])
    assert report.errors[:, 5].any()


def test_error_zero_at_step_zero(small_denoiser, small_config, small_episode):
    init, obs = small_episode
    plan = _plan(small_config, lambda b: (0, 3))
    _, report = run_cached(small_denoiser, plan, init, obs)
    assert np.all(report.errors[:, 0] == 0.0)


def test_all_steps_plan_zero_surface(small_denoiser, small_config, small_episode):
    init, obs = small_episode
    _, report = run_cached(small_denoiser, full_plan(small_config), init, obs)
    assert np.all(report.errors == 0.0)
    assert report.update_mask.all()


def test_missing_step_zero_is_cold_cache_error(small_denoiser, small_config, small_episode):
    bad = object.__new__(Schedule)
    object.__setattr__(bad, "steps", (1, 5))
    object.__setattr__(bad, "K", small_config.K)
    plan = object.__new__(SchedulePlan)
    schedules = {b: bad for b in canonical_blocks(small_config.layers)}
    object.__setattr__(plan, "layers", small_config.layers)
    object.__setattr__(plan, "schedules", schedules)
    init, obs = small_episode
    with pytest.raises(PlanError, match="step 0"):
        run_cached(small_denoiser, plan, init, obs)


def test_plan_mismatch_errors(small_denoiser, small_config, small_episode):
    init, obs = small_episode
    other = DenoiserConfig(layers=small_config.layers, d_model=16, heads=2,
                           action_tokens=4, cond_tokens=2, action_dim=3,
                           K=small_config.K + 1, seed=1)
    with pytest.raises(ConsistencyError):
        run_cached(small_denoiser, full_plan(other), init, obs)
    wrong_layers = DenoiserConfig(layers=small_config.layers + 1, d_model=16,
                                  heads=2, action_tokens=4, cond_tokens=2,
                                  action_dim=3, K=small_config.K, seed=1)
    with pytest.raises(PlanError):
        run_cached(small_denoiser, full_plan(wrong_layers), init, obs)


def test_run_cached_rejects_batched_episodes(small_denoiser, small_config, small_episode):
    init, obs = small_episode
    mac = MacCounter()
    with pytest.raises(DimensionError, match=r"\(2, 4, 3\)"):
        run_cached(small_denoiser, full_plan(small_config), np.stack([init, init]),
                   np.stack([obs, obs]), mac=mac)
    assert mac.count == 0


# -- cost model --------------------------------------------------------------------


def test_block_cost_formulas():
    cfg = DenoiserConfig()
    t, d, tc = cfg.action_tokens, cfg.d_model, cfg.cond_tokens
    assert block_cost(cfg, "SA") == 4 * t * d**2 + 2 * t**2 * d
    assert block_cost(cfg, "CA") == 2 * t * d**2 + 2 * tc * d**2 + 2 * t * tc * d
    assert block_cost(cfg, "FFN") == 8 * t * d**2
    assert overhead_per_step(cfg) == t * cfg.action_dim * d * 2 + tc * cfg.action_dim * d


def test_flops_full_plan_speedup_one(small_config):
    f = flops_estimate(small_config, full_plan(small_config))
    assert f.flops_full == f.flops_cached
    assert f.speedup == 1.0
    assert f.reuse_adds == 0


def test_flops_uniform_decoder_reduction_exact():
    cfg = DenoiserConfig()
    f = flops_estimate(cfg, uniform_plan(cfg.K, 10, cfg.layers))
    assert f.decoder_reduction == 10.0


def test_flops_zero_plan_decoder_factor_is_K(small_config):
    f = flops_estimate(small_config, zero_plan(small_config))
    assert f.decoder_flops_full == small_config.K * f.decoder_flops_cached
    assert f.speedup > 1.0  # any reuse strictly beats full compute


def test_flops_conservation_identity(small_config):
    plan = _plan(small_config, lambda b: (0, 2, 7) if b.kind == "FFN" else (0, 5))
    f = flops_estimate(small_config, plan)
    skipped = sum(
        (small_config.K - len(plan.schedule(b).steps)) * block_cost(small_config, b.kind)
        for b in canonical_blocks(small_config.layers)
    )
    assert f.flops_cached + skipped - f.reuse_adds == f.flops_full


def test_flops_monotone_in_added_steps(small_config):
    base = _plan(small_config, lambda b: (0, 5))
    more = _plan(small_config, lambda b: (0, 5, 8) if b.ordinal == 0 else (0, 5))
    assert (
        flops_estimate(small_config, more).flops_cached
        > flops_estimate(small_config, base).flops_cached
    )


def test_instrumented_counter_matches_analytic(small_denoiser, small_config, small_episode):
    init, obs = small_episode
    for steps in [(0,), (0, 3, 7), tuple(range(small_config.K))]:
        plan = _plan(small_config, lambda b: steps)
        mac = MacCounter()
        _, report = run_cached(small_denoiser, plan, init, obs, mac=mac)
        assert mac.count == report.flops.flops_cached
    mac = MacCounter()
    denoise_full(small_denoiser, init, obs, mac=mac)
    assert mac.count == flops_estimate(small_config, full_plan(small_config)).flops_full
