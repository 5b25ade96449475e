from dataclasses import replace

import numpy as np
import pytest

from bac.blocks import BlockId, canonical_blocks
from bac.bua import SchedulePlan
from bac.denoiser import build_denoiser, denoise_full, synth_episode
from bac.config import DenoiserConfig
from bac.engine import run_cached
from bac.errorlab import (
    FfnParams,
    error_surge_experiment,
    ffn_apply,
    linear_response,
    ln_eps_free,
    ln_operators,
    pearson,
    random_ffn,
    verify_first_order,
)
from bac.errors import CorrelationError, DegenerateFeatureError, DimensionError
from bac.rng import derive_seed
from bac.scheduler import Schedule


def test_random_ffn_draw_order():
    """``bac export --what remainder`` and ``bac verify`` depend on this order."""
    rng = np.random.default_rng(3)
    d, d_ff = 5, 20
    want = FfnParams(
        w1=rng.normal(size=(d, d_ff)) / np.sqrt(d),
        b1=rng.normal(size=d_ff) * 0.1,
        w2=rng.normal(size=(d_ff, d)) / np.sqrt(d_ff),
        b2=rng.normal(size=d) * 0.1,
        gamma=rng.uniform(0.5, 1.5, size=d),
    )
    got = random_ffn(np.random.default_rng(3), d)
    for name in ("w1", "b1", "w2", "b2", "gamma"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.activation == "gelu"


def fd_jacobian(x, gamma, h=1e-5):
    d = len(x)
    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        jac[:, j] = (ln_eps_free(x + e, gamma) - ln_eps_free(x - e, gamma)) / (2 * h)
    return jac


# -- ln_operators ------------------------------------------------------------


def test_two_point_hand_case():
    a_op, b_op = ln_operators(np.array([1.0, -1.0]), np.ones(2))
    want = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(a_op, want, atol=1e-12)
    assert np.allclose(b_op, want, atol=1e-12)
    assert np.allclose(a_op - b_op, 0.0, atol=1e-12)


def test_jacobian_annihilates_constant_shift():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(2, 20))
        x = rng.normal(size=d)
        gamma = rng.uniform(0.5, 2.0, size=d)
        a_op, b_op = ln_operators(x, gamma)
        ones = np.ones(d)
        assert np.allclose(a_op @ ones, 0.0, atol=1e-12)
        assert np.allclose(b_op @ ones, 0.0, atol=1e-12)


def test_jacobian_matches_finite_differences_hand_case():
    x = np.array([1.0, 0.0, -1.0])
    gamma = np.ones(3)
    a_op, b_op = ln_operators(x, gamma)
    assert np.abs((a_op - b_op) - fd_jacobian(x, gamma)).max() < 1e-6


def test_sigma_floor_enforced():
    with pytest.raises(DegenerateFeatureError):
        ln_operators(np.full(4, 3.0), np.ones(4))


def test_ln_stats_population_convention():
    from bac.errorlab import ln_stats

    x = np.array([1.0, 2.0, 3.0, 6.0])
    stats = ln_stats(x)
    assert stats.mu == pytest.approx(3.0)
    assert stats.sigma == pytest.approx(np.sqrt(np.mean((x - 3.0) ** 2)))
    assert stats.d == 4


# -- linear response ------------------------------------------------------------


def test_zero_delta_maps_to_zero():
    rng = np.random.default_rng(1)
    params = random_ffn(rng, 8)
    x = rng.normal(size=8)
    assert np.all(linear_response(params, x, np.zeros(8)) == 0.0)


def test_two_point_null_response():
    rng = np.random.default_rng(2)
    params = FfnParams(
        w1=rng.normal(size=(2, 8)),
        b1=rng.normal(size=8),
        w2=rng.normal(size=(8, 2)),
        b2=rng.normal(size=2),
        gamma=np.ones(2),
    )
    x = np.array([0.7, -0.3])
    for _ in range(5):
        delta = rng.normal(size=2)
        assert np.linalg.norm(linear_response(params, x, delta)) <= 1e-12


def test_response_linear_in_delta():
    rng = np.random.default_rng(3)
    params = random_ffn(rng, 8)
    x = rng.normal(size=8)
    delta = rng.normal(size=8)
    f1 = linear_response(params, x, delta)
    for alpha in (-2.0, 0.5, 3.75):
        assert np.allclose(
            linear_response(params, x, alpha * delta), alpha * f1, atol=1e-12
        )
    delta2 = rng.normal(size=8)
    assert np.allclose(
        linear_response(params, x, delta + delta2),
        f1 + linear_response(params, x, delta2),
        atol=1e-12,
    )


# -- first-order remainder ---------------------------------------------------------


def test_remainder_shrinks_quadratically():
    rng = np.random.default_rng(4)
    ratios = []
    for _ in range(20):
        params = random_ffn(rng, 16)
        x = rng.normal(size=16)
        delta = rng.normal(size=16)
        delta /= np.linalg.norm(delta)
        curve = verify_first_order(params, x, delta, [1e-2, 5e-3, 2.5e-3])
        ratios.extend(curve.ratios)
    assert 3.5 <= float(np.median(ratios)) <= 4.5


def test_remainder_quadratic_with_identity_activation():
    # residual curvature comes from LayerNorm alone
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(20):
        p = random_ffn(rng, 16)
        params = FfnParams(p.w1, p.b1, p.w2, p.b2, p.gamma, activation="identity")
        x = rng.normal(size=16)
        delta = rng.normal(size=16)
        delta /= np.linalg.norm(delta)
        curve = verify_first_order(params, x, delta, [1e-2, 5e-3, 2.5e-3])
        ratios.extend(curve.ratios)
    assert 3.5 <= float(np.median(ratios)) <= 4.5


def test_two_point_case_is_locally_constant():
    """With a null linear response the raw difference is the whole remainder;
    for two features the eps-free LayerNorm output is a fixed sign pattern, so
    that difference vanishes identically (0 <= C*eps^2 holds trivially)."""
    rng = np.random.default_rng(6)
    params = FfnParams(
        w1=rng.normal(size=(2, 8)),
        b1=np.zeros(8),
        w2=rng.normal(size=(8, 2)),
        b2=np.zeros(2),
        gamma=np.ones(2),
    )
    x = np.array([1.0, -0.5])
    delta = np.array([1.0, 0.0])
    curve = verify_first_order(params, x, delta, [1e-2, 5e-3, 2.5e-3])
    raw = [
        np.linalg.norm(ffn_apply(params, x + eps * delta) - ffn_apply(params, x))
        for eps in curve.scales
    ]
    assert np.allclose(curve.remainders, raw, atol=1e-12)
    assert np.all(curve.remainders == 0.0)


def test_verify_first_order_preconditions():
    rng = np.random.default_rng(7)
    params = random_ffn(rng, 8)
    x = rng.normal(size=8)
    delta = rng.normal(size=8)
    delta /= np.linalg.norm(delta)
    with pytest.raises(DimensionError):
        verify_first_order(params, x, 2.0 * delta, [1e-2, 5e-3])
    with pytest.raises(DimensionError):
        verify_first_order(params, x, delta, [1e-2, 3e-3])


# -- pearson -------------------------------------------------------------------------


def test_pearson_hand_values():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(CorrelationError):
        pearson(x, np.ones(4))


# -- surge experiment ------------------------------------------------------------------


@pytest.fixture(scope="module")
def surge_stats():
    cfg = DenoiserConfig(layers=4, d_model=32, heads=4, K=40)
    return error_surge_experiment(build_denoiser(cfg), seeds=range(3),
                                  betas=(0.0, 0.25, 0.5, 1.0, 2.0, 4.0))


def test_surge_beta_zero_gives_zero_error(surge_stats):
    assert np.all(surge_stats.beta_errors[:, 0] == 0.0)


def test_surge_beta_increasing_for_small_beta(surge_stats):
    inner = surge_stats.beta_errors[:, 1:5]  # 0.25, 0.5, 1, 2
    assert np.all(np.diff(inner, axis=1) > 0.0)


def test_surge_correlation_positive(surge_stats):
    assert surge_stats.pooled_r > 0.5
    assert np.all(surge_stats.per_seed_r > 0.5)


def test_surge_errors_equal_run_cached_errors():
    """The surge's error rows are ``run_cached``'s, under the frozen-upstream plan."""
    cfg = DenoiserConfig(layers=4, d_model=32, heads=4, K=40)
    den = build_denoiser(cfg)
    stats = error_surge_experiment(den, seeds=[1])
    frozen = Schedule((0,), cfg.K)
    full = Schedule(tuple(range(cfg.K)), cfg.K)
    plan = SchedulePlan(layers=cfg.layers, schedules={
        b: frozen if b == stats.upstream else full for b in canonical_blocks(cfg.layers)})
    init, obs = synth_episode(cfg, derive_seed(1, 0))
    _, report = run_cached(den, plan, init, obs, reference=denoise_full(den, init, obs)[1])
    assert np.array_equal(stats.upstream_staleness[0], report.errors[stats.upstream.ordinal])
    assert np.array_equal(stats.downstream_errors[0], report.errors[stats.downstream.ordinal])


def test_surge_seed_batch_equals_one_seed_calls():
    """Seeds are rows of one batch: each row equals its own one-seed run exactly."""
    cfg = DenoiserConfig(layers=4, d_model=32, heads=4, K=40)
    den = build_denoiser(cfg)
    seeds = [4, 0, 9]
    batch = error_surge_experiment(den, seeds)
    for row, seed in enumerate(seeds):
        one = error_surge_experiment(den, [seed])
        for field in ("per_seed_r", "beta_errors", "upstream_errors",
                      "downstream_errors", "upstream_staleness"):
            assert np.array_equal(getattr(batch, field)[row], getattr(one, field)[0]), field
    assert np.array_equal(batch.betas, one.betas) and batch.beta_step == cfg.K // 2


def test_surge_needs_a_seed_and_two_layers():
    cfg = DenoiserConfig(layers=1, d_model=32, heads=4, K=40)
    with pytest.raises(DimensionError, match="at least one seed"):
        error_surge_experiment(build_denoiser(replace(cfg, layers=2)), [])
    with pytest.raises(DimensionError, match="at least two layers"):
        error_surge_experiment(build_denoiser(cfg), [0])


def test_surge_defaults_pick_last_two_ffns(surge_stats):
    assert surge_stats.upstream == BlockId(2, "FFN")
    assert surge_stats.downstream == BlockId(3, "FFN")
    assert surge_stats.upstream_staleness.shape == surge_stats.upstream_errors.shape
