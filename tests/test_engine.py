import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bac import denoiser as denoiser_module
from bac.blocks import BlockId, canonical_blocks
from bac.bua import SchedulePlan
from bac.config import DenoiserConfig
from bac.denoiser import build_denoiser, denoise_full, execute, synth_episode
from bac.engine import (
    MEMORY_CAP_BYTES,
    block_cost,
    block_errors,
    check_memory,
    flops_estimate,
    memory_estimate,
    overhead_per_step,
    run_cached,
    uniform_plan,
)
from bac.profiler import similarity_matrix
from bac.errors import BudgetError, ConfigError, ConsistencyError, PlanError
from bac.rng import derive_seed
from bac.scheduler import Schedule
from conftest import MacTally, execute_oracle, stacked_episodes


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
    """The full plan, computed from step 0, against the full pass it is
    reported against, and a plan that reuses from step 1 on against
    ``execute`` of the same mask."""
    init, obs = small_episode
    want, trace = denoise_full(small_denoiser, init, obs)
    got, report = run_cached(small_denoiser, full_plan(small_config), init, obs,
                             reference=trace)
    assert np.array_equal(got, want)
    assert report.final_action_l2 == 0.0
    assert np.all(report.errors == 0.0)
    assert report.flops.speedup == 1.0
    got, report = run_cached(small_denoiser, _plan(small_config, lambda b: (0, 4, 9)), init,
                             obs, reference=trace)
    want, run = execute(small_denoiser, report.update_mask, init, obs)
    assert np.array_equal(got, want)
    assert np.array_equal(report.errors, block_errors(run, trace))


# -- reuse semantics -------------------------------------------------------------


def _last_update(report, b, t):
    """The step whose computed feature block ``b`` serves at ``t``: its last update."""
    return int(np.flatnonzero(report.update_mask[b, :t + 1])[-1])


def test_reuse_provenance_is_latest_update(small_denoiser, small_config, small_episode):
    """The feature served at t is the one computed at the last update at or
    before t: the run's trace serves step t from that step's slot."""
    init, obs = small_episode
    plan = _plan(small_config, lambda b: (0, 4, 9))
    _, report = run_cached(small_denoiser, plan, init, obs,
                           reference=denoise_full(small_denoiser, init, obs)[1])
    steps = (0, 4, 9)
    for block in canonical_blocks(small_config.layers):
        b = block.ordinal
        for t in range(small_config.K):
            want = max(i for i in steps if i <= t)
            assert _last_update(report, b, t) == want
            assert report.run.slot[b, t] == report.run.slot[b, want]
            assert report.update_mask[b, t] == (t in steps)


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
    one computed at the block's last update."""
    init, obs = small_episode
    plan = _plan(small_config, lambda b: (0, 2, 7) if b.kind == "FFN" else (0, 5))
    _, reference = denoise_full(small_denoiser, init, obs)
    got, report = run_cached(small_denoiser, plan, init, obs, reference=reference)
    want, served = execute(small_denoiser, report.update_mask, init, obs)
    assert np.array_equal(got, want)
    for block in canonical_blocks(small_config.layers):
        b = block.ordinal
        feats = served.served(b)
        for t in range(small_config.K):
            dist = np.linalg.norm(feats[t] - reference.residuals[b, t])
            assert report.errors[b, t] == pytest.approx(dist, rel=1e-12, abs=0.0)
            assert np.array_equal(feats[t], feats[_last_update(report, b, t)])
    assert report.errors[:, 5].any()


def test_error_zero_at_step_zero(small_denoiser, small_config, small_episode):
    init, obs = small_episode
    plan = _plan(small_config, lambda b: (0, 3))
    _, report = run_cached(small_denoiser, plan, init, obs,
                           reference=denoise_full(small_denoiser, init, obs)[1])
    assert np.all(report.errors[:, 0] == 0.0)


def test_all_steps_plan_zero_surface(small_denoiser, small_config, small_episode):
    init, obs = small_episode
    _, report = run_cached(small_denoiser, full_plan(small_config), init, obs,
                           reference=denoise_full(small_denoiser, init, obs)[1])
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
        run_cached(small_denoiser, plan, init, obs,
                   reference=denoise_full(small_denoiser, init, obs)[1])


def _never(*_args, **_kwargs):
    raise AssertionError("computed a block before checking the plan and the reference")


def test_plan_mismatch_errors(small_denoiser, small_config, small_episode, monkeypatch):
    init, obs = small_episode
    _, ref = denoise_full(small_denoiser, init, obs)
    other = DenoiserConfig(layers=small_config.layers, d_model=16, heads=2,
                           action_tokens=4, cond_tokens=2, action_dim=3,
                           K=small_config.K + 1, seed=1)
    wrong_layers = DenoiserConfig(layers=small_config.layers + 1, d_model=16,
                                  heads=2, action_tokens=4, cond_tokens=2,
                                  action_dim=3, K=small_config.K, seed=1)
    monkeypatch.setattr("bac.denoiser.block_residual", _never)  # refused before any block
    with pytest.raises(ConsistencyError):
        run_cached(small_denoiser, full_plan(other), init, obs, reference=ref)
    with pytest.raises(PlanError):
        run_cached(small_denoiser, full_plan(wrong_layers), init, obs, reference=ref)


def test_run_cached_needs_a_full_reference_of_its_config(small_denoiser, small_config,
                                                        small_episode, monkeypatch):
    """The caller's full pass is the only reference: none is a TypeError, and a
    cached trace, another config's full trace or a full trace of a shorter
    horizon fails by name before the run, one episode or three."""
    init, obs = small_episode
    plan = _plan(small_config, lambda b: (0, 5))
    with pytest.raises(TypeError):
        run_cached(small_denoiser, plan, init, obs)
    every_fourth = np.zeros((3 * small_config.layers, small_config.K), dtype=bool)
    every_fourth[:, ::4] = True
    other = DenoiserConfig(layers=small_config.layers, d_model=8, heads=2, action_tokens=4,
                           cond_tokens=2, action_dim=3, K=small_config.K, seed=1)
    shorter = build_denoiser(dataclasses.replace(small_config, K=small_config.K - 1))
    inits, obss = stacked_episodes(small_config, 3, 3)
    cases = [(init, obs, execute(small_denoiser, every_fourth, init, obs)[1]),
             (init, obs, denoise_full(build_denoiser(other), init, synth_episode(other, 0)[1])[1]),
             (inits, obss, execute(small_denoiser, every_fourth, inits, obss)[1]),
             (inits, obss, denoise_full(shorter, inits, obss)[1])]
    monkeypatch.setattr("bac.denoiser.block_residual", _never)
    for noise, o, bad in cases:
        with pytest.raises(ConsistencyError, match="reference is not a full trace of this run"):
            run_cached(small_denoiser, plan, noise, o, reference=bad)


def test_run_cached_reference_has_the_runs_episode_axis(small_denoiser, small_episode,
                                                       monkeypatch):
    """A batched reference for a one-episode run, a one-episode reference for
    a batched run, or a reference of more episodes than the run fails by name
    with both shapes, before the run."""
    init, obs = small_episode
    inits, obss = np.stack([init, init]), np.stack([obs, obs])
    one = denoise_full(small_denoiser, init, obs)[1]
    two = denoise_full(small_denoiser, inits, obss)[1]
    three = denoise_full(small_denoiser, *stacked_episodes(small_denoiser.config, 3, 3))[1]
    plan = _plan(small_denoiser.config, lambda b: (0, 5))

    def shapes(trace):
        return re.escape(str((trace.computed.shape, trace.slot.shape, trace.actions.shape)))

    monkeypatch.setattr("bac.denoiser.block_residual", _never)
    for noise, o, bad, good in ((init, obs, two, one), (inits, obss, one, two),
                                (inits, obss, three, two)):
        with pytest.raises(ConsistencyError, match=f"{shapes(bad)}, want {shapes(good)}"):
            run_cached(small_denoiser, plan, noise, o, reference=bad)


@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_batched_run_cached_equals_row_by_row(small_denoiser, small_config, E, seed, density):
    """E episodes as one batch: every row's action, errors and deviation equal
    its own one-episode run bit for bit, and the plan's fields are shared."""
    update = np.random.default_rng(seed).random((3 * small_config.layers, small_config.K))
    update = update < density
    update[:, 0] = True
    plan = _plan(small_config, lambda b: np.flatnonzero(update[b.ordinal]).tolist())
    runs = [synth_episode(small_config, derive_seed(seed, e)) for e in range(E)]
    inits, obss = (np.stack(arrays) for arrays in zip(*runs))
    action, report = run_cached(small_denoiser, plan, inits, obss,
                                reference=denoise_full(small_denoiser, inits, obss)[1])
    assert report.errors.shape == (E, *update.shape)
    assert report.final_action_l2.shape == (E,)
    for e, (init, obs) in enumerate(runs):
        want, row = run_cached(small_denoiser, plan, init, obs,
                               reference=denoise_full(small_denoiser, init, obs)[1])
        assert np.array_equal(action[e], want)
        assert np.array_equal(report.errors[e], row.errors)
        assert type(row.final_action_l2) is float
        assert report.final_action_l2[e] == row.final_action_l2
        assert np.array_equal(report.update_mask, row.update_mask)
        assert report.flops == row.flops


def test_batched_report_block_means_average_episodes_and_steps(small_denoiser, small_config):
    runs = [synth_episode(small_config, derive_seed(5, e)) for e in range(3)]
    inits, obss = (np.stack(arrays) for arrays in zip(*runs))
    _, report = run_cached(small_denoiser, uniform_plan(small_config.K, 4, small_config.layers),
                           inits, obss, reference=denoise_full(small_denoiser, inits, obss)[1])
    means = report.block_mean_errors()
    assert list(means) == list(canonical_blocks(small_config.layers))
    for block, mean in means.items():
        assert mean == report.errors[:, block.ordinal].mean()


def test_run_cached_refuses_a_reference_of_other_inputs(small_denoiser, small_config,
                                                       monkeypatch):
    """A full reference of another episode or batch, or of the run's episodes
    in another order, fails by name before any block runs: its final action
    would otherwise be measured as this run's."""
    runs = [synth_episode(small_config, derive_seed(21, e)) for e in range(3)]
    inits, obss = (np.stack(arrays) for arrays in zip(*runs))
    (init, obs), (other_init, other_obs) = runs[:2]
    other = denoise_full(small_denoiser, other_init, other_obs)[1]
    batch = denoise_full(small_denoiser, inits, obss)[1]

    monkeypatch.setattr("bac.denoiser.block_residual", _never)
    for noise, o, bad in ((init, obs, other), (other_init, obs, other),
                          (inits[::-1], obss[::-1], batch),
                          (*stacked_episodes(small_config, 4, 3), batch)):
        for plan in (full_plan(small_config),
                     uniform_plan(small_config.K, 4, small_config.layers)):
            with pytest.raises(ConsistencyError, match="reference is not a full trace of "
                                                       "this run: it ran on other init_noise"):
                run_cached(small_denoiser, plan, noise, o, reference=bad)


@pytest.mark.parametrize("E", [None, 3], ids=["one-episode", "three-episodes"])
def test_report_measures_its_errors_once_on_first_read(small_denoiser, small_config,
                                                      monkeypatch, E):
    """``run_cached`` runs no error pass; the first read of ``errors`` runs
    ``block_errors`` once and later reads reuse it, and the value equals
    ``block_errors`` of the same mask run from step 0, bit for bit."""
    runs = [synth_episode(small_config, derive_seed(13, e)) for e in range(E or 1)]
    init, obs = (np.stack(arrays) for arrays in zip(*runs)) if E else runs[0]
    _, reference = denoise_full(small_denoiser, init, obs)
    calls = []

    def counted(run, reference):
        calls.append(run)
        return block_errors(run, reference)

    monkeypatch.setattr("bac.engine.block_errors", counted)
    _, report = run_cached(small_denoiser, uniform_plan(small_config.K, 4, small_config.layers),
                           init, obs, reference=reference)
    assert calls == []
    first = report.errors
    assert report.errors is first
    assert len(calls) == 1
    _, run = execute(small_denoiser, report.update_mask, init, obs)
    assert first.shape == (*np.shape(report.final_action_l2), *report.update_mask.shape)
    assert np.array_equal(first, block_errors(run, reference))


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
    """The MACs the plain-kernel oracle counts from its products' shapes, for
    the mask of each plan's cached run, equal ``flops_estimate``'s."""
    init, obs = small_episode
    _, ref = denoise_full(small_denoiser, init, obs)
    for steps in [(0,), (0, 3, 7), tuple(range(small_config.K))]:
        plan = _plan(small_config, lambda b: steps)
        action, report = run_cached(small_denoiser, plan, init, obs, reference=ref)
        tally = MacTally()
        want = execute_oracle(small_denoiser, report.update_mask, init, obs, tally=tally)[0]
        assert np.array_equal(action, want)
        assert tally.count == report.flops.flops_cached
    tally = MacTally()
    execute_oracle(small_denoiser, np.ones((3 * small_config.layers, small_config.K), dtype=bool),
                   init, obs, tally=tally)
    assert tally.count == flops_estimate(small_config, full_plan(small_config)).flops_full


def test_cached_run_stores_each_computed_residual_once(default_denoiser, default_config):
    """A uniform:10 run computes 240 residuals (4 KB each); a dense (3L, K, T, d)
    buffer of its served residuals alone would take 9.8 MB."""
    init, obs = synth_episode(default_config, derive_seed(7, 4))
    _, ref = denoise_full(default_denoiser, init, obs)
    plan = uniform_plan(100, 10, 8)
    tracemalloc.start()
    try:
        run_cached(default_denoiser, plan, init, obs, reference=ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
    update = run_cached(default_denoiser, plan, init, obs, reference=ref)[1].update_mask
    _, trace = execute(default_denoiser, update, init, obs)
    assert update.sum() == 240
    assert trace.computed.shape == (240, default_config.action_tokens, default_config.d_model)


# -- the memory preflight ---------------------------------------------------------


def _weight_arrays(den):
    yield from (den.in_proj, den.obs_proj, den.out_proj, den.time_emb)
    for lw in den.layers:
        for att in (lw.sa, lw.ca):
            yield from (att.wq, att.wk, att.wv, att.wo, att.gamma)
        yield from (lw.ffn.w1, lw.ffn.b1, lw.ffn.w2, lw.ffn.b2, lw.ffn.gamma)


def _trace_bytes(trace):
    return trace.computed.nbytes + trace.actions.nbytes + trace.slot.nbytes


def _spy_largest(monkeypatch, name):
    """Record the bytes of the largest array ``bac.denoiser.<name>`` is called on:
    the attention scores for ``softmax``, the FFN pre-activation for ``gelu``."""
    seen = [0]
    real = getattr(denoiser_module, name)

    def spy(x):
        seen[0] = max(seen[0], x.nbytes)
        return real(x)

    monkeypatch.setattr(f"bac.denoiser.{name}", spy)
    return seen


def test_memory_estimate_counts_built_weights_and_traces(small_denoiser, small_config,
                                                         small_episode, default_denoiser,
                                                         monkeypatch):
    for den in (small_denoiser, default_denoiser):
        assert memory_estimate(den.config) == sum(a.nbytes for a in _weight_arrays(den))
    seen = _spy_largest(monkeypatch, "softmax")
    hidden = _spy_largest(monkeypatch, "gelu")
    init, obs = small_episode
    weights = memory_estimate(small_config)
    _, full = denoise_full(small_denoiser, init, obs)
    # the scores of one episode and their softmax, then its FFN pre-activation
    # and GELU's two temporaries
    scores = 2 * seen[0] + 3 * hidden[0]
    assert memory_estimate(small_config, full_traces=1) - weights == _trace_bytes(full) + scores
    plan = _plan(small_config, lambda b: (0, 3, 4) if b.kind == "CA" else (0,))
    update = run_cached(small_denoiser, plan, init, obs, reference=full)[1].update_mask
    _, cached = execute(small_denoiser, update, init, obs)
    assert memory_estimate(small_config, plans=(plan,)) - weights == _trace_bytes(cached) + scores
    assert memory_estimate(small_config, 2, (plan, plan)) == (
        weights + 2 * _trace_bytes(full) + 2 * _trace_bytes(cached) + 2 * scores)


@pytest.mark.parametrize("tokens", [(5, 2), (2, 5)], ids=["sa-largest", "ca-largest"])
def test_memory_estimate_counts_the_largest_attention_scores(monkeypatch, tokens):
    """E full traces run as one batch, so their scores are E times one episode's."""
    t, tc = tokens
    cfg = DenoiserConfig(layers=1, d_model=8, heads=2, action_tokens=t, cond_tokens=tc,
                         action_dim=3, K=3)
    seen = _spy_largest(monkeypatch, "softmax")
    hidden = _spy_largest(monkeypatch, "gelu")
    init, obs = (np.stack(a) for a in zip(*(synth_episode(cfg, s) for s in range(3))))
    _, full = denoise_full(build_denoiser(cfg), init, obs)
    assert seen[0] == 8 * 3 * cfg.heads * t * max(t, tc)
    traces = full.computed.nbytes + full.actions.nbytes + 3 * full.slot.nbytes
    assert memory_estimate(cfg, full_traces=3) - memory_estimate(cfg) == (
        traces + 2 * seen[0] + 3 * hidden[0])


@pytest.mark.parametrize("episodes", [1, 3])
def test_memory_estimate_counts_the_ffn_hidden_arrays(monkeypatch, episodes):
    """The largest FFN call holds its (E, T, d_ff) pre-activation and GELU's two
    temporaries of that shape; E full traces run as one batch."""
    cfg = DenoiserConfig(layers=1, d_model=8, heads=2, action_tokens=5, cond_tokens=2,
                         action_dim=3, K=3)
    hidden = _spy_largest(monkeypatch, "gelu")
    runs = [synth_episode(cfg, s) for s in range(episodes)]
    init, obs = (np.stack(a) for a in zip(*runs))
    _, full = denoise_full(build_denoiser(cfg), init, obs)
    assert hidden[0] == 8 * episodes * cfg.action_tokens * cfg.d_ff
    traces = full.computed.nbytes + full.actions.nbytes + episodes * full.slot.nbytes
    scores = 8 * 2 * episodes * cfg.heads * 5 * 5
    assert memory_estimate(cfg, full_traces=episodes) - memory_estimate(cfg) == (
        traces + scores + 3 * hidden[0])


def test_memory_estimate_of_an_oversized_config_by_arithmetic():
    """Nothing is built: about 862 GB of weights and a 31 TB full trace."""
    cfg = DenoiserConfig(layers=400, d_model=4096, K=100_000)
    d, d_ff, t, a = 4096, 4 * 4096, 8, 7
    weights = 3 * a * d + 400 * (8 * d * d + 2 * d + 2 * d * d_ff + d_ff + 2 * d) + 100_000 * d
    trace = 1200 * 100_000 * t * d + 100_000 * t * a + 1200 * 100_000
    assert memory_estimate(cfg) == 8 * weights
    assert 860e9 < 8 * weights < 863e9
    estimate = memory_estimate(cfg, full_traces=1)
    # + one SA call's scores and softmax, and one FFN call's three hidden arrays
    assert estimate == 8 * (weights + trace + 2 * 4 * t * t + 3 * t * d_ff)
    assert 31.4e12 < 8 * trace < 31.5e12
    with pytest.raises(ConfigError, match=str(estimate)):
        check_memory(cfg, full_traces=1)


def test_memory_estimate_counts_the_similarity_matrices_by_arithmetic():
    """``layers=1, K=20000``: the three K x K matrices alone hold 9.6 GB, and
    one ``similarity_matrix`` call over E episodes three (E, K, K) products."""
    cfg = DenoiserConfig(layers=1, K=20_000)
    for episodes in (1, 3):
        grown = memory_estimate(cfg, episodes, matrices=True) - memory_estimate(cfg, episodes)
        assert grown == 8 * (3 + 3 * episodes) * 20_000**2
    assert 8 * 3 * 20_000**2 == 9.6e9
    assert memory_estimate(cfg, 1) < MEMORY_CAP_BYTES < memory_estimate(cfg, 1, matrices=True)
    with pytest.raises(ConfigError, match="similarity matrices"):
        check_memory(cfg, full_traces=1, matrices=True)


@pytest.mark.parametrize("episodes", [1, 3])
def test_similarity_matrices_peak_within_their_term(episodes):
    """The measured peak of the 3L matrices of one trace lies within one K x K
    matrix below the term, once the (E, K, T*d) unit features are set aside."""
    cfg = DenoiserConfig(layers=1, d_model=8, heads=2, action_tokens=2, cond_tokens=2,
                         action_dim=3, K=200)
    runs = [synth_episode(cfg, s) for s in range(episodes)]
    init, obs = (np.stack(a) for a in zip(*runs))
    _, trace = denoise_full(build_denoiser(cfg), init, obs)
    tracemalloc.start()
    try:
        _ = {b: similarity_matrix(trace, b) for b in canonical_blocks(cfg.layers)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    term = memory_estimate(cfg, episodes, matrices=True) - memory_estimate(cfg, episodes)
    unit = 8 * episodes * cfg.K * cfg.action_tokens * cfg.d_model
    assert term - 8 * cfg.K**2 < peak - unit <= term


def test_default_config_is_far_below_the_cap(default_config):
    assert memory_estimate(default_config, full_traces=10) < MEMORY_CAP_BYTES / 10
    check_memory(default_config, full_traces=10)


@pytest.mark.parametrize("E", [None, 2], ids=["one-episode", "two-episodes"])
@pytest.mark.parametrize("steps", [(0, 1, 5), (0, 3, 6, 9), tuple(range(12))])
def test_run_cached_computes_every_update_of_its_plan(small_denoiser, small_config,
                                                      monkeypatch, steps, E):
    """One block call per update of the plan's mask, the steps before its
    first reuse and every step of the full plan included: nothing is copied
    from the reference."""
    init, obs = stacked_episodes(small_config, 8, E) if E else synth_episode(small_config, 8)
    _, ref = denoise_full(small_denoiser, init, obs)
    calls = []
    real = denoiser_module.block_residual

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr("bac.denoiser.block_residual", counted)
    plan = _plan(small_config, lambda b: steps)
    run_cached(small_denoiser, plan, init, obs, reference=ref)
    assert len(calls) == plan.update_mask.sum()
