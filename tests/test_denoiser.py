import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bac.blocks import BlockId, canonical_blocks
from bac.config import DenoiserConfig
from bac.denoiser import (
    _attend,
    _causal_mask,
    _split_heads,
    build_denoiser,
    denoise_full,
    execute,
    gelu,
    gelu_prime,
    input_digest,
    layer_norm,
    pre_block_states,
    softmax,
    synth_episode,
    weight_checksum,
)
from bac.bua import SchedulePlan
from bac.engine import flops_estimate, run_cached, uniform_plan
from bac.errors import ConfigError, DimensionError
from bac.profiler import profile_task
from bac.rng import derive_seed
from bac.scheduler import solve_schedule
from conftest import (MacTally, execute_oracle, plain_gelu, plain_softmax, stacked_episodes,
                      two_pass_layer_norm)


def test_build_is_deterministic(small_config):
    a = weight_checksum(build_denoiser(small_config))
    b = weight_checksum(build_denoiser(small_config))
    assert a == b


def test_default_weights_are_pinned():
    # the SplitMix64 fill of DenoiserConfig(); a change to the draws moves it
    assert weight_checksum(build_denoiser(DenoiserConfig())) == (
        "9b4a554591c38f55be28eb9fbec041de13c7fb5fd9082f3d3fb82e431247e2dd")


def test_build_rejects_bad_heads():
    with pytest.raises(ConfigError):
        build_denoiser(DenoiserConfig(heads=3, d_model=64))


def test_seed_changes_weights(small_config):
    a = weight_checksum(build_denoiser(small_config))
    b = weight_checksum(build_denoiser(dataclasses.replace(small_config, seed=12)))
    assert a != b


def test_zero_output_projection_gives_zero_action(small_denoiser, small_episode):
    zeroed = dataclasses.replace(
        small_denoiser, out_proj=np.zeros_like(small_denoiser.out_proj)
    )
    init, obs = small_episode
    action, trace = denoise_full(zeroed, init, obs)
    assert np.all(action == 0.0)
    assert np.all(trace.actions == 0.0)


def test_denoise_full_finite_and_bounded(default_denoiser, default_config):
    init, obs = synth_episode(default_config, derive_seed(7, 0))
    action, trace = denoise_full(default_denoiser, init, obs)
    assert np.all(np.isfinite(trace.actions)) and np.all(np.isfinite(trace.residuals))
    assert np.abs(action).max() < 1e3
    assert len(trace.residuals) == 3 * default_config.layers


def test_trace_shape_counts_all_blocks():
    cfg = DenoiserConfig(layers=2, d_model=8, heads=2, action_tokens=3,
                         cond_tokens=2, action_dim=2, K=2, seed=1)
    den = build_denoiser(cfg)
    init, obs = synth_episode(cfg, 5)
    _, trace = denoise_full(den, init, obs)
    assert trace.residuals.shape == (6, 2, 3, 8)  # 2 steps x 3 blocks x 2 layers
    assert trace.actions.shape == (2, 3, 2)
    # served() gathers a new array, which callers may write into
    served = trace.served(4)
    assert not np.shares_memory(served, trace.computed)
    assert np.array_equal(served, trace.residuals[4])


def test_denoise_full_repeatable(default_denoiser, default_config):
    init, obs = synth_episode(default_config, derive_seed(7, 1))
    a1, _ = denoise_full(default_denoiser, init, obs)
    a2, _ = denoise_full(default_denoiser, init, obs)
    assert np.array_equal(a1, a2)


def test_residual_chain_consistency(small_denoiser, small_episode):
    """Pre-layer state plus the three recorded residuals equals the next
    layer's pre-SA state, bit for bit."""
    init, obs = small_episode
    cfg = small_denoiser.config
    t = 4
    _, trace = denoise_full(small_denoiser, init, obs)
    for layer in range(cfg.layers - 1):
        h = pre_block_states(small_denoiser, trace, init, BlockId(layer, "SA"))[t]
        for kind in ("SA", "CA", "FFN"):
            h = h + trace.residuals[BlockId(layer, kind).ordinal, t]
        nxt = pre_block_states(small_denoiser, trace, init, BlockId(layer + 1, "SA"))[t]
        assert np.array_equal(h, nxt)


def test_gelu_derivative_matches_finite_differences():
    x = np.linspace(-4, 4, 41)
    h = 1e-6
    fd = (gelu(x + h) - gelu(x - h)) / (2 * h)
    assert np.abs(gelu_prime(x) - fd).max() < 1e-9


def test_gelu_second_derivative_bounded():
    # smooth activation: curvature exists and stays bounded on the real line
    x = np.linspace(-30, 30, 10_001)
    h = 1e-4
    second = (gelu_prime(x + h) - gelu_prime(x - h)) / (2 * h)
    assert np.all(np.isfinite(second))
    assert np.abs(second).max() < 2.0


def test_synth_episode_deterministic(small_config):
    a = synth_episode(small_config, 123)
    b = synth_episode(small_config, 123)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = synth_episode(small_config, 124)
    assert not np.array_equal(a[0], c[0])


def test_gelu_prime_matches_central_difference_on_ffn_preactivations(
    default_denoiser, default_config
):
    init, obs = synth_episode(default_config, derive_seed(7, 2))
    _, trace = denoise_full(default_denoiser, init, obs)
    ffns = [default_denoiser.layers[layer].ffn for layer in (0, 7)]
    u = np.concatenate([
        layer_norm(pre_block_states(default_denoiser, trace, init, BlockId(layer, "FFN"))[t],
                   ffn.gamma) @ ffn.w1 + ffn.b1
        for layer, ffn in zip((0, 7), ffns) for t in (0, 50, 99)
    ])
    step = 1e-5
    fd = (gelu(u + step) - gelu(u - step)) / (2 * step)
    # atol covers the zero of gelu' near x = -0.75, where no relative bound holds
    np.testing.assert_allclose(gelu_prime(u), fd, rtol=1e-6, atol=1e-9)


@given(
    arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 70)),
           elements=st.floats(-1e3, 1e3)),
    st.sampled_from([0.0, 1.0, -3.5, 1e8]),
    st.floats(0.25, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_layer_norm_equals_two_pass_form_bitwise(h, offset, gain):
    h = h + offset
    gamma = gain * np.linspace(0.5, 1.5, h.shape[1])
    before = h.copy()
    assert np.array_equal(layer_norm(h, gamma), two_pass_layer_norm(h, gamma))
    assert np.array_equal(h, before)


def _fresh_mask_mha(x, w, heads):
    """Causal self-attention with the mask built and applied on every call."""
    t, d = x.shape
    d_head = d // heads
    qh, kh, vh = (
        (x @ m).reshape(t, heads, d_head).transpose(1, 0, 2) for m in (w.wq, w.wk, w.wv)
    )
    scores = qh @ kh.transpose(0, 2, 1) / np.sqrt(d_head)
    scores[:, np.triu(np.ones((t, t), dtype=bool), k=1)] = -np.inf
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=-1, keepdims=True)
    return (weights @ vh).transpose(1, 0, 2).reshape(t, d) @ w.wo


@pytest.mark.parametrize("tokens", range(1, 10))
def test_causal_attention_with_cached_mask_matches_fresh_mask(default_denoiser, tokens):
    rng = np.random.default_rng(tokens)
    sa = default_denoiser.layers[3].sa
    heads = default_denoiser.config.heads
    x = rng.standard_normal((tokens, default_denoiser.config.d_model))
    kh, vh = _split_heads(x @ sa.wk, heads), _split_heads(x @ sa.wv, heads)
    for _ in range(2):  # the second call reads the cached mask
        got = _attend(x, kh, vh, sa, default_denoiser.attn_scale, causal=True)
        assert np.array_equal(got, _fresh_mask_mha(x, sa, heads))
    assert not _causal_mask(tokens, tokens).flags.writeable


# -- the execute loop against its per-block oracle ---------------------------------


def _dense(trace):
    """The (*lead, 3L, K, T, d) served residuals of any trace, one gather per block."""
    return np.stack([trace.served(i) for i in range(len(trace.slot))], axis=-4)


@pytest.fixture(scope="module")
def execute_cases(default_denoiser, default_config):
    cfg = default_config
    n, K = 3 * cfg.layers, cfg.K
    profile = profile_task(default_denoiser, 1, 42)
    dp = SchedulePlan(layers=cfg.layers, schedules={
        block: solve_schedule(stats.s, K, 10)[0] for block, stats in profile.blocks.items()
    }).update_mask
    step0 = np.zeros((n, K), dtype=bool)
    step0[:, 0] = True
    uniform = uniform_plan(K, 10, cfg.layers).update_mask
    capture = {(b, t) for b in canonical_blocks(cfg.layers) for t in range(K)}
    return {
        "full": (np.ones((n, K), dtype=bool), None),
        "uniform10": (uniform, None),
        "dp10": (dp, None),
        "step0_only": (step0, None),
        "uniform10_capture": (uniform, capture),
    }


@pytest.mark.parametrize(
    "case", ["full", "uniform10", "dp10", "step0_only", "uniform10_capture"])
def test_execute_matches_per_block_oracle(default_denoiser, default_config, execute_cases, case):
    update, capture = execute_cases[case]
    init, obs = synth_episode(default_config, derive_seed(7, 3))
    action, trace = execute(default_denoiser, update, init, obs)
    want_action, want_residuals, want_actions, want_captured = execute_oracle(
        default_denoiser, update, init, obs, capture=capture)
    assert np.array_equal(action, want_action)
    assert np.array_equal(_dense(trace), want_residuals)
    assert np.array_equal(trace.actions, want_actions)
    if capture is not None:
        assert len(want_captured) == len(capture)
        for block in canonical_blocks(default_config.layers):
            states = pre_block_states(default_denoiser, trace, init, block)
            for t, state in enumerate(states):
                assert np.array_equal(state, want_captured[(block, t)])


# -- the block kernels against their plain per-call formulas -----------------------


@functools.lru_cache(maxsize=None)
def _default_with_heads(heads):
    return build_denoiser(dataclasses.replace(DenoiserConfig(), heads=heads))


@pytest.mark.parametrize("cached", [False, True], ids=["full", "uniform10"])
@pytest.mark.parametrize("E", [1, 3])
@pytest.mark.parametrize("heads", [2, 4, 8])
def test_execute_equals_plain_kernel_loop(heads, E, cached):
    den = _default_with_heads(heads)
    cfg = den.config
    plan = uniform_plan(cfg.K, 10 if cached else cfg.K, cfg.layers)
    update = plan.update_mask
    if E == 1:  # one unbatched episode
        init, obs = synth_episode(cfg, derive_seed(11, heads))
    else:
        init, obs = stacked_episodes(cfg, 11 + heads, E)
    tally = MacTally()
    action, trace = execute(den, update, init, obs)
    want_action, want_residuals, want_actions, _ = execute_oracle(
        den, update, init, obs, tally=tally)
    assert np.array_equal(action, want_action)
    assert np.array_equal(_dense(trace), want_residuals)
    assert np.array_equal(trace.actions, want_actions)
    flops = flops_estimate(cfg, plan)
    assert tally.count == E * (flops.flops_cached if cached else flops.flops_full)


_KERNEL_INPUTS = arrays(
    np.float64, st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 70)),
    elements=st.floats(-1e3, 1e3))


@given(_KERNEL_INPUTS, st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_softmax_equals_plain_form_bitwise(x, seed):
    # some keys masked as in causal attention; the first of each row stays
    masked = np.random.default_rng(seed).random(x.shape) < 0.3
    masked[..., 0] = False
    x[masked] = -np.inf
    before = x.copy()
    assert np.array_equal(softmax(x), plain_softmax(x))
    assert np.array_equal(x, before)


@given(_KERNEL_INPUTS, st.sampled_from([1.0, 1e-3, 1e3]))
@settings(max_examples=80, deadline=None)
def test_gelu_equals_plain_form_bitwise_and_keeps_its_input(x, scale):
    x = x * scale
    before = x.copy()
    assert np.array_equal(gelu(x), plain_gelu(x))
    assert np.array_equal(x, before)


# -- the compact trace: each computed residual once, plus the slot it serves ----


@given(
    arrays(np.bool_, (6, 12)),  # the small config: 3 x 2 blocks, K = 12
    st.sampled_from([None, 2]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_compact_trace_serves_what_the_oracle_served(small_denoiser, update, E, seed):
    cfg = small_denoiser.config
    update[:, 0] = True
    if E is None:
        init, obs = synth_episode(cfg, seed)
        rows = [(init, obs)]
    else:
        init, obs = stacked_episodes(cfg, seed, E)
        rows = list(zip(init, obs))
    _, trace = execute(small_denoiser, update, init, obs)

    assert trace.computed.shape[-3] == update.sum()
    wants = [execute_oracle(small_denoiser, update, i, o)[1] for i, o in rows]
    for i in range(len(update)):
        got = trace.served(i) if E else trace.served(i)[None]
        for e, want in enumerate(wants):
            assert np.array_equal(got[e], want[i])
        for t in range(cfg.K):
            last = max(s for s in range(t + 1) if update[i, s])
            assert trace.slot[i, t] == update[:i].sum() + update[i, :last].sum()

    init, obs = rows[0]
    _, reference = denoise_full(small_denoiser, init, obs)
    _, report = run_cached(small_denoiser, SchedulePlan.from_mask(update), init, obs,
                           reference=reference)
    diff = _dense(execute(small_denoiser, update, init, obs)[1]) - reference.residuals
    assert np.array_equal(report.errors, np.sqrt(np.einsum("btij,btij->bt", diff, diff)))


def test_execute_returns_a_read_only_trace(small_denoiser, small_episode):
    """A report measures its errors from the trace after the run, so nothing
    may write to it in between."""
    init, obs = small_episode
    _, trace = denoise_full(small_denoiser, init, obs)
    assert trace.inputs == input_digest(init, obs)
    for arr in (trace.computed, trace.slot, trace.actions, trace.residuals):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


# -- a leading episode axis on execute ------------------------------------------


@given(
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_batched_execute_equals_row_by_row(small_denoiser, E, seed, density):
    cfg = small_denoiser.config
    blocks = canonical_blocks(cfg.layers)
    rng = np.random.default_rng(seed)
    update = rng.random((3 * cfg.layers, cfg.K)) < density
    update[:, 0] = True
    inits, obss = stacked_episodes(cfg, seed, E)
    action, trace = execute(small_denoiser, update, inits, obss)
    assert trace.computed.shape == (E, update.sum(), cfg.action_tokens, cfg.d_model)
    computed = trace.computed.copy()
    states = [pre_block_states(small_denoiser, trace, inits, b) for b in blocks]
    assert np.array_equal(trace.computed, computed)  # the gathers leave the trace as it was
    assert states[0].shape == (E, cfg.K, cfg.action_tokens, cfg.d_model)
    for e in range(E):
        want, row = execute(small_denoiser, update, inits[e], obss[e])
        assert np.array_equal(action[e], want)
        assert np.array_equal(trace.computed[e], row.computed)
        assert np.array_equal(trace.slot, row.slot)
        assert np.array_equal(trace.actions[e], row.actions)
        for block, state in zip(blocks, states):
            assert np.array_equal(state[e], pre_block_states(small_denoiser, row, inits[e], block))


def _never(*_args, **_kwargs):
    raise AssertionError("computed a block before checking the inputs")


def _assert_rejected_before_any_block(monkeypatch, denoiser, init, obs):
    update = np.ones((3 * denoiser.config.layers, denoiser.config.K), dtype=bool)
    monkeypatch.setattr("bac.denoiser.block_residual", _never)
    with pytest.raises(DimensionError) as err:
        execute(denoiser, update, init, obs)
    assert str(init.shape) in str(err.value) and str(obs.shape) in str(err.value)


def test_execute_rejects_obs_batch_of_other_length(small_denoiser, small_config, monkeypatch):
    inits, obss = stacked_episodes(small_config, 3, 3)
    _assert_rejected_before_any_block(monkeypatch, small_denoiser, inits, obss[:2])


def test_execute_rejects_four_dimensional_noise(small_denoiser, small_config, monkeypatch):
    inits, obss = stacked_episodes(small_config, 3, 2)
    _assert_rejected_before_any_block(monkeypatch, small_denoiser, inits[None], obss[None])


def test_execute_rejects_empty_batch(small_denoiser, small_config, monkeypatch):
    inits, obss = stacked_episodes(small_config, 3, 1)
    _assert_rejected_before_any_block(monkeypatch, small_denoiser, inits[:0], obss[:0])


def test_execute_rejects_unbatched_bad_shapes(small_denoiser, small_episode, monkeypatch):
    init, obs = small_episode
    _assert_rejected_before_any_block(monkeypatch, small_denoiser, init[:, :-1], obs)
    _assert_rejected_before_any_block(monkeypatch, small_denoiser, init, obs[:-1])
