import math

import numpy as np
import pytest

from bac.blocks import canonical_blocks
from bac.config import DenoiserConfig
from bac.denoiser import (
    GELU_A,
    GELU_C,
    block_residual,
    build_denoiser,
    cross_kv,
    denoise_full,
    synth_episode,
)
from bac.rng import derive_seed


@pytest.fixture(scope="session")
def small_config():
    return DenoiserConfig(
        layers=2,
        d_model=16,
        heads=2,
        action_tokens=4,
        cond_tokens=2,
        action_dim=3,
        K=12,
        seed=11,
    )


@pytest.fixture(scope="session")
def small_denoiser(small_config):
    return build_denoiser(small_config)


@pytest.fixture(scope="session")
def small_episode(small_config):
    return synth_episode(small_config, derive_seed(99, 0))


@pytest.fixture(scope="session")
def small_trace(small_denoiser, small_episode):
    init, obs = small_episode
    final, trace = denoise_full(small_denoiser, init, obs)
    return final, trace


def stacked_episodes(config, seed, count):
    """``count`` seeded episodes stacked into one batch: (inits, obss)."""
    runs = [synth_episode(config, derive_seed(seed, e)) for e in range(count)]
    return np.stack([init for init, _ in runs]), np.stack([obs for _, obs in runs])


@pytest.fixture(scope="session")
def default_config():
    return DenoiserConfig()


@pytest.fixture(scope="session")
def default_denoiser(default_config):
    return build_denoiser(default_config)


def full_trace(residuals, actions):
    """The FeatureTrace of a pass in which every block updated at every step;
    ``residuals`` is (3L, K, T, d_model), with any leading axes.  No inputs
    lie behind it, so its digest is empty and fits no run."""
    from bac.denoiser import FeatureTrace

    *lead, n, K, T, d = residuals.shape
    return FeatureTrace(residuals.reshape(*lead, n * K, T, d), np.arange(n * K).reshape(n, K),
                        actions, inputs=b"")


def make_trace(residual_fn, K, blocks=1, tokens=2, width=3):
    """Synthetic FeatureTrace whose block-0 residuals follow residual_fn(t)."""
    residuals = np.empty((3 * blocks, K, tokens, width))
    for ordinal in range(3 * blocks):
        for t in range(K):
            residuals[ordinal, t] = residual_fn(t)
    actions = np.zeros((K, tokens, width))
    return full_trace(residuals, actions)


# -- the forward loop in plain per-call form, with its MACs counted ---------------


class MacTally:
    """Multiply-accumulates of the matrix products a test performs: ``matmul``
    computes ``a @ b`` and charges it from the operand shapes."""

    def __init__(self):
        self.count = 0

    def matmul(self, a, b):
        out = a @ b
        self.count += out.size * a.shape[-1]
        return out


def two_pass_layer_norm(h, gamma, eps=1e-5):
    return (h - h.mean(-1, keepdims=True)) / np.sqrt(h.var(-1, keepdims=True) + eps) * gamma


def plain_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def plain_gelu(x):
    inner = GELU_C * (x + GELU_A * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def plain_attention(x_q, x_kv, w, heads, causal, matmul=np.matmul):
    """Separate Q, K and V projections of their inputs at every call; every
    product goes through ``matmul``."""
    *lead, t_q, d = x_q.shape
    t_kv = x_kv.shape[-2]
    d_head = d // heads
    q = matmul(x_q, w.wq)
    k = matmul(x_kv, w.wk)
    v = matmul(x_kv, w.wv)
    qh = q.reshape(*lead, t_q, heads, d_head).swapaxes(-3, -2)
    kh = k.reshape(*lead, t_kv, heads, d_head).swapaxes(-3, -2)
    vh = v.reshape(*lead, t_kv, heads, d_head).swapaxes(-3, -2)
    scores = matmul(qh, kh.swapaxes(-1, -2)) / np.sqrt(d_head)
    if causal:
        scores[..., np.triu(np.ones((t_q, t_kv), dtype=bool), k=1)] = -np.inf
    mixed = matmul(plain_softmax(scores), vh)
    return matmul(mixed.swapaxes(-3, -2).reshape(*lead, t_q, d), w.wo)


def plain_block_residual(denoiser, block, h, tokens, matmul=np.matmul):
    """The block kernels in plain per-call form: every temporary a new array,
    and the cross-attention keys and values projected from the tokens."""
    lw = denoiser.layers[block.layer]
    heads = denoiser.config.heads
    if block.kind == "SA":
        x = two_pass_layer_norm(h, lw.sa.gamma)
        return plain_attention(x, x, lw.sa, heads, True, matmul)
    if block.kind == "CA":
        x = two_pass_layer_norm(h, lw.ca.gamma)
        return plain_attention(x, tokens, lw.ca, heads, False, matmul)
    x = two_pass_layer_norm(h, lw.ffn.gamma)
    return matmul(plain_gelu(matmul(x, lw.ffn.w1) + lw.ffn.b1), lw.ffn.w2) + lw.ffn.b2


def execute_oracle(denoiser, update, init_noise, obs, capture=None, tally=None):
    """Exact-parity oracle: ``execute`` as one indexed write and one fresh sum
    per (block, step), its results equal to ``execute``'s bit for bit.

    It encodes the observation at every step.  Without ``tally`` the blocks
    run ``block_residual`` on the ``cross_kv`` of the tokens.  With it they
    run ``plain_block_residual``, and ``tally`` is charged every matrix
    product of the run, the encoding, embedding and projection included,
    plus one T x d_model add per reuse: the cost model's MACs, counted
    from the shapes of the products performed.  The loop also records the
    hidden state entering each (block, step) named in ``capture``, which
    ``pre_block_states`` must reproduce from the served trace.
    ``init_noise`` and ``obs`` may carry a leading episode axis.
    """
    cfg = denoiser.config
    matmul = np.matmul if tally is None else tally.matmul
    action = np.asarray(init_noise, dtype=np.float64)
    lead = action.shape[:-2]
    blocks = canonical_blocks(cfg.layers)
    residuals = np.empty((*lead, len(blocks), cfg.K, cfg.action_tokens, cfg.d_model))
    actions = np.empty((*lead, cfg.K, cfg.action_tokens, cfg.action_dim))
    wanted = set(capture) if capture is not None else None
    captured = {}
    for t in range(cfg.K):
        tokens = matmul(obs.reshape(*lead, cfg.cond_tokens, cfg.action_dim), denoiser.obs_proj)
        cross = cross_kv(denoiser, tokens) if tally is None else None
        h = matmul(action, denoiser.in_proj) + denoiser.time_emb[t]
        for block in blocks:
            i = block.ordinal
            if wanted is not None and (block, t) in wanted:
                captured[(block, t)] = h.copy()
            if not update[i, t]:
                residuals[..., i, t, :, :] = residuals[..., i, t - 1, :, :]
                if tally is not None:
                    tally.count += math.prod(lead) * cfg.action_tokens * cfg.d_model
            elif tally is None:
                residuals[..., i, t, :, :] = block_residual(denoiser, block, h, cross)
            else:
                residuals[..., i, t, :, :] = plain_block_residual(
                    denoiser, block, h, tokens, matmul)
            h = h + residuals[..., i, t, :, :]
        action = matmul(h, denoiser.out_proj)
        actions[..., t, :, :] = action
    return action, residuals, actions, captured if wanted is not None else None
