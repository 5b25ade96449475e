"""Deterministic toy diffusion-transformer denoiser.

The decoder is a pre-LayerNorm residual chain: per layer the hidden state
gains, in order, a causal self-attention residual, a cross-attention residual
over the conditioning tokens, and a feed-forward residual.  Every weight is a
pure function of (config, seed): draws come from one SplitMix64 stream in a
fixed fill order (input projection, observation encoder, then per layer
SA(Wq,Wk,Wv,Wo), CA(Wq,Wk,Wv,Wo), FFN(W1,b1,W2,b2), then output projection),
each tensor filled row-major and scaled to uniform(-a, a) with
a = sqrt(6 / (fan_in + fan_out)).  LayerNorm gains start at 1 and the
LayerNorm bias is zero.

Timesteps run in execution order t = 0..K-1; conditioning enters twice, as an
additive sinusoidal timestep embedding on the token stream and as encoded
observation tokens consumed by cross-attention.

The GELU computes its cube as ``x * x * x`` rather than ``x**3``: numpy's
power has no fast path for the exponent 3, and the power form took about two
thirds of a feed-forward block's time.  The two forms differ in the last ulp
for about a quarter of elements.  On eight default-config episodes the final
actions moved by at most 5e-13 relative, and the files of the README pipeline
and of ``bac export`` stayed byte-identical.  LayerNorm, the causal mask and
the ``execute`` loop are written for speed too, but keep the exact floating
point operations of their plain forms, so they change no bits.

The kernels take leading batch axes (``*lead, T, d``; MACs are per row), so
``execute`` runs E episodes as one batch, saving numpy's per-call dispatch on
these small tensors; each row equals its own run bit for bit.

``execute`` is the one forward loop, and it returns only what it served: each
block's residual at each step and each step's action.  The hidden state that
entered a block is not recorded; ``pre_block_states`` rebuilds it from those
residuals with the loop's own adds, bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockId, canonical_blocks
from .config import DenoiserConfig
from .errors import DimensionError, PlanError
from .rng import SplitMix64

LN_EPS = 1e-5

# tanh-form GELU; the smooth activation keeps the forward map twice
# continuously differentiable, which the error-propagation lab relies on.
GELU_C = 0.7978845608028654  # sqrt(2 / pi)
GELU_A = 0.044715


def gelu(x: np.ndarray) -> np.ndarray:
    # x * x * x, not x**3: numpy's power has no fast path for the exponent 3
    inner = GELU_C * (x + GELU_A * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_prime(x: np.ndarray) -> np.ndarray:
    """Closed-form derivative of the tanh-form GELU, with ``gelu``'s arithmetic."""
    inner = GELU_C * (x + GELU_A * (x * x * x))
    th = np.tanh(inner)
    sech2 = 1.0 - th * th
    return 0.5 * (1.0 + th) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * GELU_A * (x * x))


def layer_norm(h: np.ndarray, gamma: np.ndarray, eps: float = LN_EPS) -> np.ndarray:
    """Row-wise LayerNorm with zero bias; population variance over features.

    One centering pass: the sums and divisions are the ones ``np.mean`` and
    ``np.var`` perform, so the result equals
    ``(h - h.mean(-1)) / sqrt(h.var(-1) + eps) * gamma`` bit for bit.
    """
    n = h.shape[-1]
    c = h - h.sum(axis=-1, keepdims=True) / n
    var = (c * c).sum(axis=-1, keepdims=True) / n
    c /= np.sqrt(var + eps)
    c *= gamma
    return c


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class MacCounter:
    """Running multiply-accumulate tally.

    Counts matrix-product MACs plus the documented per-reuse tensor-add charge;
    elementwise ops (LayerNorm, softmax, GELU, residual adds) are free.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


@dataclass(frozen=True)
class AttentionWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class FfnWeights:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class LayerWeights:
    sa: AttentionWeights
    ca: AttentionWeights
    ffn: FfnWeights


@dataclass(frozen=True)
class ToyDenoiser:
    config: DenoiserConfig
    in_proj: np.ndarray   # (action_dim, d_model)
    obs_proj: np.ndarray  # (action_dim, d_model), applied per conditioning token
    out_proj: np.ndarray  # (d_model, action_dim)
    time_emb: np.ndarray  # (K, d_model)
    layers: tuple[LayerWeights, ...]


@dataclass(frozen=True)
class FeatureTrace:
    """Residual outputs of every block at every step, plus per-step actions.

    ``residuals[block.ordinal, t]`` is the T x d_model residual the block added
    at step t; ``actions[t]`` is the denoiser output after step t.  A batched
    ``execute`` puts a leading episode axis on every array.
    """

    residuals: np.ndarray  # (3L, K, T, d_model)
    actions: np.ndarray    # (K, T, action_dim)


def _xavier(stream: SplitMix64, fan_in: int, fan_out: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    arr = stream.uniform(int(np.prod(shape)), bound).reshape(shape)
    arr.flags.writeable = False
    return arr


def _frozen_ones(n: int) -> np.ndarray:
    arr = np.ones(n)
    arr.flags.writeable = False
    return arr


def _sinusoidal_table(K: int, d: int) -> np.ndarray:
    pos = np.arange(K, dtype=np.float64)[:, None]
    half = (d + 1) // 2
    freq = np.exp(-np.log(10000.0) * (2.0 * np.arange(half) / d))[None, :]
    table = np.zeros((K, d))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)[:, : d // 2]
    table.flags.writeable = False
    return table


def build_denoiser(config: DenoiserConfig) -> ToyDenoiser:
    """Construct the seeded denoiser; bit-identical for equal (config, seed)."""
    d, a = config.d_model, config.action_dim
    d_ff = config.d_ff
    stream = SplitMix64(config.seed)

    in_proj = _xavier(stream, a, d, (a, d))
    obs_proj = _xavier(stream, a, d, (a, d))

    layers = []
    for _ in range(config.layers):
        sa = AttentionWeights(
            *(_xavier(stream, d, d, (d, d)) for _ in range(4)),
            gamma=_frozen_ones(d),
        )
        ca = AttentionWeights(
            *(_xavier(stream, d, d, (d, d)) for _ in range(4)),
            gamma=_frozen_ones(d),
        )
        w1 = _xavier(stream, d, d_ff, (d, d_ff))
        b1 = _xavier(stream, d, d_ff, (d_ff,))
        w2 = _xavier(stream, d_ff, d, (d_ff, d))
        b2 = _xavier(stream, d_ff, d, (d,))
        ffn = FfnWeights(w1, b1, w2, b2, gamma=_frozen_ones(d))
        layers.append(LayerWeights(sa, ca, ffn))

    out_proj = _xavier(stream, d, a, (d, a))
    return ToyDenoiser(
        config=config,
        in_proj=in_proj,
        obs_proj=obs_proj,
        out_proj=out_proj,
        time_emb=_sinusoidal_table(config.K, d),
        layers=tuple(layers),
    )


def weight_checksum(denoiser: ToyDenoiser) -> str:
    """SHA-256 over all weight tensors in fill order."""
    digest = hashlib.sha256()
    digest.update(denoiser.in_proj.tobytes())
    digest.update(denoiser.obs_proj.tobytes())
    for lw in denoiser.layers:
        for att in (lw.sa, lw.ca):
            for arr in (att.wq, att.wk, att.wv, att.wo, att.gamma):
                digest.update(arr.tobytes())
        for arr in (lw.ffn.w1, lw.ffn.b1, lw.ffn.w2, lw.ffn.b2, lw.ffn.gamma):
            digest.update(arr.tobytes())
    digest.update(denoiser.out_proj.tobytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=8)
def _causal_mask(t_q: int, t_kv: int) -> np.ndarray:
    """Read-only (t_q, t_kv) mask of the keys after each query, built once per shape."""
    mask = np.triu(np.ones((t_q, t_kv), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _mha(
    x_q: np.ndarray,
    x_kv: np.ndarray,
    w: AttentionWeights,
    heads: int,
    causal: bool,
    mac: MacCounter | None,
) -> np.ndarray:
    *lead, t_q, d = x_q.shape
    t_kv = x_kv.shape[-2]
    d_head = d // heads

    q = x_q @ w.wq
    k = x_kv @ w.wk
    v = x_kv @ w.wv
    if mac is not None:
        rows = math.prod(lead)
        mac.add(rows * (t_q * d * d + 2 * t_kv * d * d))

    qh = q.reshape(*lead, t_q, heads, d_head).swapaxes(-3, -2)
    kh = k.reshape(*lead, t_kv, heads, d_head).swapaxes(-3, -2)
    vh = v.reshape(*lead, t_kv, heads, d_head).swapaxes(-3, -2)

    scores = qh @ kh.swapaxes(-1, -2) / np.sqrt(d_head)
    if causal:
        np.copyto(scores, -np.inf, where=_causal_mask(t_q, t_kv))
    weights = softmax(scores)
    mixed = weights @ vh

    merged = mixed.swapaxes(-3, -2).reshape(*lead, t_q, d)
    out = merged @ w.wo
    if mac is not None:
        mac.add(rows * (2 * t_q * t_kv * d + t_q * d * d))
    return out


def block_residual(
    denoiser: ToyDenoiser,
    block: BlockId,
    h: np.ndarray,
    cond: np.ndarray,
    mac: MacCounter | None = None,
) -> np.ndarray:
    """Residual output of one block given the running hidden state.

    This is the single compute path shared by full-precision and cached
    execution, so a full update plan reproduces the reference bit for bit.
    """
    lw = denoiser.layers[block.layer]
    heads = denoiser.config.heads
    if block.kind == "SA":
        x = layer_norm(h, lw.sa.gamma)
        return _mha(x, x, lw.sa, heads, causal=True, mac=mac)
    if block.kind == "CA":
        x = layer_norm(h, lw.ca.gamma)
        return _mha(x, cond, lw.ca, heads, causal=False, mac=mac)
    x = layer_norm(h, lw.ffn.gamma)
    u = x @ lw.ffn.w1 + lw.ffn.b1
    out = gelu(u) @ lw.ffn.w2 + lw.ffn.b2
    if mac is not None:
        mac.add(8 * x.size * x.shape[-1])
    return out


def encode_obs(denoiser: ToyDenoiser, obs: np.ndarray, mac: MacCounter | None = None) -> np.ndarray:
    """Project each raw observation vector into cond_tokens conditioning tokens."""
    cfg = denoiser.config
    lead = obs.shape[:-1]
    tokens = obs.reshape(*lead, cfg.cond_tokens, cfg.action_dim) @ denoiser.obs_proj
    if mac is not None:
        mac.add(math.prod(lead) * cfg.cond_tokens * cfg.action_dim * cfg.d_model)
    return tokens


def embed_action(
    denoiser: ToyDenoiser, noisy_action: np.ndarray, t: int, mac: MacCounter | None = None
) -> np.ndarray:
    cfg = denoiser.config
    h = noisy_action @ denoiser.in_proj + denoiser.time_emb[t]
    if mac is not None:
        mac.add(noisy_action.size * cfg.d_model)
    return h


def project_action(
    denoiser: ToyDenoiser, h: np.ndarray, mac: MacCounter | None = None
) -> np.ndarray:
    cfg = denoiser.config
    out = h @ denoiser.out_proj
    if mac is not None:
        mac.add(h.size * cfg.action_dim)
    return out


def execute(
    denoiser: ToyDenoiser,
    update: np.ndarray,
    init_noise: np.ndarray,
    obs: np.ndarray,
    mac: MacCounter | None = None,
) -> tuple[np.ndarray, FeatureTrace]:
    """Run all K steps under update-then-reuse, feeding each output into the next step.

    ``update`` is a (3L, K) bool mask over (block ordinal, step).  Where it is
    true the block recomputes its residual on the current hidden state;
    elsewhere it serves the residual it served at the previous step and is
    charged one T x d_model tensor add.  Step 0 must update every block (the
    cache starts cold).  The returned trace holds the residuals actually
    served; ``pre_block_states`` rebuilds from it the hidden state that
    entered any block.

    ``init_noise`` (E, T, a) and ``obs`` (E, obs_dim) run E episodes as one
    batch under the shared mask; every result gains a leading episode axis.
    ``obs`` is encoded once, but the MACs charge its encoding at every step,
    as ``engine.flops_estimate`` does.
    """
    cfg = denoiser.config
    action = np.asarray(init_noise, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    lead = action.shape[:-2]  # () or (E,)
    if (len(lead) > 1 or 0 in lead or action.shape[-2:] != (cfg.action_tokens, cfg.action_dim)
            or obs.shape != (*lead, cfg.obs_dim)):
        raise DimensionError(
            f"init_noise shape {action.shape} and obs shape {obs.shape} != "
            f"({cfg.action_tokens}, {cfg.action_dim}) and ({cfg.obs_dim},), each with an "
            f"optional leading axis of E >= 1 episodes")

    blocks = canonical_blocks(cfg.layers)
    update = np.asarray(update, dtype=bool)
    if update.shape != (len(blocks), cfg.K):
        raise DimensionError(f"update mask shape {update.shape} != ({len(blocks)}, {cfg.K})")
    cold = np.flatnonzero(~update[:, 0])
    if cold.size:
        raise PlanError(f"{blocks[cold[0]].name}: cold cache, step 0 must be an update")

    residuals = np.empty((*lead, len(blocks), cfg.K, cfg.action_tokens, cfg.d_model))
    actions = np.empty((*lead, cfg.K, cfg.action_tokens, cfg.action_dim))
    by_step = np.moveaxis(residuals, 0, 2) if lead else residuals  # (3L, K, *lead, T, d)
    steps = update.T.tolist()  # steps[t][i]: plain bools, no numpy indexing per block
    served: list[np.ndarray | None] = [None] * len(blocks)  # each block's last served residual

    cond = encode_obs(denoiser, obs, mac)
    for t, row in enumerate(steps):
        out = by_step[:, t]
        h = embed_action(denoiser, action, t, mac)  # a fresh array, so += is safe
        for i, block in enumerate(blocks):
            if row[i]:
                served[i] = out[i] = block_residual(denoiser, block, h, cond, mac)
            h += served[i]
        action = project_action(denoiser, h, mac)
        actions[..., t, :, :] = action

    # a reused residual equals the one served at the last update: fill each
    # span of reuse steps from it
    for i, row in enumerate(update):
        ups = np.flatnonzero(row).tolist()
        for start, end in zip(ups, ups[1:] + [cfg.K]):
            if end - start > 1:
                by_step[i, start + 1:end] = by_step[i, start]
    if mac is not None:  # one T x d_model add per reuse; the encoding, per step
        reuses = int(update.size - np.count_nonzero(update))
        mac.add(math.prod(lead) * (cfg.action_tokens * cfg.d_model * reuses
                                   + (cfg.K - 1) * cfg.cond_tokens * cfg.action_dim * cfg.d_model))
    return action, FeatureTrace(residuals, actions)


def pre_block_states(
    denoiser: ToyDenoiser, trace: FeatureTrace, init_noise: np.ndarray, block: BlockId
) -> np.ndarray:
    """The hidden state that entered ``block`` at every step of the run behind ``trace``.

    Repeats ``execute``'s adds in their order: the embedding of the previous
    action (``init_noise`` at step 0), then each served residual of the blocks
    before ``block``.  So it equals what the loop fed the block, bit for bit.
    Shape (K, T, d_model), with the trace's leading episode axis if it has one.
    """
    prev = [np.asarray(init_noise, dtype=np.float64), *np.moveaxis(trace.actions, -3, 0)[:-1]]
    h = np.stack([embed_action(denoiser, a, t) for t, a in enumerate(prev)], axis=-3)
    for i in range(block.ordinal):
        h += trace.residuals[..., i, :, :, :]
    return h


def denoise_full(
    denoiser: ToyDenoiser,
    init_noise: np.ndarray,
    obs: np.ndarray,
    mac: MacCounter | None = None,
) -> tuple[np.ndarray, FeatureTrace]:
    """Full-precision run: ``execute`` with every block updating at every step."""
    cfg = denoiser.config
    update = np.ones((3 * cfg.layers, cfg.K), dtype=bool)
    return execute(denoiser, update, init_noise, obs, mac)


def synth_episode(config: DenoiserConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded synthetic episode: Gaussian initial noise, then the observation.

    Draw order is fixed (noise first), so an episode is fully determined by
    (config, seed).
    """
    stream = SplitMix64(seed)
    init = stream.normal(config.action_tokens * config.action_dim)
    init = init.reshape(config.action_tokens, config.action_dim)
    obs = stream.normal(config.obs_dim)
    return init, obs
