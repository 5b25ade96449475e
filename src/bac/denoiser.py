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

``FfnWeights`` and ``mlp`` are the one feed-forward type and computation: the
FFN block runs ``mlp`` after its LayerNorm, and the first-order error lab
(``errorlab``) runs it after an eps-free LayerNorm on its own random weights.

The GELU computes its cube as ``x * x * x`` rather than ``x**3``: numpy's
power has no fast path for the exponent 3, and the power form took about two
thirds of a feed-forward block's time.  The two forms differ in the last ulp
for about a quarter of elements.  On eight default-config episodes the final
actions moved by at most 5e-13 relative, and the files of the README pipeline
and of ``bac export`` stayed byte-identical.  LayerNorm, the causal mask and
the ``execute`` loop are written for speed too, but keep the exact floating
point operations of their plain forms, so they change no bits: LayerNorm,
softmax, GELU and the bias adds finish in their own temporaries (``out=``,
``+=``, ``/=``), and the attention scale ``sqrt(d_head)`` is computed once per
denoiser.

The conditioning tokens are encoded once per run, so ``execute`` also
projects each layer's cross-attention keys and values once (``cross_kv``)
and a CA block projects only its queries.  The MAC count still charges the
encoding at every step and the key and value projections at every CA call,
as ``engine.flops_estimate`` does: the counts describe the per-step design
of the model, not this loop's shortcut.

The kernels take leading batch axes (``*lead, T, d``; MACs are per row), so
``execute`` runs E episodes as one batch, saving numpy's per-call dispatch on
these small tensors; each row equals its own run bit for bit.

``execute`` is the one forward loop, and it returns only what it served: each
residual a block computed, stored once, the slot each (block, step) served,
and each step's action.  A reused residual is not copied: at the default
config a full pass holds 9.8 MB per episode and a cached run 4 KB per update.
The hidden state that entered a block is not recorded; ``pre_block_states``
rebuilds it from the served residuals with the loop's own adds, bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

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
    """Tanh-form GELU; ``x`` is left unchanged.

    The chain runs in two arrays of its own with the operations of
    ``0.5 * x * (1.0 + np.tanh(GELU_C * (x + GELU_A * (x * x * x))))``;
    a product or sum whose operands swap places is the same IEEE result.
    """
    # x * x * x, not x**3: numpy's power has no fast path for the exponent 3
    inner = x * x
    inner *= x
    inner *= GELU_A
    inner += x
    inner *= GELU_C
    np.tanh(inner, out=inner)
    inner += 1.0
    out = 0.5 * x
    out *= inner
    return out


def gelu_prime(x: np.ndarray) -> np.ndarray:
    """Closed-form derivative of the tanh-form GELU, with ``gelu``'s arithmetic."""
    inner = GELU_C * (x + GELU_A * (x * x * x))
    th = np.tanh(inner)
    sech2 = 1.0 - th * th
    return 0.5 * (1.0 + th) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * GELU_A * (x * x))


def layer_norm(h: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Row-wise LayerNorm with zero bias; population variance over features.

    One centering pass: the sums and divisions are the ones ``np.mean`` and
    ``np.var`` perform, so the result equals
    ``(h - h.mean(-1)) / sqrt(h.var(-1) + LN_EPS) * gamma`` bit for bit.
    """
    n = h.shape[-1]
    mean = h.sum(axis=-1, keepdims=True)
    mean /= n
    c = h - mean
    var = (c * c).sum(axis=-1, keepdims=True)
    var /= n
    var += LN_EPS
    c /= np.sqrt(var, out=var)
    c *= gamma
    return c


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in one new array; ``x`` is left unchanged."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
    """Feed-forward weights; w1 maps d -> d_ff as ``x @ w1``, gamma is the LayerNorm gain."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        d, d_ff = self.w1.shape
        if self.w2.shape != (d_ff, d) or self.b1.shape != (d_ff,) \
                or self.b2.shape != (d,) or self.gamma.shape != (d,):
            raise DimensionError("inconsistent feed-forward parameter shapes")


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
    attn_scale: float = field(init=False)  # sqrt(d_head), the attention scores' divisor

    def __post_init__(self):
        cfg = self.config
        object.__setattr__(self, "attn_scale", math.sqrt(cfg.d_model // cfg.heads))


@dataclass(frozen=True)
class FeatureTrace:
    """The residuals a run served, each computed residual stored once, plus per-step actions.

    ``computed`` holds one T x d_model residual per update, numbered
    block-major (block 0's updates in step order, then block 1's, ...), and
    ``slot[i, t]`` names the one that block i served at step t: its last
    update at or before t.  ``served(i)`` is block i's residual at every
    step.  ``actions[t]`` is the denoiser output after step t.  A batched
    ``execute`` puts a leading episode axis on ``computed`` and ``actions``.

    In a full pass every block updates at every step, so ``slot`` is the
    identity and ``residuals`` is the dense (3L, K, T, d_model) array, a free
    reshape.  A cached run has no dense form here: it would copy each served
    residual into every step of its reuse span.
    """

    computed: np.ndarray  # (updates, T, d_model)
    slot: np.ndarray      # (3L, K) index into computed
    actions: np.ndarray   # (K, T, action_dim)

    def served(self, i: int) -> np.ndarray:
        """Block i's served residual at every step, (K, T, d_model) after any
        leading axes: one gather, so a new array."""
        return self.computed[..., self.slot[i], :, :]

    @property
    def residuals(self) -> np.ndarray:
        """Dense (3L, K, T, d_model) residuals, after any leading axes, of a full pass."""
        if self.computed.shape[-3] != self.slot.size:
            raise ValueError("a cached trace has no dense residuals; read it through served()")
        *lead, _, T, d = self.computed.shape
        return self.computed.reshape(*lead, *self.slot.shape, T, d)


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


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(*lead, t, d) -> (*lead, heads, t, d // heads), a view."""
    *lead, t, d = x.shape
    return x.reshape(*lead, t, heads, d // heads).swapaxes(-3, -2)


def _attend(
    x_q: np.ndarray,
    kh: np.ndarray,
    vh: np.ndarray,
    w: AttentionWeights,
    scale: float,
    causal: bool,
    mac: MacCounter | None,
) -> np.ndarray:
    """Multi-head attention of ``x_q``'s queries over keys and values already
    split into heads.  The MACs include the key and value projections, so a
    call costs the same whether its keys were projected for it or not."""
    *lead, t_q, d = x_q.shape
    heads, t_kv = kh.shape[-3], kh.shape[-2]
    scores = _split_heads(x_q @ w.wq, heads) @ kh.swapaxes(-1, -2)
    scores /= scale
    if causal:
        np.copyto(scores, -np.inf, where=_causal_mask(t_q, t_kv))
    mixed = softmax(scores) @ vh
    out = mixed.swapaxes(-3, -2).reshape(*lead, t_q, d) @ w.wo
    if mac is not None:
        mac.add(math.prod(lead) * (2 * t_q * d * d + 2 * t_kv * d * d + 2 * t_q * t_kv * d))
    return out


CrossKV = tuple[tuple[np.ndarray, np.ndarray], ...]


def cross_kv(denoiser: ToyDenoiser, tokens: np.ndarray) -> CrossKV:
    """Each layer's cross-attention keys and values of the encoded tokens,
    split into heads: one (keys, values) pair per layer.

    The tokens stay fixed for a whole run, so ``execute`` projects them once
    and every CA block call reads them.  They are charged to the calls, not
    here (see ``_attend``)."""
    heads = denoiser.config.heads
    return tuple(
        (_split_heads(tokens @ lw.ca.wk, heads), _split_heads(tokens @ lw.ca.wv, heads))
        for lw in denoiser.layers
    )


def mlp(ffn: FfnWeights, x: np.ndarray) -> np.ndarray:
    """``gelu(x @ w1 + b1) @ w2 + b2`` over the last axis of the normalized
    input ``x``, the bias adds in place.  The FFN block and the error lab's
    feed-forward map both run it."""
    u = x @ ffn.w1
    u += ffn.b1
    out = gelu(u) @ ffn.w2
    out += ffn.b2
    return out


def block_residual(
    denoiser: ToyDenoiser,
    block: BlockId,
    h: np.ndarray,
    cross: CrossKV,
    mac: MacCounter | None = None,
) -> np.ndarray:
    """Residual output of one block given the running hidden state.

    ``cross`` is ``cross_kv`` of the run's encoded tokens; only CA blocks
    read it.  This is the single compute path shared by full-precision and
    cached execution, so a full update plan reproduces the reference bit for
    bit.
    """
    lw = denoiser.layers[block.layer]
    if block.kind == "SA":
        x = layer_norm(h, lw.sa.gamma)
        heads = denoiser.config.heads
        kh, vh = _split_heads(x @ lw.sa.wk, heads), _split_heads(x @ lw.sa.wv, heads)
        return _attend(x, kh, vh, lw.sa, denoiser.attn_scale, causal=True, mac=mac)
    if block.kind == "CA":
        x = layer_norm(h, lw.ca.gamma)
        kh, vh = cross[block.layer]
        return _attend(x, kh, vh, lw.ca, denoiser.attn_scale, causal=False, mac=mac)
    x = layer_norm(h, lw.ffn.gamma)
    out = mlp(lw.ffn, x)
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
    cache starts cold).  The returned trace stores each computed residual
    once, at its block-major slot, and the slot each (block, step) served;
    ``pre_block_states`` rebuilds from it the hidden state that entered any
    block.

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

    # step 0 always updates, so no block's slots point into the block before it
    slot = np.cumsum(update.ravel()).reshape(update.shape) - 1
    computed = np.empty((*lead, np.count_nonzero(update), cfg.action_tokens, cfg.d_model))
    actions = np.empty((*lead, cfg.K, cfg.action_tokens, cfg.action_dim))
    by_slot = np.moveaxis(computed, -3, 0)  # (updates, *lead, T, d)
    steps = update.T.tolist()  # steps[t][i]: plain bools, no numpy indexing per block
    slots = slot.T.tolist()
    served: list[np.ndarray | None] = [None] * len(blocks)  # each block's last served residual

    cross = cross_kv(denoiser, encode_obs(denoiser, obs, mac))
    for t, (row, at) in enumerate(zip(steps, slots)):
        h = embed_action(denoiser, action, t, mac)  # a fresh array, so += is safe
        for i, block in enumerate(blocks):
            if row[i]:
                served[i] = by_slot[at[i]] = block_residual(denoiser, block, h, cross, mac)
            h += served[i]
        action = project_action(denoiser, h, mac)
        actions[..., t, :, :] = action

    if mac is not None:  # one T x d_model add per reuse; the encoding, per step
        reuses = int(update.size - np.count_nonzero(update))
        mac.add(math.prod(lead) * (cfg.action_tokens * cfg.d_model * reuses
                                   + (cfg.K - 1) * cfg.cond_tokens * cfg.action_dim * cfg.d_model))
    return action, FeatureTrace(computed, slot, actions)


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
        h += trace.served(i)
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
