"""First-order error propagation through a LayerNorm feed-forward block.

For FFN(x) = W2 phi(W1 ln(x) + b1) + b2 with eps-free LayerNorm
ln(x) = gamma * (x - mu) / sigma, an input perturbation delta propagates to
first order as

    f(delta) = W2 diag(phi'(u)) W1 (A - B) delta,    u = W1 ln(x) + b1,

where A - B is the LayerNorm Jacobian at x:

    A = diag(gamma) (I - (1/d) 11^T) / sigma
    B = diag(gamma) (x - mu 1)(x - mu 1)^T / (d sigma^3)

sigma uses the population variance (divide by d) and must stay above a floor
for the closed forms to be meaningful.

The feed-forward block is the denoiser's own: ``denoiser.FfnWeights`` holds
its weights and ``denoiser.mlp`` computes it, with phi the tanh-form GELU.
Only the LayerNorm differs: ``ln_eps_free`` has no eps, so the Jacobian above
is exact.

The lab verifies the Jacobian against central finite differences, checks
that the Taylor remainder shrinks quadratically, and reproduces the
inter-block error-propagation experiments on the toy denoiser: a frozen
upstream block's staleness should track the downstream feed-forward block's
recomputation error across timesteps, and scaling the injected input error
should scale the output error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import BlockId
from .bua import SchedulePlan
from .denoiser import (
    FfnWeights,
    ToyDenoiser,
    block_residual,
    denoise_full,
    gelu_prime,
    mlp,
    pre_block_states,
    synth_episode,
)
from .engine import run_cached
from .errors import CorrelationError, DegenerateFeatureError, DimensionError
from .rng import derive_seed

SIGMA_MIN = 1e-6


def random_ffn(rng: np.random.Generator, d: int) -> FfnWeights:
    """A random GELU FFN with d_ff = 4d, drawn from ``rng`` as w1, b1, w2, b2, gamma."""
    d_ff = 4 * d
    return FfnWeights(
        w1=rng.normal(size=(d, d_ff)) / np.sqrt(d),
        b1=rng.normal(size=d_ff) * 0.1,
        w2=rng.normal(size=(d_ff, d)) / np.sqrt(d_ff),
        b2=rng.normal(size=d) * 0.1,
        gamma=rng.uniform(0.5, 1.5, size=d),
    )


def remainder_bytes(d: int) -> int:
    """Bytes the remainder curve of a width-d ``random_ffn`` holds, by arithmetic alone.

    The FFN holds w1 and w2 (8 d^2 floats) plus b1, b2 and gamma (6 d), and
    ``linear_response`` the LayerNorm operators A and B (2 d^2).  Temporaries
    are not counted.
    """
    return 8 * (10 * d * d + 6 * d)


@dataclass(frozen=True)
class LnStats:
    """Mean and population standard deviation of one feature vector."""

    mu: float
    sigma: float
    d: int


def ln_stats(x: np.ndarray) -> LnStats:
    d = x.shape[0]
    mu = float(x.mean())
    sigma = float(np.sqrt(np.sum((x - mu) ** 2) / d))
    if sigma < SIGMA_MIN:
        raise DegenerateFeatureError(
            f"LayerNorm sigma {sigma:.3e} below floor {SIGMA_MIN:.0e}"
        )
    return LnStats(mu=mu, sigma=sigma, d=d)


def ln_eps_free(x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    stats = ln_stats(x)
    return gamma * (x - stats.mu) / stats.sigma


def ffn_apply(params: FfnWeights, x: np.ndarray) -> np.ndarray:
    """The denoiser's feed-forward map (``mlp``) on one feature vector, after
    the eps-free LayerNorm."""
    return mlp(params, ln_eps_free(x, params.gamma))


def ln_operators(x: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operators A and B whose difference is the LayerNorm Jacobian at x."""
    x = np.asarray(x, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if x.ndim != 1 or gamma.shape != x.shape:
        raise DimensionError("x and gamma must be equal-length vectors")
    stats = ln_stats(x)
    d, sigma = stats.d, stats.sigma
    centered = x - stats.mu
    a_op = (gamma[:, None] * (np.eye(d) - np.ones((d, d)) / d)) / sigma
    b_op = (gamma[:, None] * np.outer(centered, centered)) / (d * sigma**3)
    return a_op, b_op


def linear_response(params: FfnWeights, x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """First-order output perturbation f(delta) of the FFN at x."""
    x = np.asarray(x, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != x.shape:
        raise DimensionError("delta must match x")
    a_op, b_op = ln_operators(x, params.gamma)
    u = ln_eps_free(x, params.gamma) @ params.w1 + params.b1
    propagated = ((a_op - b_op) @ delta) @ params.w1
    return (gelu_prime(u) * propagated) @ params.w2


@dataclass(frozen=True)
class RemainderCurve:
    scales: np.ndarray
    remainders: np.ndarray
    ratios: np.ndarray  # remainders[i] / remainders[i+1] for halving scales


def verify_first_order(
    params: FfnWeights,
    x: np.ndarray,
    delta: np.ndarray,
    scales: Sequence[float],
) -> RemainderCurve:
    """Taylor remainder r(eps) = ||FFN(x + eps*delta) - FFN(x) - f(eps*delta)||.

    ``scales`` must halve from one entry to the next so the returned ratios
    estimate the remainder order (about 4 for a quadratic remainder).
    ``delta`` must be a unit direction.
    """
    scales = np.asarray(list(scales), dtype=np.float64)
    if scales.ndim != 1 or len(scales) < 1 or np.any(scales <= 0):
        raise DimensionError("scales must be positive")
    if np.any(np.abs(scales[:-1] / scales[1:] - 2.0) > 1e-9):
        raise DimensionError("each scale must be half of the previous one")
    norm = np.linalg.norm(delta)
    if abs(norm - 1.0) > 1e-9:
        raise DimensionError("delta must be normalized to unit length")

    base = ffn_apply(params, x)
    remainders = np.empty_like(scales)
    for i, eps in enumerate(scales):
        moved = ffn_apply(params, x + eps * delta)
        lin = linear_response(params, x, eps * delta)
        remainders[i] = np.linalg.norm(moved - base - lin)
    with np.errstate(divide="ignore", invalid="ignore"):
        # ratios are nan when the remainder vanishes identically (degenerate
        # directions where the block is locally constant)
        ratios = remainders[:-1] / remainders[1:]
    return RemainderCurve(scales=scales, remainders=remainders, ratios=ratios)


def remainder_curve(rng: np.random.Generator, d: int, scales: Sequence[float]) -> RemainderCurve:
    """``verify_first_order`` of one random case: ``random_ffn(rng, d)``, then
    a normal ``x``, then a normal direction scaled to the unit ``delta``, all
    drawn from ``rng`` in that order."""
    params = random_ffn(rng, d)
    x = rng.normal(size=d)
    delta = rng.normal(size=d)
    return verify_first_order(params, x, delta / np.linalg.norm(delta), scales)


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError("series must be equal-length vectors")
    da, db = a - a.mean(), b - b.mean()
    na, nb = np.linalg.norm(da), np.linalg.norm(db)
    if na == 0.0 or nb == 0.0:
        raise CorrelationError("correlation undefined for a constant series")
    return float(da @ db / (na * nb))


@dataclass(frozen=True)
class SurgeStats:
    upstream: BlockId
    downstream: BlockId
    per_seed_r: np.ndarray          # (seeds,)
    pooled_r: float
    betas: np.ndarray               # (B,)
    beta_errors: np.ndarray         # (seeds, B) downstream error per beta
    beta_step: int
    upstream_errors: np.ndarray     # (seeds, K) deviation entering the downstream block
    downstream_errors: np.ndarray   # (seeds, K) recomputation error downstream
    upstream_staleness: np.ndarray  # (seeds, K) output error of the frozen block


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix along the first axis; one ``np.linalg.norm``
    call per matrix, so a value does not depend on the rest of the batch."""
    return np.array([np.linalg.norm(m) for m in stack])


def error_surge_experiment(
    denoiser: ToyDenoiser,
    seeds: Sequence[int],
    betas: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> SurgeStats:
    """Correlate the propagated upstream error with the downstream update error.

    The upstream block is the second-to-last FFN and the downstream block the
    last one.  The upstream block keeps only its step-0 cache while every other
    block recomputes everywhere, so the deviation reaching the downstream
    feed-forward input at step t is caused purely by upstream caching and the
    downstream error at step t is pure update-induced error.  Part (a)
    correlates the norm of that input deviation with the downstream
    recomputation error across timesteps; part (b) reruns the downstream block
    at step K // 2 on x_ref + beta * (x_bad - x_ref), scaling the same raw
    deviation.  The frozen block's own output staleness is reported as a
    secondary series.

    Seeds are an array axis: the episodes of all seeds (each
    ``synth_episode(config, derive_seed(seed, 0))``) run as one batched full
    pass and one batched ``engine.run_cached`` of the frozen-upstream plan,
    measured against the full pass, its ``reference``, and each beta is one
    batched ``block_residual``.  The errors are the report's
    ``errors``, and the downstream inputs come from ``pre_block_states`` of
    the report's ``run`` trace.
    """
    cfg = denoiser.config
    upstream = BlockId(max(cfg.layers - 2, 0), "FFN")
    downstream = BlockId(cfg.layers - 1, "FFN")
    if downstream.ordinal <= upstream.ordinal:
        raise DimensionError("the surge experiment needs at least two layers")
    beta_step = cfg.K // 2
    runs = [synth_episode(cfg, derive_seed(seed, 0)) for seed in seeds]
    if not runs:
        raise DimensionError("the surge experiment needs at least one seed")
    init, obs = (np.stack(arrays) for arrays in zip(*runs))

    frozen = np.ones((3 * cfg.layers, cfg.K), dtype=bool)
    frozen[upstream.ordinal, 1:] = False  # the upstream block keeps its step-0 cache
    _, ref = denoise_full(denoiser, init, obs)
    _, report = run_cached(denoiser, SchedulePlan.from_mask(frozen), init, obs, reference=ref)
    staleness = report.errors[:, upstream.ordinal]
    down_err = report.errors[:, downstream.ordinal]
    x_ref = pre_block_states(denoiser, ref, init, downstream)
    deviations = pre_block_states(denoiser, report.run, init, downstream) - x_ref  # x_bad - x_ref
    up_err = np.array([_norms(d) for d in deviations])
    per_seed_r = np.array([pearson(u[1:], d[1:]) for u, d in zip(up_err, down_err)])

    betas = np.asarray(list(betas), dtype=np.float64)
    x_ref, deviation = x_ref[:, beta_step], deviations[:, beta_step]
    cross = ()  # FFN blocks read no cross-attention keys
    base = block_residual(denoiser, downstream, x_ref, cross)
    beta_errors = np.stack([
        _norms(block_residual(denoiser, downstream, x_ref + beta * deviation, cross) - base)
        for beta in betas
    ], axis=1)

    return SurgeStats(
        upstream=upstream,
        downstream=downstream,
        per_seed_r=per_seed_r,
        pooled_r=pearson(up_err[:, 1:].ravel(), down_err[:, 1:].ravel()),
        betas=betas,
        beta_errors=beta_errors,
        beta_step=beta_step,
        upstream_errors=up_err,
        downstream_errors=down_err,
        upstream_staleness=staleness,
    )
