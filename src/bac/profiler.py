"""Similarity statistics extracted from feature traces.

For each block the profile carries the consecutive cosine similarities
s_t = cos(b_t, b_{t-1}) for t = 1..K-1 and the mean pairwise L1 distance of
the block's features across all timestep pairs, which ranks blocks by how much
caching can hurt them.  Block outputs are flattened row-major before any
cosine, so similarity measures direction consistency over the whole token
block.

Episodes are an array axis.  Profiling runs all its episodes as one batched
full pass, and every statistic reads a trace whose residuals may carry a
leading episode axis and averages over it; an unbatched trace is one episode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .blocks import BlockId, canonical_blocks
from .denoiser import FeatureTrace, ToyDenoiser, denoise_full, synth_episode
from .errors import DegenerateFeatureError, RangeError
from .rng import derive_seed


@dataclass(frozen=True)
class BlockStats:
    """Per-block profile: consecutive similarities and L1 magnitude."""

    s: np.ndarray  # (K-1,)
    ell: float


@dataclass(frozen=True)
class SimilarityProfile:
    K: int
    blocks: dict[BlockId, BlockStats]

    def stats(self, block: BlockId) -> BlockStats:
        try:
            return self.blocks[block]
        except KeyError:
            raise RangeError(f"profile has no block {block.name}") from None

    @property
    def layer_count(self) -> int:
        return len(self.blocks) // 3


def _flat_block(trace: FeatureTrace, block: BlockId) -> np.ndarray:
    """(E, K, n): the block's features per episode, each step flattened row-major."""
    feats = trace.residuals[..., block.ordinal, :, :, :]
    K, T, d = feats.shape[-3:]
    return feats.reshape(-1, K, T * d)


def _row_norms(flat: np.ndarray, block: BlockId) -> np.ndarray:
    norms = np.linalg.norm(flat, axis=-1)
    bad = np.argwhere(norms == 0.0)
    if bad.size:
        episode, step = bad[0]
        raise DegenerateFeatureError(
            f"zero-norm feature for {block.name} at step {step} of episode {episode}")
    return norms


def consecutive_similarities(trace: FeatureTrace, block: BlockId) -> np.ndarray:
    """s_t = cos(b_t, b_{t-1}) for t = 1..K-1, averaged over episodes."""
    flat = _flat_block(trace, block)
    norms = _row_norms(flat, block)
    dots = np.einsum("eij,eij->ei", flat[:, 1:], flat[:, :-1])
    return (dots / (norms[:, 1:] * norms[:, :-1])).mean(axis=0)


def similarity_matrix(trace: FeatureTrace, block: BlockId) -> np.ndarray:
    """K x K cosine matrix of a block's features averaged over episodes;
    symmetric, unit diagonal."""
    flat = _flat_block(trace, block)
    unit = flat / _row_norms(flat, block)[..., None]
    m = unit @ np.swapaxes(unit, -1, -2)
    # one cosine per unordered pair: mirror the upper triangle, pin the diagonal
    upper = np.triu(m, k=1)
    m = upper + np.swapaxes(upper, -1, -2)
    diagonal = np.arange(m.shape[-1])
    m[:, diagonal, diagonal] = 1.0
    return m.mean(axis=0)


def caching_error_magnitude(trace: FeatureTrace, block: BlockId) -> float:
    """Mean pairwise L1 distance over all K^2 step pairs, per feature element,
    averaged over episodes."""
    flat = _flat_block(trace, block)
    _, K, n = flat.shape
    return float(np.mean([kernels.pairwise_l1_total(f) / (K * K) / n for f in flat]))


def _episode_trace(denoiser: ToyDenoiser, episodes: int, seed: int) -> FeatureTrace:
    """Full trace of seeded synthetic episodes, run as one batch (leading axis E)."""
    if episodes < 1:
        raise RangeError("episodes must be at least 1")
    runs = [synth_episode(denoiser.config, derive_seed(seed, e)) for e in range(episodes)]
    inits, obss = zip(*runs)
    return denoise_full(denoiser, np.stack(inits), np.stack(obss))[1]


def profile_task(
    denoiser: ToyDenoiser, episodes: int, seed: int
) -> SimilarityProfile:
    """Profile seeded synthetic episodes and average the statistics per block."""
    trace = _episode_trace(denoiser, episodes, seed)
    blocks = {
        block: BlockStats(consecutive_similarities(trace, block),
                          caching_error_magnitude(trace, block))
        for block in canonical_blocks(denoiser.config.layers)
    }
    return SimilarityProfile(K=denoiser.config.K, blocks=blocks)


def similarity_matrices(
    denoiser: ToyDenoiser, episodes: int, seed: int
) -> dict[BlockId, np.ndarray]:
    """Per-block K x K similarity matrices averaged over seeded episodes.

    Feeds the anchored scheduling variant, which scores reuse segments against
    the anchor feature instead of consecutive drift.
    """
    trace = _episode_trace(denoiser, episodes, seed)
    return {b: similarity_matrix(trace, b) for b in canonical_blocks(denoiser.config.layers)}
