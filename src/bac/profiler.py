"""Similarity statistics extracted from feature traces.

For each block the profile carries the consecutive cosine similarities
s_t = cos(b_t, b_{t-1}) for t = 1..K-1, their prefix sums (phi(i, j) is then a
prefix difference), and the mean pairwise L1 distance of the block's features
across all timestep pairs, which ranks blocks by how much caching can hurt
them.  Block outputs are flattened row-major before any cosine, so similarity
measures direction consistency over the whole token block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .blocks import BlockId, canonical_blocks
from .denoiser import FeatureTrace, ToyDenoiser, denoise_full, synth_episode
from .errors import DegenerateFeatureError, DimensionError, RangeError
from .rng import derive_seed


@dataclass(frozen=True)
class BlockStats:
    """Per-block profile: consecutive similarities, prefix sums, L1 magnitude."""

    s: np.ndarray       # (K-1,)
    prefix: np.ndarray  # (K,), prefix[0] = 0
    ell: float

    @staticmethod
    def from_similarities(s: np.ndarray, ell: float) -> "BlockStats":
        prefix = np.zeros(len(s) + 1)
        np.cumsum(s, out=prefix[1:])
        return BlockStats(s=s, prefix=prefix, ell=float(ell))


@dataclass(frozen=True)
class SimilarityProfile:
    K: int
    episode_count: int
    blocks: dict[BlockId, BlockStats]

    def stats(self, block: BlockId) -> BlockStats:
        try:
            return self.blocks[block]
        except KeyError:
            raise RangeError(f"profile has no block {block.name}") from None

    @property
    def layer_count(self) -> int:
        return len(self.blocks) // 3


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two equally shaped feature matrices, flattened row-major."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    av, bv = a.ravel(), b.ravel()
    na, nb = np.linalg.norm(av), np.linalg.norm(bv)
    if na == 0.0 or nb == 0.0:
        raise DegenerateFeatureError("cosine of a zero-norm feature is undefined")
    return float(av @ bv / (na * nb))


def _flat_block(trace: FeatureTrace, block: BlockId) -> np.ndarray:
    feats = trace.block(block)
    return feats.reshape(feats.shape[0], -1)


def _as_traces(trace) -> list[FeatureTrace]:
    if isinstance(trace, FeatureTrace):
        return [trace]
    traces = list(trace)
    if not traces:
        raise DimensionError("need at least one trace")
    return traces


def _row_norms(flat: np.ndarray, block: BlockId) -> np.ndarray:
    norms = np.linalg.norm(flat, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise DegenerateFeatureError(f"zero-norm feature for {block.name} at step {int(bad[0])}")
    return norms


def _consecutive_one(trace: FeatureTrace, block: BlockId) -> np.ndarray:
    flat = _flat_block(trace, block)
    norms = _row_norms(flat, block)
    dots = np.einsum("ij,ij->i", flat[1:], flat[:-1])
    return dots / (norms[1:] * norms[:-1])


def consecutive_similarities(trace, block: BlockId) -> np.ndarray:
    """s_t = cos(b_t, b_{t-1}) for t = 1..K-1, averaged over episodes."""
    traces = _as_traces(trace)
    return np.mean([_consecutive_one(tr, block) for tr in traces], axis=0)


def interval_similarity(profile: SimilarityProfile, block: BlockId, i: int, j: int) -> float:
    """phi(i, j) = sum of s_k over (i, j]; zero when the interval is empty."""
    K = profile.K
    if not (0 <= i <= K - 1 and 0 <= j <= K - 1):
        raise RangeError(f"interval ({i}, {j}) outside [0, {K - 1}]")
    if j <= i:
        return 0.0
    prefix = profile.stats(block).prefix
    return float(prefix[j] - prefix[i])


def similarity_matrix(trace: FeatureTrace, block: BlockId) -> np.ndarray:
    """K x K cosine matrix of a block's features; symmetric, unit diagonal."""
    flat = _flat_block(trace, block)
    norms = _row_norms(flat, block)
    unit = flat / norms[:, None]
    m = unit @ unit.T
    # one cosine per unordered pair: mirror the upper triangle, pin the diagonal
    upper = np.triu(m, k=1)
    m = upper + upper.T
    np.fill_diagonal(m, 1.0)
    return m


def caching_error_magnitude(trace, block: BlockId) -> float:
    """Mean pairwise L1 distance over all K^2 step pairs, per feature element.

    Averaged across episodes when several traces are supplied.
    """
    traces = _as_traces(trace)
    values = []
    for tr in traces:
        flat = _flat_block(tr, block)
        K, n = flat.shape
        values.append(kernels.pairwise_l1_total(flat) / (K * K) / n)
    return float(np.mean(values))


def _episode_traces(denoiser: ToyDenoiser, episodes: int, seed: int) -> list[FeatureTrace]:
    """Full traces of seeded synthetic episodes from one batched pass, split
    into per-episode views (each equals its own unbatched run bit for bit)."""
    if episodes < 1:
        raise RangeError("episodes must be at least 1")
    runs = [synth_episode(denoiser.config, derive_seed(seed, e)) for e in range(episodes)]
    if episodes == 1:  # a batch of one costs about 4% more per block call
        return [denoise_full(denoiser, *runs[0])[1]]
    inits, obss = zip(*runs)
    _, batch = denoise_full(denoiser, np.stack(inits), np.stack(obss))
    return [FeatureTrace(residuals=r, actions=a) for r, a in zip(batch.residuals, batch.actions)]


def profile_task(
    denoiser: ToyDenoiser, episodes: int, seed: int
) -> SimilarityProfile:
    """Profile seeded synthetic episodes and average the statistics per block."""
    traces = _episode_traces(denoiser, episodes, seed)
    blocks = {}
    for block in canonical_blocks(denoiser.config.layers):
        s = consecutive_similarities(traces, block)
        ell = caching_error_magnitude(traces, block)
        blocks[block] = BlockStats.from_similarities(s, ell)
    return SimilarityProfile(K=denoiser.config.K, episode_count=episodes, blocks=blocks)


def similarity_matrices(
    denoiser: ToyDenoiser, episodes: int, seed: int
) -> dict[BlockId, np.ndarray]:
    """Per-block K x K similarity matrices averaged over seeded episodes.

    Feeds the anchored scheduling variant, which scores reuse segments against
    the anchor feature instead of consecutive drift.
    """
    traces = _episode_traces(denoiser, episodes, seed)
    sums: dict[BlockId, np.ndarray] = {}
    for trace in traces:
        for block in canonical_blocks(denoiser.config.layers):
            m = similarity_matrix(trace, block)
            sums[block] = m if block not in sums else sums[block] + m
    return {b: m / episodes for b, m in sums.items()}
