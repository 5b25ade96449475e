"""Schedule repair by bubbling union.

Per-block schedules let a downstream feed-forward block recompute on a hidden
state still carrying upstream reuse errors, which can make the recomputation
worse than the stale cache it replaces.  The repair picks the k blocks with
the largest pairwise-L1 magnitude and forces each of them to update whenever
any feed-forward block downstream of it updates, by unioning those schedules
into its own.  Selected blocks are processed deepest-first so an upstream
block absorbs already-augmented downstream schedules.

The repair is row algebra on the (3L, K) update mask that ``denoiser.execute``
runs.  ``SchedulePlan.update_mask`` and ``SchedulePlan.from_mask`` are the one
conversion each way between a plan and its mask.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .blocks import BlockId, block_at, canonical_blocks
from .errors import PlanError
from .profiler import SimilarityProfile
from .scheduler import Schedule


@dataclass(frozen=True)
class SchedulePlan:
    """One schedule per block of an L-layer decoder."""

    layers: int
    schedules: dict[BlockId, Schedule]

    def __post_init__(self):
        expected = canonical_blocks(self.layers)
        missing = [b.name for b in expected if b not in self.schedules]
        if missing or len(self.schedules) != len(expected):
            raise PlanError(f"plan must cover all {3 * self.layers} blocks"
                            + (f"; missing {missing}" if missing else ""))
        horizons = {sched.K for sched in self.schedules.values()}
        if len(horizons) != 1:
            raise PlanError(f"schedules disagree on K: {sorted(horizons)}")

    @property
    def K(self) -> int:
        return next(iter(self.schedules.values())).K

    def schedule(self, block: BlockId) -> Schedule:
        try:
            return self.schedules[block]
        except KeyError:
            raise PlanError(f"plan has no block {block.name}") from None

    @functools.cached_property
    def update_mask(self) -> np.ndarray:
        """(3L, K) bool, True where a block updates; read-only, built once."""
        mask = np.zeros((3 * self.layers, self.K), dtype=bool)
        for block, sched in self.schedules.items():
            mask[block.ordinal, list(sched.steps)] = True
        mask.flags.writeable = False
        return mask

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> SchedulePlan:
        """The plan whose ``update_mask`` is ``mask``, a (3L, K) bool array."""
        n, K = mask.shape
        return cls(layers=n // 3, schedules={
            block_at(i): Schedule(tuple(np.flatnonzero(row).tolist()), K)
            for i, row in enumerate(mask)
        })


def select_upstream_blocks(profile: SimilarityProfile, k: int) -> set[BlockId]:
    """The k blocks with the largest L1 magnitude; ties favor earlier blocks."""
    if k < 0:
        raise PlanError("k must be nonnegative")
    blocks = sorted(profile.blocks, key=lambda b: b.ordinal)
    if k >= len(blocks):
        return set(blocks)
    ranked = sorted(blocks, key=lambda b: (-profile.blocks[b].ell, b.ordinal))
    return set(ranked[:k])


def downstream_ffns(u: BlockId, layers: int) -> set[BlockId]:
    """All FFN blocks strictly after ``u`` in forward order.

    Within a layer the chain is SA -> CA -> FFN, so a layer's own FFN is
    downstream of its SA and CA.
    """
    return {
        BlockId(l, "FFN")
        for l in range(layers)
        if 3 * l + 2 > u.ordinal
    }


def bubble_union(plan: SchedulePlan, upstream: Iterable[BlockId]) -> SchedulePlan:
    """Union downstream-FFN update steps into every selected block.

    Returns a new plan; blocks outside ``upstream`` are untouched.  Processing
    runs in descending ordinal so cascades through selected FFNs settle before
    shallower blocks absorb them.  Each union ORs the downstream FFNs' rows of
    the update mask into the selected block's row.
    """
    selected = set(upstream)
    for u in selected:
        plan.schedule(u)  # validates membership
    mask = plan.update_mask.copy()
    for u in sorted(selected, key=lambda b: b.ordinal, reverse=True):
        mask[u.ordinal] |= mask[[v.ordinal for v in downstream_ffns(u, plan.layers)]].any(0)
    return SchedulePlan.from_mask(mask)


def added_steps(before: SchedulePlan, after: SchedulePlan) -> dict[BlockId, tuple[int, ...]]:
    """Per-block steps present after repair but not before (only nonempty)."""
    if before.layers != after.layers or before.K != after.K:
        raise PlanError("plans disagree on architecture or horizon")
    gained = after.update_mask & ~before.update_mask
    return {block_at(i): tuple(np.flatnonzero(row).tolist())
            for i, row in enumerate(gained) if row.any()}
