"""Block-level feature-cache scheduling on a deterministic toy denoiser.

Pipeline: profile per-block feature similarities across denoising steps,
select optimal per-block cache-update schedules (the anchored variant by
dynamic programming), repair inter-block error propagation by bubbling union,
execute cached inference with update-then-reuse semantics, and verify the
first-order error theory.

Each name is imported from the submodule that defines it
(``from bac.scheduler import solve_schedule``); the package re-exports nothing.
"""

__version__ = "0.1.0"
