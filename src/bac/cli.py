"""Command-line surface: profile -> schedule -> bubble -> run -> verify.

Exit codes: 0 success, 1 verification failure, 2 usage, input or resource
error (including running out of memory).  Every command that builds the
denoiser first checks ``engine.memory_estimate`` of its weights, traces, FFN
activations and attention scores (and, for ``schedule --anchored`` and
``export simmatrix``, its similarity matrices) against
``engine.MEMORY_CAP_BYTES``; ``export remainder`` checks
``errorlab.remainder_bytes`` of its random FFN the same way.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .blocks import parse_block_name
from .bua import SchedulePlan, added_steps, bubble_union, select_upstream_blocks
from .config import load_config
from .denoiser import build_denoiser, denoise_full, synth_episode
from .engine import check_bytes, check_memory, run_cached, uniform_plan
from .errorlab import error_surge_experiment, remainder_bytes, remainder_curve
from .errors import BacError, ConsistencyError, write_file
from . import fileio
from .profiler import profile_task, similarity_matrices
from .scheduler import check_budget, solve_schedule, solve_schedule_anchored
from .verify import run_all


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_EXIT_CODES = """exit codes:
  0  success
  1  verification failure (bac verify)
  2  usage, input or resource error (bad arguments, malformed or
     inconsistent files, out of memory)
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bac",
        description="Block-level feature-cache scheduling for a toy "
        "diffusion-transformer denoiser.",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="profile per-block feature similarities")
    p.add_argument("--config", required=True)
    p.add_argument("--episodes", type=_positive_int, default=1)
    p.add_argument("--seed", type=_u64, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("schedule", help="solve per-block update schedules")
    p.add_argument("--profile", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--anchored",
        action="store_true",
        help="score segments against the anchor feature (needs --config/--seed "
        "to rebuild similarity matrices)",
    )
    p.add_argument("--config")
    p.add_argument("--episodes", type=_positive_int)
    p.add_argument("--seed", type=_u64)

    p = sub.add_parser("bubble", help="repair schedules by bubbling union")
    p.add_argument("--profile", required=True)
    p.add_argument("--sched", required=True)
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--diff", help="also write per-block added steps")

    p = sub.add_parser("run", help="execute cached denoising and report costs")
    p.add_argument("--config", required=True)
    p.add_argument("--sched", required=True)
    p.add_argument("--seed", type=_u64, default=0)
    p.add_argument("--report", required=True)
    p.add_argument("--baseline", help="uniform:<S> to also run the uniform baseline")
    p.add_argument("--surface", help="CSV path for the per-block error surface")

    sub.add_parser("verify", help="run the invariant suite")

    p = sub.add_parser("export", help="export numeric artifacts as CSV")
    p.add_argument(
        "--what",
        required=True,
        choices=("simmatrix", "remainder", "beta"),
    )
    p.add_argument("--config")
    p.add_argument("--block")
    p.add_argument("--episodes", type=_positive_int)
    p.add_argument("--seed", type=_u64)
    p.add_argument("--dim", type=int)
    p.add_argument("--out", required=True)
    return parser


# The options that schedule and export read only in some modes, and their
# defaults; then, for each mode, the ones it needs and the others it reads
_MODE_DEFAULTS = {"config": None, "block": None, "episodes": 1, "seed": 0, "dim": 64}
_MODE_OPTIONS = {
    "schedule --anchored": (("config",), ("episodes", "seed")),
    "schedule without --anchored": ((), ()),
    "export --what simmatrix": (("config", "block"), ("episodes", "seed")),
    "export --what remainder": ((), ("seed", "dim")),
    "export --what beta": (("config",), ("seed",)),
}


def _check_mode_options(args) -> None:
    """``BacError`` naming the first option that the mode of a schedule or
    export command needs and lacks, or was given and does not read; the
    options not given get their defaults."""
    if args.command == "schedule":
        mode = "schedule " + ("--anchored" if args.anchored else "without --anchored")
    elif args.command == "export":
        mode = f"export --what {args.what}"
    else:
        return
    needs, reads = _MODE_OPTIONS[mode]
    for name, default in _MODE_DEFAULTS.items():
        if getattr(args, name, None) is None:
            if name in needs:
                raise BacError(f"{mode} needs --{name}")
            setattr(args, name, default)
        elif name not in needs + reads:
            raise BacError(f"--{name} is not read by {mode}")


def _agree(a: str, b: str, **pairs) -> None:
    """``ConsistencyError`` at the first key whose values in files ``a`` and
    ``b``, the (x, y) in ``pairs``, differ: ``<a> <key>=<x> != <b> <key>=<y>``."""
    for key, (x, y) in pairs.items():
        if x != y:
            raise ConsistencyError(f"{a} {key}={x} != {b} {key}={y}")


def _build(config, **counts):
    """``build_denoiser(config)`` once ``engine.check_memory(config, **counts)``
    admits what the command will hold: the one build of every command."""
    check_memory(config, **counts)
    return build_denoiser(config)


def _cmd_profile(args) -> int:
    config = load_config(args.config)
    profile = profile_task(_build(config, full_traces=args.episodes), args.episodes, args.seed)
    fileio.write_profile(profile, args.out)
    return 0


def _cmd_schedule(args) -> int:
    profile = fileio.read_profile(args.profile)
    if args.anchored:
        config = load_config(args.config)
        _agree("config", "profile", K=(config.K, profile.K),
               layers=(config.layers, profile.layer_count))
        check_budget(args.budget, config.K)
        denoiser = _build(config, full_traces=args.episodes, matrices=True)
        matrices = similarity_matrices(denoiser, args.episodes, args.seed)
        schedules = {
            b: solve_schedule_anchored(matrices[b], args.budget) for b in matrices
        }
    else:
        schedules = {}
        for block, stats in profile.blocks.items():
            sched, _ = solve_schedule(stats.s, profile.K, args.budget)
            schedules[block] = sched
    fileio.write_plan(SchedulePlan(layers=profile.layer_count, schedules=schedules), args.out)
    return 0


def _cmd_bubble(args) -> int:
    profile = fileio.read_profile(args.profile)
    plan = fileio.read_plan(args.sched, K=profile.K)
    _agree("schedule", "profile", layers=(plan.layers, profile.layer_count))
    upstream = select_upstream_blocks(profile, args.topk)
    repaired = bubble_union(plan, upstream)
    fileio.write_plan(repaired, args.out)
    if args.diff:
        write_file(args.diff, fileio.dump_added_steps(added_steps(plan, repaired)))
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    plan = fileio.read_plan(args.sched, K=config.K)
    _agree("schedule", "config", layers=(plan.layers, config.layers))
    plans = (plan,)
    if args.baseline:
        kind, _, value = args.baseline.partition(":")
        if kind != "uniform" or not (value.isascii() and value.isdigit()):
            raise BacError(f"unsupported baseline {args.baseline!r}")
        plans += (uniform_plan(config.K, int(value), config.layers),)
    denoiser = _build(config, full_traces=1, plans=plans)
    init, obs = synth_episode(config, args.seed)
    _, reference = denoise_full(denoiser, init, obs)
    report, *baseline = [run_cached(denoiser, p, init, obs, reference=reference)[1]
                         for p in plans]

    # Paths by keyword: perfbench's tracer reads a writer's path from its third
    # positional argument or kwargs["path"], so a positional path fails every traced run.
    fileio.write_report(report, path=args.report, baseline=baseline[0] if baseline else None)
    if args.surface:
        fileio.write_surface_csv(report, path=args.surface)
    return 0


def _cmd_verify(_args) -> int:
    checks = run_all()
    width = max(len(name) for name, _, _ in checks)
    failed = []
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_export(args) -> int:
    if args.what == "simmatrix":
        config = load_config(args.config)
        block = parse_block_name(args.block)
        if block.layer >= config.layers:
            raise BacError(f"no block {block.name} in this {config.layers}-layer architecture")
        denoiser = _build(config, full_traces=args.episodes, matrices=True)
        matrices = similarity_matrices(denoiser, args.episodes, args.seed)
        fileio.write_matrix_csv(matrices[block], args.out)
        return 0

    if args.what == "remainder":
        if args.dim < 1:
            raise BacError(f"--dim must be at least 1, got {args.dim}")
        check_bytes(remainder_bytes(args.dim), "feed-forward weights and LayerNorm operators",
                    "use a smaller --dim")
        curve = remainder_curve(np.random.default_rng(args.seed), args.dim,
                                [1e-2 / 2**i for i in range(6)])
        fileio.write_curve_csv(curve.scales, curve.remainders, args.out, ("eps", "remainder"))
        return 0

    # beta sweep of the downstream update-induced error
    config = load_config(args.config)
    denoiser = _build(config, full_traces=2)  # the reference and the frozen-upstream pass
    stats = error_surge_experiment(denoiser, seeds=[args.seed])
    fileio.write_curve_csv(
        stats.betas, stats.beta_errors[0], args.out, ("beta", "downstream_error")
    )
    return 0


_HANDLERS = {
    "profile": _cmd_profile,
    "schedule": _cmd_schedule,
    "bubble": _cmd_bubble,
    "run": _cmd_run,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_mode_options(args)
        return _HANDLERS[args.command](args)
    except (BacError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; use a smaller config or fewer episodes",
              file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
