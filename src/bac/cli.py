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
from .errorlab import error_surge_experiment, random_ffn, remainder_bytes, verify_first_order
from .errors import BacError, ConsistencyError
from . import fileio
from .profiler import profile_task, similarity_matrices
from .rng import derive_seed
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
    p.add_argument("--episodes", type=_positive_int, default=1)
    p.add_argument("--seed", type=_u64, default=0)

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
    p.add_argument("--episodes", type=_positive_int, default=1)
    p.add_argument("--seed", type=_u64, default=0)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--out", required=True)
    return parser


def _cmd_profile(args) -> int:
    config = load_config(args.config)
    check_memory(config, full_traces=args.episodes)
    profile = profile_task(build_denoiser(config), args.episodes, args.seed)
    fileio.write_profile(profile, args.out)
    return 0


def _cmd_schedule(args) -> int:
    profile = fileio.read_profile(args.profile)
    if args.anchored:
        if not args.config:
            raise BacError("--anchored needs --config (and --seed/--episodes) "
                           "to rebuild similarity matrices")
        config = load_config(args.config)
        if config.K != profile.K:
            raise ConsistencyError(
                f"config K={config.K} != profile K={profile.K}"
            )
        if config.layers != profile.layer_count:
            raise ConsistencyError(
                f"config layers={config.layers} != profile layers={profile.layer_count}"
            )
        check_budget(args.budget, config.K)
        check_memory(config, full_traces=args.episodes, matrices=True)
        matrices = similarity_matrices(build_denoiser(config), args.episodes, args.seed)
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
    if plan.layers != profile.layer_count:
        raise ConsistencyError(
            f"schedule covers {plan.layers} layers, profile {profile.layer_count}"
        )
    upstream = select_upstream_blocks(profile, args.topk)
    repaired = bubble_union(plan, upstream)
    fileio.write_plan(repaired, args.out)
    if args.diff:
        with open(args.diff, "w", encoding="utf-8") as fh:
            fh.write(fileio.dump_added_steps(added_steps(plan, repaired)))
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    plan = fileio.read_plan(args.sched, K=config.K)
    if plan.layers != config.layers:
        raise ConsistencyError(
            f"schedule covers {plan.layers} layers, config has {config.layers}"
        )
    plans = (plan,)
    if args.baseline:
        kind, _, value = args.baseline.partition(":")
        if kind != "uniform" or not value.isdigit():
            raise BacError(f"unsupported baseline {args.baseline!r}")
        plans += (uniform_plan(config.K, int(value), config.layers),)
    check_memory(config, full_traces=1, plans=plans)

    denoiser = build_denoiser(config)
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
        if not (args.config and args.block):
            raise BacError("simmatrix export needs --config and --block")
        config = load_config(args.config)
        block = parse_block_name(args.block)
        if block.layer >= config.layers:
            raise BacError(f"no block {block.name} in this {config.layers}-layer architecture")
        check_memory(config, full_traces=args.episodes, matrices=True)
        matrices = similarity_matrices(build_denoiser(config), args.episodes, args.seed)
        fileio.write_matrix_csv(matrices[block], args.out)
        return 0

    if args.what == "remainder":
        if args.dim < 1:
            raise BacError(f"--dim must be at least 1, got {args.dim}")
        check_bytes(remainder_bytes(args.dim), "feed-forward weights and LayerNorm operators",
                    "use a smaller --dim")
        rng = np.random.default_rng(args.seed)
        params = random_ffn(rng, args.dim)
        x = rng.normal(size=args.dim)
        delta = rng.normal(size=args.dim)
        delta /= np.linalg.norm(delta)
        scales = [1e-2 / 2**i for i in range(6)]
        curve = verify_first_order(params, x, delta, scales)
        fileio.write_curve_csv(curve.scales, curve.remainders, args.out, ("eps", "remainder"))
        return 0

    # beta sweep of the downstream update-induced error
    if not args.config:
        raise BacError("beta export needs --config")
    config = load_config(args.config)
    check_memory(config, full_traces=2)  # the reference and the frozen-upstream pass
    stats = error_surge_experiment(build_denoiser(config), seeds=[args.seed])
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
        return _HANDLERS[args.command](args)
    except BacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; use a smaller config or fewer episodes",
              file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
