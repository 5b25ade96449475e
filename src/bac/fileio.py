"""Persistence: profile (.bacprof), schedule (.bacsched), reports, CSV dumps.

All files are UTF-8 and line oriented.  Floats are written with 9 significant
digits, which round-trips stably (write(parse(write(x))) == write(x)).

profile:   BAC-PROFILE v1 / K=<int> / BLOCKS=<int> followed, per block in
           canonical order, by three lines:
               BLOCK layers.<l>.<SA|CA|FFN>
               S: <K-1 comma-separated cosines in [-1, 1]>
               L1: <real>
schedule:  one line per block, `layers.<l>.<KIND>: c0,c1,...` ascending with
           0 present.
report:    flat key=value lines.
"""

from __future__ import annotations

import itertools

import numpy as np

from .blocks import BlockId, block_at, canonical_blocks, parse_block_name
from .bua import SchedulePlan
from .engine import RunReport
from .errors import ConsistencyError, DimensionError, FormatError
from .profiler import BlockStats, SimilarityProfile
from .scheduler import Schedule, ScheduleError

PROFILE_HEADER = "BAC-PROFILE v1"
COSINE_SLACK = 1e-6  # a profile's similarities are cosines: |s| <= 1 + COSINE_SLACK


def fmt_float(x: float) -> str:
    return format(float(x), ".9g")


# -- profile ----------------------------------------------------------------


def dump_profile(profile: SimilarityProfile) -> str:
    blocks = canonical_blocks(profile.layer_count)
    lines = [PROFILE_HEADER, f"K={profile.K}", f"BLOCKS={len(blocks)}"]
    for block in blocks:
        stats = profile.stats(block)
        lines.append(f"BLOCK {block.name}")
        lines.append("S: " + ",".join(fmt_float(v) for v in stats.s))
        lines.append("L1: " + fmt_float(stats.ell))
    return "\n".join(lines) + "\n"


def parse_profile(text: str) -> SimilarityProfile:
    lines = text.splitlines()

    def expect(idx: int) -> str:
        if idx >= len(lines):
            raise FormatError("unexpected end of file", idx + 1)
        return lines[idx]

    if expect(0).strip() != PROFILE_HEADER:
        raise FormatError(f"expected {PROFILE_HEADER!r}", 1)
    k_line, b_line = expect(1).strip(), expect(2).strip()
    if not k_line.startswith("K="):
        raise FormatError("expected K=<int>", 2)
    if not b_line.startswith("BLOCKS="):
        raise FormatError("expected BLOCKS=<int>", 3)
    try:
        K = int(k_line[2:])
        n_blocks = int(b_line[7:])
    except ValueError:
        raise FormatError("malformed header integer", 2) from None
    if K < 2 or n_blocks < 3 or n_blocks % 3 != 0:
        raise FormatError("header values out of range", 2)

    blocks: dict[BlockId, BlockStats] = {}
    idx = 3
    for block in map(block_at, range(n_blocks)):  # lazily: BLOCKS may exceed the file
        header = expect(idx).strip()
        if header != f"BLOCK {block.name}":
            raise FormatError(
                f"expected 'BLOCK {block.name}', got {header!r}", idx + 1
            )
        s_line = expect(idx + 1).strip()
        if not s_line.startswith("S: "):
            raise FormatError("expected 'S: ...'", idx + 2)
        try:
            s = np.array([float(tok) for tok in s_line[3:].split(",")])
        except ValueError:
            raise FormatError("malformed similarity value", idx + 2) from None
        if not (np.abs(s) <= 1.0 + COSINE_SLACK).all():  # also rejects nan and inf
            raise FormatError("similarity values must be finite cosines in [-1, 1]", idx + 2)
        if len(s) != K - 1:
            raise FormatError(
                f"expected {K - 1} similarities, got {len(s)}", idx + 2
            )
        l_line = expect(idx + 2).strip()
        if not l_line.startswith("L1: "):
            raise FormatError("expected 'L1: ...'", idx + 3)
        try:
            ell = float(l_line[4:])
        except ValueError:
            raise FormatError("malformed L1 value", idx + 3) from None
        if not np.isfinite(ell) or ell < 0:
            raise FormatError("L1 magnitude must be finite and nonnegative", idx + 3)
        blocks[block] = BlockStats(s, ell)
        idx += 3
    if any(line.strip() for line in lines[idx:]):
        raise FormatError("trailing content after last block", idx + 1)
    return SimilarityProfile(K=K, blocks=blocks)


def write_profile(profile: SimilarityProfile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_profile(profile))


def read_profile(path: str) -> SimilarityProfile:
    with open(path, encoding="utf-8") as fh:
        return parse_profile(fh.read())


# -- schedule ---------------------------------------------------------------


def dump_plan(plan: SchedulePlan) -> str:
    lines = []
    for block in canonical_blocks(plan.layers):
        steps = ",".join(str(c) for c in plan.schedule(block).steps)
        lines.append(f"{block.name}: {steps}")
    return "\n".join(lines) + "\n"


def parse_plan(text: str, K: int) -> SchedulePlan:
    """Parse a schedule file of horizon K; each line must be a valid ``Schedule``."""
    schedules: dict[BlockId, Schedule] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise FormatError("expected 'layers.<l>.<KIND>: steps'", lineno)
        name, _, steps_text = line.partition(":")
        block = parse_block_name(name, lineno)
        if block in schedules:
            raise FormatError(f"duplicate block {block.name}", lineno)
        try:
            steps = tuple(int(tok.strip()) for tok in steps_text.split(","))
        except ValueError:
            raise FormatError("malformed step list", lineno) from None
        try:
            schedules[block] = Schedule(steps, K)
        except ScheduleError as exc:
            raise FormatError(f"{block.name}: {exc}", lineno) from None

    if not schedules:
        raise FormatError("empty schedule file", 1)
    layers = max(b.layer for b in schedules) + 1
    # the entries are distinct blocks below `layers`, so too few means gaps;
    # name the first ones lazily, as `layers` may be far larger than the file
    absent = 3 * layers - len(schedules)
    if absent:
        missing = (b.name for b in map(block_at, range(3 * layers)) if b not in schedules)
        shown = ", ".join(itertools.islice(missing, 10))
        raise FormatError(f"missing blocks: {shown}{', ...' if absent > 10 else ''}")
    return SchedulePlan(layers=layers, schedules=schedules)


def write_plan(plan: SchedulePlan, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_plan(plan))


def read_plan(path: str, K: int) -> SchedulePlan:
    with open(path, encoding="utf-8") as fh:
        return parse_plan(fh.read(), K=K)


def dump_added_steps(added: dict[BlockId, tuple[int, ...]]) -> str:
    lines = [
        f"{block.name}: {','.join(str(c) for c in steps)}"
        for block, steps in sorted(added.items(), key=lambda kv: kv[0].ordinal)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# -- report -----------------------------------------------------------------


def _one_run_shape(report: RunReport) -> tuple[int, int]:
    """The (layers, K) of a one-episode report, read from its update mask;
    ``DimensionError`` for a batched one."""
    if report.errors.ndim != 2:
        raise DimensionError(
            f"a report file holds one run: errors shape {report.errors.shape}, want (3L, K)")
    n, K = report.update_mask.shape
    return n // 3, K


def dump_report(report: RunReport, baseline: RunReport | None = None) -> str:
    def section(rep: RunReport, prefix: str = "") -> list[str]:
        _one_run_shape(rep)
        f = rep.flops
        lines = [
            f"{prefix}flops_full={f.flops_full}",
            f"{prefix}flops_cached={f.flops_cached}",
            f"{prefix}speedup={fmt_float(f.speedup)}",
            f"{prefix}final_action_l2={fmt_float(rep.final_action_l2)}",
            f"{prefix}decoder_flops_full={f.decoder_flops_full}",
            f"{prefix}decoder_flops_cached={f.decoder_flops_cached}",
            f"{prefix}decoder_reduction={fmt_float(f.decoder_reduction)}",
        ]
        for block, err in rep.block_mean_errors().items():
            lines.append(f"{prefix}err.{block.name}={fmt_float(err)}")
        return lines

    lines = section(report)
    if baseline is not None:
        lines += section(baseline, prefix="baseline_")
    return "\n".join(lines) + "\n"


MANDATORY_REPORT_KEYS = (
    "flops_full",
    "flops_cached",
    "speedup",
    "final_action_l2",
)


def parse_report(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError("expected key=value", lineno)
        key, _, val = line.partition("=")
        if key in values:
            raise FormatError(f"duplicate key {key!r}", lineno)
        try:
            values[key] = float(val)
        except ValueError:
            raise FormatError(f"malformed value for {key!r}", lineno) from None
    missing = [k for k in MANDATORY_REPORT_KEYS if k not in values]
    if missing:
        raise ConsistencyError(f"report misses keys: {', '.join(missing)}")
    return values


def write_report(report: RunReport, path: str, baseline: RunReport | None = None) -> None:
    text = dump_report(report, baseline)  # before the file opens: a refused report writes none
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- CSV dumps ----------------------------------------------------------------


def write_surface_csv(report: RunReport, path: str) -> None:
    """Error surface (rows: blocks in canonical order) plus <path>.mask."""
    layers, K = _one_run_shape(report)
    header = "block," + ",".join(str(t) for t in range(K))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for block in canonical_blocks(layers):
            row = ",".join(fmt_float(v) for v in report.errors[block.ordinal])
            fh.write(f"{block.name},{row}\n")
    with open(path + ".mask", "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for block in canonical_blocks(layers):
            row = ",".join(str(int(v)) for v in report.update_mask[block.ordinal])
            fh.write(f"{block.name},{row}\n")


def write_matrix_csv(matrix: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(",".join(fmt_float(v) for v in row) + "\n")


def write_curve_csv(xs, ys, path: str, header: tuple[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header[0]},{header[1]}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{fmt_float(x)},{fmt_float(y)}\n")
