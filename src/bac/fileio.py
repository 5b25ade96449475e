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
report:    flat key=value lines: the seven section keys and err.<block>, each
           bare or with the baseline_ prefix; any other key, a block named
           twice and a section without its mandatory keys or with a gap in
           its blocks are refused.

Schedules and reports are read by ``errors.read_entries``, and every number by
``errors.parse_int`` or ``errors.parse_float``: the grammar the config shares.
Every file is written by ``errors.write_file`` from its whole text.
"""

from __future__ import annotations

import itertools

import numpy as np

from .blocks import BlockId, block_at, canonical_blocks, parse_block_name
from .bua import SchedulePlan
from .engine import RunReport
from .errors import (ConsistencyError, DimensionError, FormatError, parse_float, parse_int,
                     read_entries, read_file, write_file)
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

    def field(idx: int, prefix: str, expected: str, parse, what: str):
        """``parse`` of line ``idx`` after ``prefix``; a ``FormatError``
        naming the line if the prefix is absent or ``parse`` fails."""
        line = expect(idx).strip()
        if not line.startswith(prefix):
            raise FormatError(f"expected {expected}", idx + 1)
        try:
            return parse(line[len(prefix):])
        except ValueError:
            raise FormatError(f"malformed {what}", idx + 1) from None

    if expect(0).strip() != PROFILE_HEADER:
        raise FormatError(f"expected {PROFILE_HEADER!r}", 1)
    K = field(1, "K=", "K=<int>", parse_int, "header integer")
    if K < 2:
        raise FormatError("header values out of range", 2)
    n_blocks = field(2, "BLOCKS=", "BLOCKS=<int>", parse_int, "header integer")
    if n_blocks < 3 or n_blocks % 3:
        raise FormatError("header values out of range", 3)

    blocks: dict[BlockId, BlockStats] = {}
    idx = 3
    for block in map(block_at, range(n_blocks)):  # lazily: BLOCKS may exceed the file
        line = expect(idx).strip()
        if line != f"BLOCK {block.name}":
            raise FormatError(f"expected 'BLOCK {block.name}', got {line!r}", idx + 1)
        s = field(idx + 1, "S: ", "'S: ...'",
                  lambda t: np.array(list(map(parse_float, t.split(",")))), "similarity value")
        if not (np.abs(s) <= 1.0 + COSINE_SLACK).all():  # also rejects nan and inf
            raise FormatError("similarity values must be finite cosines in [-1, 1]", idx + 2)
        if len(s) != K - 1:
            raise FormatError(
                f"expected {K - 1} similarities, got {len(s)}", idx + 2
            )
        ell = field(idx + 2, "L1: ", "'L1: ...'", parse_float, "L1 value")
        if not np.isfinite(ell) or ell < 0:
            raise FormatError("L1 magnitude must be finite and nonnegative", idx + 3)
        blocks[block] = BlockStats(s, ell)
        idx += 3
    if any(line.strip() for line in lines[idx:]):
        raise FormatError("trailing content after last block", idx + 1)
    return SimilarityProfile(K=K, blocks=blocks)


def write_profile(profile: SimilarityProfile, path: str) -> None:
    write_file(path, dump_profile(profile))


def read_profile(path: str) -> SimilarityProfile:
    return read_file(path, parse_profile)


# -- schedule ---------------------------------------------------------------


def _step_lines(rows) -> str:
    """One ``layers.<l>.<KIND>: c0,c1,...`` line per (block, steps) row."""
    return "".join(f"{block.name}: {','.join(map(str, steps))}\n" for block, steps in rows)


def dump_plan(plan: SchedulePlan) -> str:
    return _step_lines((b, plan.schedule(b).steps) for b in canonical_blocks(plan.layers))


def parse_plan(text: str, K: int) -> SchedulePlan:
    """Parse a schedule file of horizon K; each ``name: steps`` line (the
    grammar of ``errors.read_entries``) must be a valid ``Schedule``."""
    schedules: dict[BlockId, Schedule] = {}

    def entry(name: str, steps: str) -> None:
        block = parse_block_name(name)
        if block in schedules:  # `layers.0.SA` and `layers.00.SA` are one block
            raise FormatError(f"duplicate block {block.name}")
        try:
            schedules[block] = Schedule(tuple(map(parse_int, steps.split(","))), K)
        except ScheduleError as exc:
            raise FormatError(f"{block.name}: {exc}") from None

    read_entries(text, ":", entry, "'layers.<l>.<KIND>: steps'")
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
    write_file(path, dump_plan(plan))


def read_plan(path: str, K: int) -> SchedulePlan:
    return read_file(path, lambda text: parse_plan(text, K=K))


def dump_added_steps(added: dict[BlockId, tuple[int, ...]]) -> str:
    return _step_lines(sorted(added.items(), key=lambda kv: kv[0].ordinal))


# -- report -----------------------------------------------------------------


def _one_run_shape(report: RunReport) -> tuple[int, int]:
    """The (layers, K) of a one-episode report, read from its update mask;
    ``DimensionError`` for a batched one, told by its deviation's episode
    axis, so a refused report runs no error pass."""
    lead, (n, K) = np.shape(report.final_action_l2), report.update_mask.shape
    if lead:
        raise DimensionError(
            f"a report file holds one run: errors shape {(*lead, n, K)}, want (3L, K)")
    return n // 3, K


# the keys of a report section, in file order; err.<block> lines follow them
_SECTION_KEYS = ("flops_full", "flops_cached", "speedup", "final_action_l2",
                 "decoder_flops_full", "decoder_flops_cached", "decoder_reduction")
MANDATORY_REPORT_KEYS = _SECTION_KEYS[:4]
_BASELINE = "baseline_"


def dump_report(report: RunReport, baseline: RunReport | None = None) -> str:
    def section(rep: RunReport, prefix: str = "") -> list[str]:
        _one_run_shape(rep)
        f = rep.flops
        values = (f.flops_full, f.flops_cached, fmt_float(f.speedup),
                  fmt_float(rep.final_action_l2), f.decoder_flops_full,
                  f.decoder_flops_cached, fmt_float(f.decoder_reduction))
        lines = [f"{prefix}{key}={value}" for key, value in zip(_SECTION_KEYS, values)]
        for block, err in rep.block_mean_errors().items():
            lines.append(f"{prefix}err.{block.name}={fmt_float(err)}")
        return lines

    lines = section(report)
    if baseline is not None:
        lines += section(baseline, prefix=_BASELINE)
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict[str, float]:
    """The values of a report, by key.  A key is a section key or
    ``err.<block>``, bare or after ``baseline_``; any other key, or a block
    named twice in one section, is a ``FormatError`` naming its line.  The
    bare section, and the ``baseline_`` one if any key has that prefix, needs
    the mandatory keys and, if it names a block, every block of the layers
    its blocks fill: else a ``ConsistencyError`` names the first missing key."""
    sections: dict[str, set[str]] = {"": set()}  # each section's keys, blocks named canonically

    def value(key: str, val: str) -> float:
        prefix = _BASELINE if key.startswith(_BASELINE) else ""
        name, seen = key[len(prefix):], sections.setdefault(prefix, set())
        if name.startswith("err."):
            name = "err." + parse_block_name(name[len("err."):]).name
        elif name not in _SECTION_KEYS:
            raise FormatError(f"unknown key {key!r}")
        if name in seen:  # `err.layers.0.SA` and `err.layers.00.SA` are one block
            raise FormatError(f"duplicate key {prefix + name!r}")
        seen.add(name)
        return parse_float(val)

    values = read_entries(text, "=", value, "key=value")
    for prefix, seen in sections.items():
        # m distinct blocks fill whole layers iff they are the first 3*ceil(m/3)
        # blocks, so a missing one is among those, however large a layer named
        blocks = -(-sum(name.startswith("err.") for name in seen) // 3) * 3
        wanted = (*MANDATORY_REPORT_KEYS, *(f"err.{block_at(i).name}" for i in range(blocks)))
        first = next((prefix + k for k in wanted if k not in seen), None)
        if first is not None:
            raise ConsistencyError(f"report misses key {first}")
    return values


def write_report(report: RunReport, path: str, baseline: RunReport | None = None) -> None:
    write_file(path, dump_report(report, baseline))


# -- CSV dumps ----------------------------------------------------------------


def _csv_row(values) -> str:
    """One CSV line of numbers, each through ``fmt_float``."""
    return ",".join(map(fmt_float, values)) + "\n"


def write_surface_csv(report: RunReport, path: str) -> None:
    """Error surface (rows: blocks in canonical order) plus <path>.mask; a
    mask's True and False print as 1 and 0 through ``fmt_float``.  Both texts
    are built before either file is written."""
    layers, K = _one_run_shape(report)
    header = "block," + ",".join(map(str, range(K))) + "\n"
    texts = {path + suffix: header + "".join(f"{b.name},{_csv_row(surface[b.ordinal])}"
                                             for b in canonical_blocks(layers))
             for suffix, surface in (("", report.errors), (".mask", report.update_mask))}
    for out, text in texts.items():
        write_file(out, text)


def write_matrix_csv(matrix: np.ndarray, path: str) -> None:
    write_file(path, "".join(map(_csv_row, matrix)))


def write_curve_csv(xs, ys, path: str, header: tuple[str, str]) -> None:
    write_file(path, f"{header[0]},{header[1]}\n" + "".join(map(_csv_row, zip(xs, ys))))
