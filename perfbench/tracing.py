"""Span tracing of the bac layers, installed from outside the package.

``Tracer.install()`` replaces each traced public function with a wrapper at
every place a ``bac`` module looks it up: the defining module and every module
that imported it by name (``block_residual`` lives in ``bac.denoiser`` and is
also bound in ``bac.engine`` and ``bac.errorlab``; ``bac.cli`` binds its
handlers' callees by name).  ``uninstall()`` restores the originals, so one
process can alternate untraced and traced executions of the same op.

A span is ``(name, start_ns, end_ns, parent, op, payload)``: ``parent`` is the
index of the enclosing span (-1 at the root), ``op`` the op id (-1 during
set-up, ``PROBE`` in the probe op of a traced run) and ``payload`` a per-name work count (MACs for a block call, computed
bytes for the pairwise-L1 kernel, file bytes for a writer, the update fraction
of a cached run, the steps a repair added).  Spans stay in memory until
``write_jsonl``; self time is a span's duration minus its direct children,
which cover disjoint parts of it because execution is single-threaded.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name) of every traced public function, by layer.
TARGETS = (
    # denoiser: block_residual gets a per-kind wrapper, see _wrap_block
    ("bac.denoiser", "encode_obs", "denoiser.encode_obs"),
    ("bac.denoiser", "embed_action", "denoiser.embed_action"),
    ("bac.denoiser", "project_action", "denoiser.project_action"),
    ("bac.denoiser", "denoise_full", "denoiser.denoise_full"),
    ("bac.denoiser", "build_denoiser", "denoiser.build_denoiser"),
    # engine
    ("bac.engine", "run_cached", "engine.run_cached"),
    ("bac.engine", "flops_estimate", "engine.flops_estimate"),
    # profiler and its kernel
    ("bac.profiler", "profile_task", "profiler.profile_task"),
    ("bac.profiler", "consecutive_similarities", "profiler.consecutive_similarities"),
    ("bac.profiler", "caching_error_magnitude", "profiler.caching_error_magnitude"),
    ("bac.profiler", "similarity_matrices", "profiler.similarity_matrices"),
    ("bac.kernels", "pairwise_l1_total", "kernels.pairwise_l1_total"),
    # scheduler and its kernel
    ("bac.scheduler", "solve_schedule", "scheduler.solve_schedule"),
    ("bac.scheduler", "solve_schedule_anchored", "scheduler.solve_schedule_anchored"),
    ("bac.kernels", "dp_fill", "kernels.dp_fill"),
    # bua
    ("bac.bua", "select_upstream_blocks", "bua.select_upstream_blocks"),
    ("bac.bua", "bubble_union", "bua.bubble_union"),
    # fileio
    ("bac.fileio", "write_profile", "fileio.write_profile"),
    ("bac.fileio", "read_profile", "fileio.read_profile"),
    ("bac.fileio", "write_plan", "fileio.write_plan"),
    ("bac.fileio", "read_plan", "fileio.read_plan"),
    ("bac.fileio", "write_report", "fileio.write_report"),
    ("bac.fileio", "write_surface_csv", "fileio.write_surface_csv"),
    # verify: run_all looks each check up in its module
    ("bac.verify", "check_dp_vs_brute_force", "verify.dp_vs_brute_force"),
    ("bac.verify", "check_decomposition_identity", "verify.decomposition_identity"),
    ("bac.verify", "check_linear_response_suite", "verify.linear_response_suite"),
    ("bac.verify", "check_bubble_union_properties", "verify.bubble_union_properties"),
    ("bac.verify", "check_bit_exact_full_plan", "verify.bit_exact_full_plan"),
)

PROBE = -2  # op id of the other workload's probe op in a traced run

VERIFY_CHECKS = tuple(name for _, _, name in TARGETS if name.startswith("verify."))
CLI_STAGES = ("profile", "schedule", "bubble", "run", "verify")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter_ns(), 0, parent, self.op, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, end: int, payload: float = 0.0) -> None:
        span = self.spans[idx]
        span[2] = end
        span[5] = payload
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around code of the benchmark itself (ops, CLI stages)."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx, time.perf_counter_ns())

    def _wrap(self, fn, name: str, payload=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, time.perf_counter_ns())
                raise
            end = time.perf_counter_ns()
            self._close(idx, end, payload(args, kwargs, result) if payload else 0.0)
            return result

        return traced

    def _wrap_block(self, fn):
        from bac.engine import block_cost

        kind_ids = {k: self.name_id(f"denoiser.block_residual.{k}") for k in ("SA", "CA", "FFN")}
        macs: dict[tuple[int, str], int] = {}

        @functools.wraps(fn)
        def traced(denoiser, block, *args, **kwargs):
            idx = self._open(kind_ids[block.kind])
            try:
                return fn(denoiser, block, *args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                key = (id(denoiser.config), block.kind)
                cost = macs.get(key)
                if cost is None:
                    cost = macs[key] = block_cost(denoiser.config, block.kind)
                self._close(idx, end, cost)

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import bac.denoiser

        wrappers = [(bac.denoiser.block_residual, self._wrap_block(bac.denoiser.block_residual))]
        for module_name, attr, name in TARGETS:
            orig = getattr(sys.modules[module_name], attr)
            wrappers.append((orig, self._wrap(orig, name, _PAYLOADS.get(name))))
        modules = [m for n, m in list(sys.modules.items()) if n == "bac" or n.startswith("bac.")]
        for orig, wrapper in wrappers:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, orig))

    def uninstall(self) -> None:
        for module, key, orig in reversed(self._patched):
            setattr(module, key, orig)
        self._patched.clear()

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for nid, start, end, parent, op, payload in self.spans:
                fh.write(json.dumps({
                    "name": self.names[nid], "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "payload": payload,
                }) + "\n")


def _file_bytes(path_arg: int):
    def count(args, kwargs, _result):
        path = args[path_arg] if len(args) > path_arg else kwargs["path"]
        extra = path + ".mask"
        return float(os.path.getsize(path) + (os.path.getsize(extra) if os.path.exists(extra) else 0))

    return count


def _l1_bytes(args, kwargs, _result):
    feats = args[0]
    k, n = feats.shape
    return float(k * k * n * 8)  # the broadcast |x_t - x_u| array, computed not measured


def _added_steps(args, kwargs, result):
    before = args[0]
    return float(sum(len(result.schedules[b]) - len(s) for b, s in before.schedules.items()))


def _update_frac(args, kwargs, result):
    return float(result[1].update_mask.mean())


_PAYLOADS = {
    "engine.run_cached": _update_frac,
    "kernels.pairwise_l1_total": _l1_bytes,
    "bua.bubble_union": _added_steps,
    "fileio.write_profile": _file_bytes(1),
    "fileio.write_plan": _file_bytes(1),
    "fileio.write_report": _file_bytes(2),
    "fileio.write_surface_csv": _file_bytes(2),
}


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    Times are means per call over the whole run, set-up included; counts are
    per op.  A function that the workload never calls gets its time from the
    probe op's spans instead; its counts stay the workload's own.  Spans
    nested inside a ``verify.*`` check run the suite's own small configs, so
    they are left out of every layer but ``verify``.
    """
    spans = tracer.spans
    n = len(spans)
    name = np.array([s[0] for s in spans], dtype=np.int64)
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    op = np.array([s[4] for s in spans], dtype=np.int64)
    payload = np.array([s[5] for s in spans], dtype=np.float64)

    child_time = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time

    verify_ids = {tracer.name_id(v) for v in VERIFY_CHECKS}
    in_verify = np.zeros(n, dtype=bool)
    for i in range(n):  # parents precede children, so one forward pass suffices
        p = parent[i]
        if p >= 0:
            in_verify[i] = in_verify[p] or name[p] in verify_ids
    outside = ~in_verify

    own = op != PROBE

    def prefer_own(mask: np.ndarray) -> np.ndarray:
        return mask & own if (mask & own).any() else mask

    def sel(span_name: str, parent_name: str | None = None) -> np.ndarray:
        mask = (name == tracer.name_id(span_name)) & outside
        if parent_name is not None:
            pid = tracer.name_id(parent_name)
            mask &= has_parent & (name[np.maximum(parent, 0)] == pid)
        return prefer_own(mask)

    def mean(values: np.ndarray, mask: np.ndarray, scale: float) -> float:
        return float(values[mask].mean() * scale) if mask.any() else 0.0

    def per_op(mask: np.ndarray) -> float:
        return float(np.count_nonzero(mask & (op >= 0)) / n_ops) if n_ops else 0.0

    us, ms = 1e-3, 1e-6
    m: dict[str, tuple[float, str]] = {}

    blocks = {k: sel(f"denoiser.block_residual.{k}") for k in ("SA", "CA", "FFN")}
    for kind, mask in blocks.items():
        m[f"denoiser.{kind.lower()}_us"] = (mean(dur, mask, us), "us")
    steps = sel("denoiser.project_action")
    step_parts = sel("denoiser.encode_obs") | sel("denoiser.embed_action") | steps
    m["denoiser.step_us"] = (
        float(dur[step_parts].sum() / np.count_nonzero(steps) * us) if steps.any() else 0.0, "us")
    full = sel("denoiser.denoise_full")
    m["denoiser.full_self_ms"] = (mean(self_time, full, ms), "ms")
    any_block = blocks["SA"] | blocks["CA"] | blocks["FFN"]
    m["denoiser.block_calls"] = (per_op(any_block), "count")
    busy = dur[any_block].sum()
    m["denoiser.gmacs_per_s"] = (float(payload[any_block].sum() / busy) if busy else 0.0, "GMAC/s")
    m["denoiser.build_ms"] = (mean(dur, sel("denoiser.build_denoiser"), ms), "ms")

    cached = sel("engine.run_cached")
    m["engine.run_cached_ms"] = (mean(dur, cached, ms), "ms")
    m["engine.self_ms"] = (mean(self_time, cached, ms), "ms")
    m["engine.update_frac"] = (mean(payload, cached, 1.0), "frac")
    m["engine.ref_calls"] = (per_op(sel("denoiser.denoise_full", "engine.run_cached")), "count")
    m["engine.flops_us"] = (mean(dur, sel("engine.flops_estimate"), us), "us")

    prof = sel("profiler.profile_task")
    n_prof = np.count_nonzero(prof)

    def within_profile(child: str) -> float:
        mask = sel(child, "profiler.profile_task")
        return float(dur[mask].sum() / n_prof * ms) if n_prof else 0.0

    m["profiler.profile_ms"] = (mean(dur, prof, ms), "ms")
    m["profiler.trace_ms"] = (within_profile("denoiser.denoise_full"), "ms")
    m["profiler.cos_ms"] = (within_profile("profiler.consecutive_similarities"), "ms")
    m["profiler.l1_ms"] = (within_profile("profiler.caching_error_magnitude"), "ms")
    l1 = sel("kernels.pairwise_l1_total")
    m["kernels.pairwise_l1_us"] = (mean(dur, l1, us), "us")
    m["kernels.pairwise_l1_calls"] = (per_op(l1), "count")
    m["kernels.pairwise_l1_mb"] = (mean(payload, l1, 1e-6), "MB")
    m["profiler.simmatrices_ms"] = (mean(dur, sel("profiler.similarity_matrices"), ms), "ms")

    solve = sel("scheduler.solve_schedule")
    fill = sel("kernels.dp_fill")
    anchored = sel("scheduler.solve_schedule_anchored")
    m["scheduler.solve_us"] = (mean(dur, solve, us), "us")
    m["scheduler.solve_calls"] = (per_op(solve), "count")
    m["kernels.dp_fill_us"] = (mean(dur, fill, us), "us")
    m["kernels.dp_fill_calls"] = (per_op(fill), "count")
    m["scheduler.anchored_ms"] = (mean(dur, anchored, ms), "ms")
    m["scheduler.anchored_calls"] = (per_op(anchored), "count")

    union = sel("bua.bubble_union")
    m["bua.select_us"] = (mean(dur, sel("bua.select_upstream_blocks"), us), "us")
    m["bua.union_us"] = (mean(dur, union, us), "us")
    m["bua.added_steps"] = (mean(payload, union, 1.0), "count")

    m["fileio.profile_io_ms"] = (
        mean(dur, sel("fileio.write_profile") | sel("fileio.read_profile"), ms), "ms")
    m["fileio.plan_io_us"] = (mean(dur, sel("fileio.write_plan") | sel("fileio.read_plan"), us), "us")
    m["fileio.report_ms"] = (mean(dur, sel("fileio.write_report"), ms), "ms")
    m["fileio.surface_ms"] = (mean(dur, sel("fileio.write_surface_csv"), ms), "ms")
    writers = np.zeros(n, dtype=bool)
    for w in ("write_profile", "write_plan", "write_report", "write_surface_csv"):
        writers |= sel(f"fileio.{w}")
    m["fileio.bytes_written"] = (
        float(payload[writers & (op >= 0)].sum() / n_ops) if n_ops else 0.0, "bytes")

    for check in VERIFY_CHECKS:
        m[f"{check}_ms"] = (mean(dur, prefer_own(name == tracer.name_id(check)), ms), "ms")
    for stage in CLI_STAGES:
        m[f"cli.{stage}_self_ms"] = (mean(self_time, sel(f"cli.{stage}"), ms), "ms")
    return m
