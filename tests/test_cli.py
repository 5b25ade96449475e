import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bac import errorlab, fileio
from bac.blocks import canonical_blocks
from bac.cli import main
from bac.config import DenoiserConfig, parse_config_text
from bac.engine import memory_estimate, uniform_plan
from bac.profiler import BlockStats, SimilarityProfile
from bac.scheduler import objective, solve_schedule

CONFIG_TEXT = (
    "layers=2\nd_model=16\nheads=2\naction_tokens=4\n"
    "cond_tokens=2\naction_dim=3\nK=12\nseed=11\n"
)


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(CONFIG_TEXT)
    return tmp_path, cfg


def run_cli(*args):
    return main([str(a) for a in args])


def test_full_pipeline(workspace):
    tmp, cfg = workspace
    prof = tmp / "task.bacprof"
    sched = tmp / "task.bacsched"
    bubbled = tmp / "task_bua.bacsched"
    diff = tmp / "added.txt"
    report = tmp / "run.report"
    surface = tmp / "surface.csv"

    assert run_cli("profile", "--config", cfg, "--episodes", 2, "--seed", 5, "--out", prof) == 0
    assert run_cli("schedule", "--profile", prof, "--budget", 4, "--out", sched) == 0
    assert run_cli("bubble", "--profile", prof, "--sched", sched, "--topk", 2,
                   "--out", bubbled, "--diff", diff) == 0
    assert run_cli("run", "--config", cfg, "--sched", bubbled, "--seed", 9,
                   "--report", report, "--baseline", "uniform:4",
                   "--surface", surface) == 0

    values = fileio.parse_report(report.read_text())
    assert values["speedup"] > 1.0
    assert "baseline_speedup" in values
    assert surface.exists() and (tmp / "surface.csv.mask").exists()


def test_profile_outputs_byte_identical(workspace):
    tmp, cfg = workspace
    a, b = tmp / "a.bacprof", tmp / "b.bacprof"
    run_cli("profile", "--config", cfg, "--episodes", 2, "--seed", 5, "--out", a)
    run_cli("profile", "--config", cfg, "--episodes", 2, "--seed", 5, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_profile_round_trips_through_parser(workspace):
    tmp, cfg = workspace
    out = tmp / "p.bacprof"
    run_cli("profile", "--config", cfg, "--seed", 1, "--out", out)
    parsed = fileio.read_profile(str(out))
    rewritten = tmp / "p2.bacprof"
    fileio.write_profile(parsed, str(rewritten))
    assert out.read_bytes() == rewritten.read_bytes()


def test_schedule_full_budget_lists_all_steps(workspace):
    tmp, cfg = workspace
    prof, sched = tmp / "p.bacprof", tmp / "s.bacsched"
    run_cli("profile", "--config", cfg, "--seed", 1, "--out", prof)
    assert run_cli("schedule", "--profile", prof, "--budget", 12, "--out", sched) == 0
    want = ",".join(str(t) for t in range(12))
    for line in sched.read_text().splitlines():
        assert line.endswith(f": {want}")


def test_schedule_lines_match_dp_optimum(workspace):
    tmp, cfg = workspace
    prof, sched = tmp / "p.bacprof", tmp / "s.bacsched"
    run_cli("profile", "--config", cfg, "--episodes", 2, "--seed", 5, "--out", prof)
    run_cli("schedule", "--profile", prof, "--budget", 4, "--out", sched)
    profile = fileio.read_profile(str(prof))
    plan = fileio.read_plan(str(sched), K=profile.K)
    for block, stats in profile.blocks.items():
        want, _ = solve_schedule(stats.s, profile.K, 4)
        written = plan.schedule(block)
        assert objective(written, stats.s) == pytest.approx(
            objective(want, stats.s), abs=1e-12
        )


def test_schedule_anchored_needs_config(workspace):
    tmp, cfg = workspace
    prof, sched = tmp / "p.bacprof", tmp / "s.bacsched"
    run_cli("profile", "--config", cfg, "--seed", 1, "--out", prof)
    assert run_cli("schedule", "--profile", prof, "--budget", 3, "--anchored",
                   "--out", sched) == 2
    assert run_cli("schedule", "--profile", prof, "--budget", 3, "--anchored",
                   "--config", cfg, "--seed", 1, "--out", sched) == 0
    plan = fileio.read_plan(str(sched), K=12)
    for block in plan.schedules:
        assert len(plan.schedule(block).steps) == 3


# Inputs that disagree on layers or K, and the exact refusal each gives;
# {one} is a 1-layer schedule, {prof} the workspace's 2-layer K=12 profile
_MISMATCH_CASES = {
    "run-schedule-layers": ("run --config {cfg} --sched {one} --report {out}",
                            "schedule layers=1 != config layers=2"),
    "bubble-schedule-layers": ("bubble --profile {prof} --sched {one} --out {out}",
                               "schedule layers=1 != profile layers=2"),
    "anchored-config-K": ("schedule --profile {prof} --budget 3 --anchored --config {k10} "
                          "--out {out}", "config K=10 != profile K=12"),
    "anchored-config-layers": ("schedule --profile {prof} --budget 3 --anchored "
                               "--config {one_layer} --out {out}",
                               "config layers=1 != profile layers=2"),
}


@pytest.mark.parametrize("case", sorted(_MISMATCH_CASES))
def test_cross_file_mismatch_refused_before_work(workspace, monkeypatch, capsys, case):
    tmp, cfg = workspace
    paths = {"cfg": cfg, "out": tmp / "out", "prof": tmp / "p.bacprof",
             "one": tmp / "one.bacsched", "k10": tmp / "k10.cfg",
             "one_layer": tmp / "one_layer.cfg"}
    blocks = {b: BlockStats(np.full(11, 0.9), 1.0) for b in canonical_blocks(2)}
    fileio.write_profile(SimilarityProfile(K=12, blocks=blocks), paths["prof"])
    fileio.write_plan(uniform_plan(12, 3, 1), paths["one"])
    paths["k10"].write_text(CONFIG_TEXT.replace("K=12", "K=10"))
    paths["one_layer"].write_text(CONFIG_TEXT.replace("layers=2", "layers=1"))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the agreement check")

    monkeypatch.setattr("bac.cli.build_denoiser", no_work)
    monkeypatch.setattr("bac.cli.similarity_matrices", no_work)
    argv, want = _MISMATCH_CASES[case]
    capsys.readouterr()
    assert run_cli(*argv.format(**paths).split()) == 2
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not paths["out"].exists()


@pytest.mark.parametrize("budget", [0, 13])
def test_schedule_anchored_rejects_budget_before_matrices(workspace, monkeypatch, capsys,
                                                         budget):
    tmp, cfg = workspace
    prof, sched = tmp / "p.bacprof", tmp / "s.bacsched"
    run_cli("profile", "--config", cfg, "--seed", 1, "--out", prof)

    def no_matrices(*args, **kwargs):
        raise AssertionError("similarity matrices built before the budget check")

    monkeypatch.setattr("bac.cli.similarity_matrices", no_matrices)
    capsys.readouterr()
    assert run_cli("schedule", "--profile", prof, "--budget", budget, "--anchored",
                   "--config", cfg, "--seed", 1, "--out", sched) == 2
    assert f"budget {budget} outside [1, 12]" in capsys.readouterr().err
    assert not sched.exists()


def test_export_simmatrix_rejects_missing_layer_before_profiling(workspace, monkeypatch,
                                                                 capsys):
    tmp, cfg = workspace
    out = tmp / "m.csv"

    def no_matrices(*args, **kwargs):
        raise AssertionError("similarity matrices built before the layer check")

    monkeypatch.setattr("bac.cli.similarity_matrices", no_matrices)
    assert run_cli("export", "--what", "simmatrix", "--config", cfg,
                   "--block", "layers.2.FFN", "--out", out) == 2
    assert "no block layers.2.FFN in this 2-layer architecture" in capsys.readouterr().err
    assert not out.exists()


def test_bubble_topk_zero_is_identity(workspace):
    tmp, cfg = workspace
    prof, sched, out = tmp / "p.bacprof", tmp / "s.bacsched", tmp / "o.bacsched"
    run_cli("profile", "--config", cfg, "--seed", 1, "--out", prof)
    run_cli("schedule", "--profile", prof, "--budget", 3, "--out", sched)
    assert run_cli("bubble", "--profile", prof, "--sched", sched, "--topk", 0,
                   "--out", out) == 0
    assert out.read_bytes() == sched.read_bytes()


def test_bubble_output_superset_for_selected(workspace):
    tmp, cfg = workspace
    prof, sched, out, diff = (tmp / n for n in
                              ("p.bacprof", "s.bacsched", "o.bacsched", "d.txt"))
    run_cli("profile", "--config", cfg, "--episodes", 2, "--seed", 3, "--out", prof)
    run_cli("schedule", "--profile", prof, "--budget", 3, "--out", sched)
    run_cli("bubble", "--profile", prof, "--sched", sched, "--topk", 3,
            "--out", out, "--diff", diff)
    before = fileio.read_plan(str(sched), K=12)
    after = fileio.read_plan(str(out), K=12)
    for block in before.schedules:
        assert set(after.schedule(block).steps) >= set(before.schedule(block).steps)


def test_run_all_steps_schedule_reports_unity(workspace):
    tmp, cfg = workspace
    sched = tmp / "full.bacsched"
    lines = []
    for layer in range(2):
        for kind in ("SA", "CA", "FFN"):
            lines.append(f"layers.{layer}.{kind}: " + ",".join(map(str, range(12))))
    sched.write_text("\n".join(lines) + "\n")
    report = tmp / "full.report"
    assert run_cli("run", "--config", cfg, "--sched", sched, "--seed", 2,
                   "--report", report) == 0
    values = fileio.parse_report(report.read_text())
    assert values["speedup"] == 1.0
    assert values["final_action_l2"] == 0.0


def test_usage_errors_exit_two(workspace, capsys):
    tmp, cfg = workspace
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--episodes", "1", "--out", str(tmp / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--config", str(cfg), "--bogus-flag", "1",
              "--out", str(tmp / "x")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_budget_error_exits_two(workspace):
    tmp, cfg = workspace
    prof = tmp / "p.bacprof"
    run_cli("profile", "--config", cfg, "--seed", 1, "--out", prof)
    assert run_cli("schedule", "--profile", prof, "--budget", 99,
                   "--out", tmp / "s.bacsched") == 2


def test_parse_error_names_line(workspace, capsys):
    tmp, cfg = workspace
    bad = tmp / "bad.bacprof"
    bad.write_text("BAC-PROFILE v1\nK=oops\nBLOCKS=6\n")
    code = run_cli("schedule", "--profile", bad, "--budget", 2, "--out", tmp / "s")
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}: line 2: malformed header integer\n"


# argv ({bad} is the file, {cfg} the workspace's config, {w} the workspace) and
# the text of the file, for each command's reader of an input file
_READER_CASES = {
    "config": ("profile --config {bad} --out {w}/out", CONFIG_TEXT),
    "profile": ("schedule --profile {bad} --budget 2 --out {w}/out",
                "BAC-PROFILE v1\nK=12\nBLOCKS=6\n"),
    "schedule": ("run --config {cfg} --sched {bad} --report {w}/out",
                 "".join(f"layers.0.{kind}: 0,6\n" for kind in ("SA", "CA", "FFN"))),
}


@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_non_utf8_input_is_a_format_error_naming_its_line(workspace, capsys, case):
    """A byte outside UTF-8 in an input file exits 2 naming the file and the
    line of the first such byte; it used to escape as a
    ``UnicodeDecodeError``, exit 1."""
    tmp, cfg = workspace
    argv, text = _READER_CASES[case]
    lines = text.encode().splitlines(keepends=True)
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    bad = tmp / "bad"
    bad.write_bytes(b"".join(lines))
    code = run_cli(*argv.format(bad=bad, cfg=cfg, w=tmp).split())
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}: line 3: byte 0xff is not UTF-8\n"
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("case, old, new, want", [
    ("config", "d_model=16", "d_model=1_6", "line 2: malformed value for 'd_model'"),
    ("profile", "K=12", "K=1_2", "line 2: malformed header integer"),
    ("schedule", "layers.0.CA", "layers.0_0.CA", "line 2: bad layer index in 'layers.0_0.CA'"),
])
def test_a_number_no_writer_prints_exits_two_naming_its_line(workspace, capsys, case, old,
                                                             new, want):
    """``1_6`` is 16 to Python's ``int``, but the readers take numbers only as
    the writers print them."""
    tmp, cfg = workspace
    argv, text = _READER_CASES[case]
    bad = tmp / "bad"
    bad.write_text(text.replace(old, new, 1))
    assert run_cli(*argv.format(bad=bad, cfg=cfg, w=tmp).split()) == 2
    assert capsys.readouterr().err == f"error: {bad}: {want}\n"
    assert not (tmp / "out").exists()


def _edit_profile_line(tmp, cfg, prefix, edit):
    """Profile whose first line starting with ``prefix`` is replaced by
    ``edit(line)``; returns its path and the 1-based number of that line."""
    prof = tmp / "p.bacprof"
    run_cli("profile", "--config", cfg, "--seed", 1, "--out", prof)
    lines = prof.read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[idx] = edit(lines[idx])
    prof.write_text("\n".join(lines) + "\n")
    return prof, idx + 1


def test_nan_similarity_rejected_with_line(workspace, capsys):
    tmp, cfg = workspace
    prof, lineno = _edit_profile_line(
        tmp, cfg, "S: ", lambda line: line.rpartition(",")[0] + ",nan"
    )
    code = run_cli("schedule", "--profile", prof, "--budget", 3, "--out", tmp / "s")
    assert code == 2
    err = capsys.readouterr().err
    assert f"line {lineno}" in err and "finite" in err


def test_infinite_l1_rejected_with_line(workspace, capsys):
    tmp, cfg = workspace
    prof, lineno = _edit_profile_line(tmp, cfg, "L1: ", lambda line: "L1: inf")
    sched = tmp / "s.bacsched"
    sched.write_text("".join(
        f"layers.{layer}.{kind}: 0,6\n" for layer in range(2) for kind in ("SA", "CA", "FFN")
    ))
    code = run_cli("bubble", "--profile", prof, "--sched", sched, "--out", tmp / "r")
    assert code == 2
    err = capsys.readouterr().err
    assert f"line {lineno}" in err and "finite" in err


def test_schedule_config_mismatch_exits_two(workspace):
    # the schedule grammar carries no K header, so a horizon mismatch is
    # detected when a scheduled step falls outside the config's range
    tmp, cfg = workspace
    prof, sched = tmp / "p.bacprof", tmp / "s.bacsched"
    run_cli("profile", "--config", cfg, "--seed", 1, "--out", prof)
    run_cli("schedule", "--profile", prof, "--budget", 12, "--out", sched)
    other = tmp / "other.cfg"
    other.write_text(CONFIG_TEXT.replace("K=12", "K=10"))
    assert run_cli("run", "--config", other, "--sched", sched, "--seed", 1,
                   "--report", tmp / "r") == 2


def test_export_simmatrix_and_remainder(workspace):
    tmp, cfg = workspace
    mat = tmp / "m.csv"
    assert run_cli("export", "--what", "simmatrix", "--config", cfg,
                   "--block", "layers.0.FFN", "--seed", 3, "--out", mat) == 0
    rows = mat.read_text().splitlines()
    assert len(rows) == 12 and len(rows[0].split(",")) == 12

    curve = tmp / "r.csv"
    assert run_cli("export", "--what", "remainder", "--seed", 1, "--dim", 16,
                   "--out", curve) == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "eps,remainder" and len(lines) == 7
    ratios = [float(a.split(",")[1]) / float(b.split(",")[1])
              for a, b in zip(lines[1:], lines[2:])]
    assert 3.0 < np.median(ratios) < 5.0


def test_export_beta_curve(workspace):
    tmp, cfg = workspace
    out = tmp / "beta.csv"
    assert run_cli("export", "--what", "beta", "--config", cfg, "--seed", 2,
                   "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,downstream_error"
    errs = [float(l.split(",")[1]) for l in lines[1:5]]
    assert errs == sorted(errs)


def test_export_missing_inputs_exit_two(workspace):
    tmp, _ = workspace
    assert run_cli("export", "--what", "simmatrix", "--out", tmp / "m.csv") == 2


def test_baseline_with_a_non_ascii_digit_is_refused(workspace, capsys):
    """``'²'.isdigit()`` is true but ``int`` refuses it: exit 2 naming the
    baseline, not a ``ValueError`` traceback and exit 1."""
    tmp, cfg = workspace
    sched, report = tmp / "u.bacsched", tmp / "run.report"
    fileio.write_plan(uniform_plan(12, 4, 2), sched)
    assert run_cli("run", "--config", cfg, "--sched", sched, "--report", report,
                   "--baseline", "uniform:²") == 2
    assert capsys.readouterr().err == "error: unsupported baseline 'uniform:²'\n"
    assert not report.exists()


# argv ({w} is the workspace) of a mode given an option it does not read, the
# option, and the mode the message names
_SCHEDULE = "schedule --profile {w}/p.bacprof --budget 3"
_UNREAD_CASES = {
    "schedule-config": (_SCHEDULE + " --config /nonexistent.cfg --episodes 9 --seed 5",
                        "--config", "schedule without --anchored"),
    "schedule-episodes": (_SCHEDULE + " --episodes 9", "--episodes",
                          "schedule without --anchored"),
    "schedule-seed": (_SCHEDULE + " --seed 5", "--seed", "schedule without --anchored"),
    "remainder-config": ("export --what remainder --config /nonexistent.cfg --block bogus",
                         "--config", "export --what remainder"),
    "remainder-block": ("export --what remainder --block bogus", "--block",
                        "export --what remainder"),
    "remainder-episodes": ("export --what remainder --episodes 2", "--episodes",
                           "export --what remainder"),
    "beta-block": ("export --what beta --config {w}/toy.cfg --block bogus", "--block",
                   "export --what beta"),
    "beta-episodes": ("export --what beta --config {w}/toy.cfg --episodes 2", "--episodes",
                      "export --what beta"),
    "beta-dim": ("export --what beta --config {w}/toy.cfg --dim 8", "--dim",
                 "export --what beta"),
    "simmatrix-dim": ("export --what simmatrix --config {w}/toy.cfg --block layers.0.SA "
                      "--dim 8", "--dim", "export --what simmatrix"),
}


@pytest.mark.parametrize("case", sorted(_UNREAD_CASES))
def test_an_option_the_mode_does_not_read_is_refused(workspace, capsys, monkeypatch, case):
    """An option a mode would ignore exits 2 naming it, before any file is
    read or anything is built; it used to be accepted silently."""
    tmp, _ = workspace
    argv, option, mode = _UNREAD_CASES[case]

    def never(*_args, **_kwargs):
        raise AssertionError("worked before refusing an unread option")

    for name in ("bac.fileio.read_profile", "bac.cli.load_config", "bac.errorlab.random_ffn"):
        monkeypatch.setattr(name, never)
    assert run_cli(*argv.format(w=tmp).split(), "--out", tmp / "out") == 2
    assert capsys.readouterr().err == f"error: {option} is not read by {mode}\n"
    assert not (tmp / "out").exists()


def test_export_has_no_surface(workspace, capsys):
    """``bac run --surface`` is the one writer of the error surface."""
    tmp, cfg = workspace
    with pytest.raises(SystemExit) as exc:
        run_cli("export", "--what", "surface", "--config", cfg, "--out", tmp / "s.csv")
    assert exc.value.code == 2
    assert "invalid choice: 'surface'" in capsys.readouterr().err
    assert not (tmp / "s.csv").exists()


@pytest.mark.parametrize("dim", [-1, 0])
def test_export_remainder_rejects_nonpositive_dim(workspace, capsys, dim):
    tmp, _ = workspace
    out = tmp / "r.csv"
    assert run_cli("export", "--what", "remainder", "--dim", dim,
                   "--out", out) == 2
    assert "--dim" in capsys.readouterr().err
    assert not out.exists()


def test_remainder_bytes_counts_the_ffn_and_both_operators():
    d = 16
    params = errorlab.random_ffn(np.random.default_rng(0), d)
    a_op, b_op = errorlab.ln_operators(np.linspace(-1.0, 1.0, d), params.gamma)
    held = (params.w1, params.b1, params.w2, params.b2, params.gamma, a_op, b_op)
    assert errorlab.remainder_bytes(d) == sum(arr.nbytes for arr in held)


def test_export_remainder_refuses_above_the_cap_before_drawing(workspace, capsys,
                                                                monkeypatch):
    tmp, _ = workspace
    out = tmp / "r.csv"
    estimate = errorlab.remainder_bytes(16)

    def never(*_args, **_kwargs):
        raise AssertionError("drew the random FFN above the memory cap")

    monkeypatch.setattr("bac.errorlab.random_ffn", never)
    monkeypatch.setattr("bac.engine.MEMORY_CAP_BYTES", estimate - 1)
    assert run_cli("export", "--what", "remainder", "--dim", 16, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"({estimate} bytes" in err
    assert f"cap of {estimate - 1} bytes" in err and "--dim" in err
    assert not out.exists()

    monkeypatch.undo()
    monkeypatch.setattr("bac.engine.MEMORY_CAP_BYTES", estimate)
    assert run_cli("export", "--what", "remainder", "--dim", 16, "--out", out) == 0


def test_out_of_memory_exits_two(workspace, capsys, monkeypatch):
    tmp, cfg = workspace

    def exhausted(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr("bac.cli.profile_task", exhausted)
    assert run_cli("profile", "--config", cfg, "--out", tmp / "p.bacprof") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


@pytest.fixture
def default_workspace(tmp_path):
    """The default config with a synthetic profile and a uniform:10 plan for it."""
    cfg = DenoiserConfig()
    (tmp_path / "toy.cfg").write_text("")  # every key at its default
    blocks = {b: BlockStats(np.linspace(0.9, 0.5, cfg.K - 1), 1.0)
              for b in canonical_blocks(cfg.layers)}
    fileio.write_profile(SimilarityProfile(K=cfg.K, blocks=blocks), tmp_path / "p.bacprof")
    fileio.write_plan(uniform_plan(cfg.K, 10, cfg.layers), tmp_path / "u.bacsched")
    return tmp_path


def _never_build(monkeypatch):
    def never(*_args, **_kwargs):
        raise AssertionError("built the denoiser above the memory cap")

    monkeypatch.setattr("bac.cli.build_denoiser", never)


# argv ({w} is the workspace), full traces, cached plans and similarity
# matrices of each preflight
_PREFLIGHT_CASES = {
    "profile": ("profile --episodes 3 --out {w}/out", 3, (), False),
    "schedule": ("schedule --profile {w}/p.bacprof --budget 10 --anchored --episodes 2 "
                 "--out {w}/out", 2, (), True),
    "run": ("run --sched {w}/u.bacsched --report {w}/out --baseline uniform:20", 1,
            (uniform_plan(100, 10, 8), uniform_plan(100, 20, 8)), False),
    "simmatrix": ("export --what simmatrix --block layers.0.SA --out {w}/out", 1, (), True),
    "beta": ("export --what beta --out {w}/out", 2, (), False),
}


@pytest.mark.parametrize("case", sorted(_PREFLIGHT_CASES))
def test_preflight_refuses_above_the_cap_before_building(default_workspace, capsys,
                                                         monkeypatch, case):
    argv, full_traces, plans, matrices = _PREFLIGHT_CASES[case]
    estimate = memory_estimate(DenoiserConfig(), full_traces, plans, matrices)

    _never_build(monkeypatch)
    monkeypatch.setattr("bac.engine.MEMORY_CAP_BYTES", estimate - 1)
    w = default_workspace
    assert run_cli(*argv.format(w=w).split(), "--config", w / "toy.cfg") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"({estimate} bytes" in err
    assert not (w / "out").exists()


@pytest.mark.parametrize("argv", ["profile", "export --what beta"])
def test_preflight_counts_attention_scores_before_building(tmp_path, capsys, monkeypatch,
                                                           argv):
    """One SA call over 16384 action tokens would hold 8.6 GB of scores and as
    much softmax; the weights and the trace hold about 53 MB.  Never run."""
    cfg, out = tmp_path / "long.cfg", tmp_path / "out"
    cfg.write_text("layers=1\naction_tokens=16384\nK=2\n")

    _never_build(monkeypatch)
    assert run_cli(*argv.split(), "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "attention scores" in err
    assert "above the cap of 2147483648 bytes" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["schedule", "simmatrix"])
def test_preflight_counts_similarity_matrices_before_building(tmp_path, capsys, monkeypatch,
                                                              command):
    """``layers=1, K=20000``: weights and one full trace hold about 0.27 GB, the
    three K x K similarity matrices 9.6 GB.  Never run."""
    cfg, out = tmp_path / "big.cfg", tmp_path / "out"
    cfg.write_text("layers=1\nK=20000\n")
    prof = tmp_path / "p.bacprof"
    blocks = {b: BlockStats(np.full(19_999, 0.9), 1.0) for b in canonical_blocks(1)}
    fileio.write_profile(SimilarityProfile(K=20_000, blocks=blocks), prof)
    argv = {"schedule": f"schedule --profile {prof} --budget 10 --anchored",
            "simmatrix": "export --what simmatrix --block layers.0.FFN"}[command]
    _never_build(monkeypatch)
    assert run_cli(*argv.split(), "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "similarity matrices" in err
    assert "above the cap of 2147483648 bytes" in err
    assert not out.exists()


def test_preflight_counts_ffn_activations_before_building(tmp_path, capsys, monkeypatch):
    """40000 one-layer episodes: traces and scores hold about 1.19 GB, the
    largest FFN call's three (E, T, 4d) arrays 1.97 GB.  Never run."""
    cfg, out = tmp_path / "ffn.cfg", tmp_path / "out"
    cfg.write_text("layers=1\nK=2\n")
    _never_build(monkeypatch)
    assert run_cli("profile", "--config", cfg, "--episodes", 40_000, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "FFN activations" in err
    assert "above the cap of 2147483648 bytes" in err
    assert not out.exists()


_EPISODES_ARGV = {
    "profile": "profile",
    "schedule": "schedule --profile {w}/p.bacprof --budget 10 --anchored",
    "export": "export --what simmatrix --block layers.0.SA",
}


@pytest.mark.parametrize("episodes", [0, -1])
@pytest.mark.parametrize("command", sorted(_EPISODES_ARGV))
def test_nonpositive_episodes_is_a_usage_error(default_workspace, capsys, monkeypatch,
                                               command, episodes):
    w = default_workspace
    _never_build(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        run_cli(*_EPISODES_ARGV[command].format(w=w).split(), "--config", w / "toy.cfg",
                "--episodes", episodes, "--out", w / "out")
    assert exc.value.code == 2
    assert f"--episodes: must be at least 1, got {episodes}" in capsys.readouterr().err
    assert not (w / "out").exists()


def test_preflight_admits_a_command_at_the_cap(workspace, monkeypatch):
    tmp, cfg = workspace
    small = parse_config_text(CONFIG_TEXT)
    monkeypatch.setattr("bac.engine.MEMORY_CAP_BYTES", memory_estimate(small, full_traces=2))
    assert run_cli("profile", "--config", cfg, "--episodes", 2, "--out", tmp / "p.bacprof") == 0
    assert run_cli("profile", "--config", cfg, "--episodes", 3, "--out", tmp / "q.bacprof") == 2


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes:" in out
    for code in ("0  success", "1  verification failure", "2  usage"):
        assert code in out


# `bac verify`'s stdout, byte for byte: every check's name, status and figures
_VERIFY_STDOUT = (
    "dp-vs-brute-force           PASS  max_abs_gap=0.000e+00\n"
    "anchored-dp-vs-brute-force  PASS  max_abs_gap=0.000e+00\n"
    "decomposition-identity      PASS  max_abs_gap=1.776e-15\n"
    "first-order-response        PASS  remainder_ratio_median=4.000; "
    "jacobian_rel_err=1.11e-10; null_response_d2=4.14e-15\n"
    "bubble-union-properties     PASS  plans_checked=20\n"
    "bit-exact-full-plan         PASS  seeds_checked=2\n"
)


def test_verify_command_green(capsys):
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == _VERIFY_STDOUT


def test_module_entry_point_smoke(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "p.bacprof"
    proc = subprocess.run(
        [sys.executable, "-m", "bac", "profile", "--config", str(cfg),
         "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


# SHA-256 of the files the README pipeline writes on the default config
_README_RUN_DIGESTS = {
    "run.report": "0f42016dfbf142e7e38cc0fb0ccaa954cbf2102b23eaafb917791928899916bf",
    "surface.csv": "bc6f180bb076387e45dc25488bcc343b2c3b37512e4a3f7914cc9a8d5f5901da",
    "surface.csv.mask": "a574d6208661d83f24fcac0f79daa08267f33a589f45400b6d2898ed08739f8e",
}


def test_readme_pipeline_writes_pinned_bytes(tmp_path):
    """The README's pipeline, step by step; a change to the forward loop or the
    error pass that moves any bit of the run changes a digest."""
    w = tmp_path
    (w / "toy.cfg").write_text("")  # every key at its default
    for argv in (
        "profile --config {w}/toy.cfg --episodes 3 --seed 42 --out {w}/task.bacprof",
        "schedule --profile {w}/task.bacprof --budget 10 --out {w}/task.bacsched",
        "bubble --profile {w}/task.bacprof --sched {w}/task.bacsched --topk 5 "
        "--out {w}/task_repaired.bacsched --diff {w}/added.txt",
        "run --config {w}/toy.cfg --sched {w}/task_repaired.bacsched --seed 9 "
        "--report {w}/run.report --baseline uniform:10 --surface {w}/surface.csv",
    ):
        assert run_cli(*argv.format(w=w).split()) == 0
    got = {name: hashlib.sha256((w / name).read_bytes()).hexdigest()
           for name in _README_RUN_DIGESTS}
    assert got == _README_RUN_DIGESTS
