import re
import signal
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bac import fileio

DATA = Path(__file__).parent / "data"
from bac.blocks import KINDS, BlockId, canonical_blocks
from bac.bua import SchedulePlan
from bac.config import DenoiserConfig, dump_config, parse_config_text
from bac.denoiser import denoise_full, synth_episode
from bac.engine import FlopsBreakdown, RunReport, run_cached, uniform_plan
from bac.errors import BacError, ConsistencyError, DimensionError, FormatError, read_file
from bac.profiler import BlockStats, SimilarityProfile, profile_task
from bac.rng import derive_seed
from bac.scheduler import Schedule


@pytest.fixture(scope="module")
def profile(small_denoiser_module):
    return profile_task(small_denoiser_module, episodes=2, seed=21)


@pytest.fixture(scope="module")
def small_denoiser_module():
    from bac.config import DenoiserConfig
    from bac.denoiser import build_denoiser

    return build_denoiser(
        DenoiserConfig(layers=2, d_model=16, heads=2, action_tokens=4,
                       cond_tokens=2, action_dim=3, K=12, seed=11)
    )


# -- float formatting -----------------------------------------------------------


def test_fmt_float_round_trip_stable():
    rng = np.random.default_rng(0)
    for v in list(rng.uniform(-1, 1, 200)) + [1.0, 0.0, -0.5, 1e-12, 123456789.0]:
        once = fileio.fmt_float(v)
        twice = fileio.fmt_float(float(once))
        assert once == twice


# -- profile format ----------------------------------------------------------------


def test_profile_round_trip_bytes(profile):
    text = fileio.dump_profile(profile)
    again = fileio.dump_profile(fileio.parse_profile(text))
    assert text == again


def test_profile_header_shape(profile):
    lines = fileio.dump_profile(profile).splitlines()
    assert lines[0] == "BAC-PROFILE v1"
    assert lines[1] == "K=12"
    assert lines[2] == "BLOCKS=6"
    assert lines[3] == "BLOCK layers.0.SA"
    assert lines[4].startswith("S: ") and len(lines[4][3:].split(",")) == 11
    assert lines[5].startswith("L1: ")


def test_profile_parse_values_close(profile):
    parsed = fileio.parse_profile(fileio.dump_profile(profile))
    assert parsed.K == profile.K
    for block, stats in profile.blocks.items():
        got = parsed.blocks[block]
        assert np.allclose(got.s, stats.s, atol=1e-8)
        assert got.ell == pytest.approx(stats.ell, rel=1e-8)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.replace("BAC-PROFILE v1", "BAC-PROFILE v2"),
        lambda t: t.replace("K=12", "K=twelve"),
        lambda t: "\n".join(t.splitlines()[:-3]) + "\n",          # drop last block
        lambda t: t.replace("BLOCK layers.1.FFN", "BLOCK layers.1.XXX"),
        lambda t: t + "EXTRA\n",
        lambda t: t.replace("BLOCKS=6", "BLOCKS=7"),
    ],
)
def test_profile_parse_rejections(profile, mutate):
    text = fileio.dump_profile(profile)
    with pytest.raises(FormatError):
        fileio.parse_profile(mutate(text))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", ["1.0000011", "-1.0000011", "2", "-1e308", "1.7e308", "inf", "nan"])
def test_profile_similarity_outside_cosine_range_named(profile, bad):
    lines = fileio.dump_profile(profile).splitlines()
    lines[7] = "S: " + ",".join([bad] + lines[7][3:].split(",")[1:])
    with pytest.raises(FormatError, match="^line 8: .*cosines in \\[-1, 1\\]"):
        fileio.parse_profile("\n".join(lines) + "\n")


@pytest.mark.parametrize("old, new, want", [
    ("K=12", "K=x", "line 2: malformed header integer"),
    ("K=12", "K=1", "line 2: header values out of range"),
    ("K=12", "k=12", "line 2: expected K=<int>"),
    ("BLOCKS=6", "BLOCKS=x", "line 3: malformed header integer"),
    ("BLOCKS=6", "BLOCKS=4", "line 3: header values out of range"),
    ("BLOCKS=6", "BLOCKS=0", "line 3: header values out of range"),
    ("BLOCKS=6", "blocks=6", "line 3: expected BLOCKS=<int>"),
    ("BLOCK layers.0.SA", "BLOCK layers.0.CA",
     "line 4: expected 'BLOCK layers.0.SA', got 'BLOCK layers.0.CA'"),
    ("S: ", "s: ", "line 5: expected 'S: ...'"),
    ("S: ", "S: x,", "line 5: malformed similarity value"),
    ("L1: ", "l1: ", "line 6: expected 'L1: ...'"),
    ("L1: ", "L1: x", "line 6: malformed L1 value"),
])
def test_profile_header_fault_names_its_line(profile, old, new, want):
    text = fileio.dump_profile(profile).replace(old, new, 1)
    with pytest.raises(FormatError) as err:
        fileio.parse_profile(text)
    assert str(err.value) == want


def test_profile_wrong_similarity_count(profile):
    text = fileio.dump_profile(profile)
    lines = text.splitlines()
    head, rest = lines[4][:3], lines[4][3:].split(",")
    lines[4] = head + ",".join(rest[:-1])
    with pytest.raises(FormatError, match="expected 11"):
        fileio.parse_profile("\n".join(lines) + "\n")


# -- schedule format -----------------------------------------------------------------


def _sample_plan(layers=2, K=12):
    schedules = {
        b: Schedule((0, 2 + b.ordinal % 3, 8 + b.ordinal % 2), K)
        for b in canonical_blocks(layers)
    }
    return SchedulePlan(layers=layers, schedules=schedules)


def test_plan_round_trip_bytes():
    plan = _sample_plan()
    text = fileio.dump_plan(plan)
    again = fileio.dump_plan(fileio.parse_plan(text, K=12))
    assert text == again


def test_plan_line_grammar():
    text = fileio.dump_plan(_sample_plan())
    first = text.splitlines()[0]
    assert first == "layers.0.SA: 0,2,8"


def test_plan_parse_fixture_matches_grammar(tmp_path):
    fixture = DATA / "golden_acs_s10.bacsched"
    plan = fileio.read_plan(str(fixture), K=100)
    assert plan.layers == 8
    assert plan.schedule(BlockId(0, "SA")).steps == (0, 2, 9, 18, 30, 49, 62, 69, 82, 91)
    out = tmp_path / "copy.bacsched"
    fileio.write_plan(plan, str(out))
    assert out.read_text() == fixture.read_text()


@pytest.mark.parametrize(
    "line",
    [
        "layers.0.SA: 1,2,3",        # missing 0
        "layers.0.SA: 0,5,4",        # not ascending
        "layers.0.SA: 0,5,5",        # duplicate
        "layers.0.SA: 0,99",         # out of range for K=12
        "layers.0.XX: 0,5",          # bad kind
        "layers.0.SA 0,5",           # missing colon
        "layers.0.SA: 0,five",       # not an integer
    ],
)
def test_plan_parse_rejections(line):
    base = fileio.dump_plan(_sample_plan()).splitlines()
    base[0] = line
    with pytest.raises(FormatError):
        fileio.parse_plan("\n".join(base) + "\n", K=12)


@pytest.mark.parametrize(
    "steps, reason",
    [("1,2,3", "step 0"), ("0,5,4", "ascending"), ("0,5,5", "ascending"),
     ("0,99", "step 99 outside")],
)
def test_plan_schedule_errors_name_block_and_line(steps, reason):
    lines = fileio.dump_plan(_sample_plan()).splitlines()
    lines[4] = f"layers.1.CA: {steps}"
    with pytest.raises(FormatError, match=f"^line 5: layers.1.CA: .*{reason}"):
        fileio.parse_plan("\n".join(lines) + "\n", K=12)


def test_plan_missing_block_rejected():
    lines = fileio.dump_plan(_sample_plan()).splitlines()
    del lines[3]
    with pytest.raises(FormatError, match="missing blocks"):
        fileio.parse_plan("\n".join(lines) + "\n", K=12)


# -- properties: round trips and malformed text --------------------------------------


@st.composite
def plans(draw):
    layers, K = draw(st.integers(1, 4)), draw(st.integers(1, 30))
    schedules = {}
    for block in canonical_blocks(layers):
        on = draw(st.lists(st.booleans(), min_size=K - 1, max_size=K - 1))
        schedules[block] = Schedule((0, *(t for t, u in enumerate(on, 1) if u)), K)
    return SchedulePlan(layers=layers, schedules=schedules)


_cosine = st.floats(-1.0 - fileio.COSINE_SLACK, 1.0 + fileio.COSINE_SLACK)


@st.composite
def profiles(draw):
    layers, K = draw(st.integers(1, 3)), draw(st.integers(2, 20))
    blocks = {
        block: BlockStats(
            np.array(draw(st.lists(_cosine, min_size=K - 1, max_size=K - 1))),
            draw(st.floats(min_value=0.0, allow_infinity=False)))
        for block in canonical_blocks(layers)
    }
    return SimilarityProfile(K=K, blocks=blocks)


@given(plans())
@settings(max_examples=100, deadline=None)
def test_plan_dump_parse_dump_is_stable(plan):
    text = fileio.dump_plan(plan)
    assert fileio.dump_plan(fileio.parse_plan(text, K=plan.K)) == text


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(profiles())
@settings(max_examples=100, deadline=None)
def test_profile_dump_parse_dump_is_stable(profile):
    text = fileio.dump_profile(profile)
    assert fileio.dump_profile(fileio.parse_profile(text)) == text


_any_int = st.one_of(st.integers(-3, 40), st.integers(-10**15, 10**15))
_block_name = st.builds(
    "layers.{}.{}".format, _any_int, st.sampled_from(KINDS + ("XX", "")))
_number = st.one_of(_any_int.map(str), st.floats().map(repr), st.sampled_from(["", "1e999", "x"]))
_csv = st.lists(_number, max_size=6).map(",".join)
_plan_line = st.one_of(st.text(), st.builds("{}: {}".format, _block_name, _csv))
_profile_line = st.one_of(
    st.text(),
    st.just(fileio.PROFILE_HEADER),
    _number.map("K={}".format),
    _number.map("BLOCKS={}".format),
    _block_name.map("BLOCK {}".format),
    _csv.map("S: {}".format),
    _number.map("L1: {}".format),
)


@st.composite
def edited(draw, valid, line):
    """A valid dump with up to three lines replaced, inserted or deleted."""
    lines = draw(valid).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert" or i == len(lines):
            lines.insert(i, draw(line))
        elif op == "replace":
            lines[i] = draw(line)
        else:
            del lines[i]
    return "\n".join(lines) + "\n"


@given(st.one_of(st.text(), st.lists(_plan_line, max_size=8).map("\n".join),
                 edited(plans().map(fileio.dump_plan), _plan_line)),
       st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_parse_plan_raises_only_bac_errors(text, K):
    try:
        fileio.parse_plan(text, K=K)
    except BacError:
        pass


@given(st.one_of(st.text(), st.lists(_profile_line, max_size=8).map("\n".join),
                 edited(profiles().map(fileio.dump_profile), _profile_line)))
@settings(max_examples=300, deadline=None)
def test_parse_profile_raises_only_bac_errors(text):
    try:
        fileio.parse_profile(text)
    except BacError:
        pass


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the body after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_huge_block_counts_fail_before_building_blocks():
    """A block count far beyond the file fails at once; the time limit stops a
    parser that would build every named block first (about 1e6 per second)."""
    with _time_limit(2.0):
        with pytest.raises(FormatError, match="missing blocks: layers.0.SA, .*, \\.\\.\\.$"):
            fileio.parse_plan("layers.1000000000000.SA: 0\n", K=12)
        with pytest.raises(FormatError, match="line 4: unexpected end of file"):
            fileio.parse_profile(f"{fileio.PROFILE_HEADER}\nK=5\nBLOCKS=3000000000000\n")


def test_added_steps_format():
    added = {BlockId(1, "SA"): (3, 7), BlockId(0, "FFN"): (2,)}
    text = fileio.dump_added_steps(added)
    assert text == "layers.0.FFN: 2\nlayers.1.SA: 3,7\n"


# -- report format ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def report(small_denoiser_module):
    cfg = small_denoiser_module.config
    from bac.denoiser import denoise_full, synth_episode

    init, obs = synth_episode(cfg, 4)
    plan = uniform_plan(cfg.K, 4, cfg.layers)
    _, rep = run_cached(small_denoiser_module, plan, init, obs,
                        reference=denoise_full(small_denoiser_module, init, obs)[1])
    return rep


def test_report_round_trip(report, small_denoiser_module):
    layers = small_denoiser_module.config.layers
    text = fileio.dump_report(report)
    values = fileio.parse_report(text)
    for key in fileio.MANDATORY_REPORT_KEYS:
        assert key in values
    assert values["flops_full"] == report.flops.flops_full
    assert values["decoder_reduction"] == pytest.approx(3.0)  # K=12, S=4
    assert f"err.layers.{layers - 1}.FFN" in values
    # byte-stable under re-serialization of parsed values
    assert fileio.parse_report(text) == fileio.parse_report(text)


def test_report_with_baseline_keys(report):
    text = fileio.dump_report(report, baseline=report)
    values = fileio.parse_report(text)
    assert values["baseline_speedup"] == values["speedup"]


def test_report_missing_mandatory_key():
    with pytest.raises(ConsistencyError):
        fileio.parse_report("flops_full=1\nflops_cached=1\nspeedup=1\n")


def test_report_malformed_line():
    with pytest.raises(FormatError):
        fileio.parse_report("flops_full 1\n")


# the mandatory keys, which the refused lines below precede
_REPORT_TAIL = "flops_full=1\nflops_cached=1\nspeedup=1\nfinal_action_l2=0\n"


@pytest.mark.parametrize("line, want", [
    ("spedup=2", "line 1: unknown key 'spedup'"),
    ("baseline_spedup=2", "line 1: unknown key 'baseline_spedup'"),
    ("baseline_baseline_speedup=2", "line 1: unknown key 'baseline_baseline_speedup'"),
    ("err.layers.1_0.SA=0.5", "line 1: bad layer index in 'layers.1_0.SA'"),
    ("baseline_err.layers.0.XA=0.5", "line 1: bad block name 'layers.0.XA'"),
    ("err=0.5", "line 1: unknown key 'err'"),
    ("err.layers.0.SA=1\nerr.layers.00.SA=2", "line 2: duplicate key 'err.layers.0.SA'"),
    ("baseline_err.layers.1.CA=1\nbaseline_err.layers.01.CA=2",
     "line 2: duplicate key 'baseline_err.layers.1.CA'"),
])
def test_report_refuses_a_key_no_writer_prints(tmp_path, line, want):
    text = f"{line}\n{_REPORT_TAIL}"
    with pytest.raises(FormatError) as err:
        fileio.parse_report(text)
    assert str(err.value) == want
    path = tmp_path / "run.report"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_file(str(path), fileio.parse_report)
    assert str(err.value) == f"{path}: {want}"


_ONE_LAYER_ERRS = "err.layers.0.SA=0\nerr.layers.0.CA=0\nerr.layers.0.FFN=0\n"


@pytest.mark.parametrize("text, first", [
    ("err.layers.9.FFN=1\n" + _REPORT_TAIL, "err.layers.0.SA"),
    ("err.layers.0.SA=1\nerr.layers.0.FFN=1\n" + _REPORT_TAIL, "err.layers.0.CA"),
    (_ONE_LAYER_ERRS + "err.layers.1.CA=1\n" + _REPORT_TAIL, "err.layers.1.SA"),
    ("baseline_speedup=2\n" + _REPORT_TAIL, "baseline_flops_full"),
    ("baseline_err.layers.0.SA=1\n" + _REPORT_TAIL, "baseline_flops_full"),
    (_REPORT_TAIL + "".join(f"baseline_{line}\n" for line in _REPORT_TAIL.splitlines())
     + "baseline_err.layers.0.CA=1\n", "baseline_err.layers.0.SA"),
], ids=["lone-block", "gap-in-layer", "gap-in-last-layer", "baseline-key-alone",
        "baseline-block-alone", "baseline-gap"])
def test_report_refuses_an_incomplete_section(text, first):
    with pytest.raises(ConsistencyError) as err:
        fileio.parse_report(text)
    assert str(err.value) == f"report misses key {first}"


_INT_REPORT_KEYS = ("flops_full", "flops_cached", "decoder_flops_full", "decoder_flops_cached")


@st.composite
def reports(draw):
    """A (report, baseline) pair with arbitrary finite figures."""
    layers, K = draw(st.integers(1, 3)), draw(st.integers(2, 8))
    count = st.integers(0, 2**53)
    real = st.floats(0.0, 1e300)

    def one():
        flops = FlopsBreakdown(draw(count), draw(count), draw(real), draw(count), draw(count),
                               draw(real), draw(count))
        errors = np.array(draw(st.lists(st.floats(0.0, 1e6), min_size=3 * layers * K,
                                        max_size=3 * layers * K))).reshape(3 * layers, K)
        none = np.zeros((3 * layers, K), dtype=bool)
        report = RunReport(none, draw(real), flops, run=None, reference=None)
        object.__setattr__(report, "errors", errors)  # fills the cache: no trace behind it
        return report

    return one(), one() if draw(st.booleans()) else None


@given(reports())
@settings(max_examples=100, deadline=None)
def test_report_dump_parse_is_stable(case):
    report, baseline = case
    text = fileio.dump_report(report, baseline)
    values = fileio.parse_report(text)
    lines = text.splitlines()
    assert list(values) == [line.partition("=")[0] for line in lines]
    for line in lines:
        key, _, val = line.partition("=")
        v = values[key]
        assert val == (str(int(v)) if key.removeprefix("baseline_") in _INT_REPORT_KEYS
                       else fileio.fmt_float(v))


_report_line = st.one_of(
    st.text(),
    st.builds("{}={}".format,
              st.sampled_from(fileio.MANDATORY_REPORT_KEYS + ("err.layers.0.SA", "", "x=y")),
              _number),
)


@given(st.one_of(st.text(), st.lists(_report_line, max_size=8).map("\n".join),
                 edited(reports().map(lambda c: fileio.dump_report(*c)), _report_line)))
@settings(max_examples=300, deadline=None)
def test_parse_report_raises_only_bac_errors(text):
    try:
        fileio.parse_report(text)
    except BacError:
        pass


# -- one grammar: layout and numbers ------------------------------------------------------


def _relaid(text, sep, rnd):
    """``text`` with padding around ``sep`` and at both ends of each line, and
    blank lines and ``#`` comments (some holding ``sep``) between its lines."""
    lines = []
    for line in text.splitlines():
        key, _, value = line.partition(sep)
        lines += rnd.choice([[], [""], ["# a=b: c"], ["   ", "  # comment"]])
        lines.append(f"  {key} {sep}  {value}\t")
    return "\n".join(lines + rnd.choice([[], ["", "# end"]]))


@given(plans(), reports(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_plan_and_report_read_comments_blanks_and_padding(plan, case, rnd):
    text = fileio.dump_plan(plan)
    assert fileio.dump_plan(fileio.parse_plan(_relaid(text, ":", rnd), K=plan.K)) == text
    text = fileio.dump_report(*case)
    assert fileio.parse_report(_relaid(text, "=", rnd)) == fileio.parse_report(text)


def _profile_k4():
    """A one-layer profile of horizon 4: ``S: 0.25,0.5,0.75`` and ``L1: 15``."""
    stats = BlockStats(np.array([0.25, 0.5, 0.75]), 15.0)
    blocks = dict.fromkeys(canonical_blocks(1), stats)
    return fileio.dump_profile(SimilarityProfile(K=4, blocks=blocks))


_PLAN_K12 = fileio.dump_plan(_sample_plan())  # `layers.0.SA: 0,2,8` / `layers.0.CA: 0,3,9` / ...
_READERS = {
    "config": parse_config_text,
    "profile": fileio.parse_profile,
    "plan": partial(fileio.parse_plan, K=12),
    "report": fileio.parse_report,
}


# each text reads as valid with Python's `int` and `float`, which also take `_`
# between digits and non-ASCII digits; no writer prints either
@pytest.mark.parametrize("kind, text, want", [
    ("config", "layers=2\nK=1_0\n", "line 2: malformed value for 'K'"),
    ("config", "layers=\u0663\n", "line 1: malformed value for 'layers'"),
    ("profile", _profile_k4().replace("K=4", "K=0_4"), "line 2: malformed header integer"),
    ("profile", _profile_k4().replace("0.25", "0.2_5", 1), "line 5: malformed similarity value"),
    ("profile", _profile_k4().replace("L1: 15", "L1: 1_5", 1), "line 6: malformed L1 value"),
    ("plan", _PLAN_K12.replace("0,2,8", "0,2,0_8", 1),
     "line 1: malformed value for 'layers.0.SA'"),
    ("plan", _PLAN_K12.replace("0,2,8", "0,2,\u0664", 1),
     "line 1: malformed value for 'layers.0.SA'"),
    ("plan", _PLAN_K12.replace("layers.0.CA", "layers.0_0.CA"),
     "line 2: bad layer index in 'layers.0_0.CA'"),
    ("report", "flops_full=1_000\nflops_cached=1\nspeedup=1\nfinal_action_l2=0\n",
     "line 1: malformed value for 'flops_full'"),
])
def test_numbers_are_ascii_without_underscores(tmp_path, kind, text, want):
    parse = _READERS[kind]
    with pytest.raises(FormatError) as err:
        parse(text)
    assert str(err.value) == want
    path = tmp_path / kind
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_file(str(path), parse)
    assert str(err.value) == f"{path}: {want}"


_configs = st.builds(DenoiserConfig, layers=st.integers(1, 10**6), K=st.integers(2, 10**9),
                     seed=st.integers(0, (1 << 64) - 1))


@given(st.one_of(_configs.map(lambda c: (dump_config(c), parse_config_text)),
                 profiles().map(lambda p: (fileio.dump_profile(p), fileio.parse_profile)),
                 plans().map(lambda p: (fileio.dump_plan(p), partial(fileio.parse_plan, K=p.K))),
                 reports().map(lambda c: (fileio.dump_report(*c), fileio.parse_report))),
       st.data())
@settings(max_examples=200, deadline=None)
def test_an_underscore_in_a_number_names_its_line(dumped, data):
    text, parse = dumped
    between_digits = [m.start() for m in re.finditer(r"(?<=\d)(?=\d)", text)]
    assume(between_digits)
    at = data.draw(st.sampled_from(between_digits))
    with pytest.raises(FormatError) as err:
        parse(text[:at] + "_" + text[at:])
    assert err.value.line == text.count("\n", 0, at) + 1


# -- CSV dumps ------------------------------------------------------------------------------


def test_surface_csv(tmp_path, report, small_denoiser_module):
    layers = small_denoiser_module.config.layers
    path = tmp_path / "surface.csv"
    fileio.write_surface_csv(report, str(path))
    rows = path.read_text().splitlines()
    assert rows[0].startswith("block,0,1,")
    assert len(rows) == 1 + 3 * layers
    assert rows[1].split(",")[0] == "layers.0.SA"
    mask_rows = (tmp_path / "surface.csv.mask").read_text().splitlines()
    assert len(mask_rows) == len(rows)


def test_writers_refuse_a_batched_report_by_name_before_opening_a_file(
        tmp_path, report, small_denoiser_module):
    """A report file holds one run: a 3-episode report, written alone or as
    the baseline, raises ``DimensionError`` naming its errors shape, and no
    file is created."""
    cfg = small_denoiser_module.config
    runs = [synth_episode(cfg, derive_seed(5, e)) for e in range(3)]
    inits, obss = (np.stack(arrays) for arrays in zip(*runs))
    _, batched = run_cached(small_denoiser_module, uniform_plan(cfg.K, 4, cfg.layers), inits,
                            obss, reference=denoise_full(small_denoiser_module, inits, obss)[1])
    shape = re.escape(str(batched.errors.shape))
    with pytest.raises(DimensionError, match=shape):
        fileio.write_report(batched, str(tmp_path / "run.report"))
    with pytest.raises(DimensionError, match=shape):
        fileio.write_report(report, str(tmp_path / "run.report"), baseline=batched)
    with pytest.raises(DimensionError, match=shape):
        fileio.write_surface_csv(batched, str(tmp_path / "surface.csv"))
    assert list(tmp_path.iterdir()) == []


def test_writers_refuse_a_batched_report_without_its_error_pass(
        tmp_path, monkeypatch, small_denoiser_module):
    """The refusal reads the report's episode axis, not its errors, so no
    error pass runs for a report that is not written."""
    cfg = small_denoiser_module.config
    runs = [synth_episode(cfg, derive_seed(6, e)) for e in range(2)]
    inits, obss = (np.stack(arrays) for arrays in zip(*runs))
    _, batched = run_cached(small_denoiser_module, uniform_plan(cfg.K, 4, cfg.layers), inits,
                            obss, reference=denoise_full(small_denoiser_module, inits, obss)[1])

    def never(*_args):
        raise AssertionError("ran the error pass of a refused report")

    monkeypatch.setattr("bac.engine.block_errors", never)
    with pytest.raises(DimensionError, match=re.escape(f"(2, {3 * cfg.layers}, {cfg.K})")):
        fileio.write_report(batched, str(tmp_path / "run.report"))
    with pytest.raises(DimensionError):
        fileio.write_surface_csv(batched, str(tmp_path / "surface.csv"))
    assert list(tmp_path.iterdir()) == []


_WRITERS = {
    "report": lambda report, path: fileio.write_report(report, path, baseline=report),
    "surface": lambda report, path: fileio.write_surface_csv(report, path),
    "matrix": lambda report, path: fileio.write_matrix_csv(np.eye(2), path),
    "curve": lambda report, path: fileio.write_curve_csv([1.0], [2.0], path, ("x", "y")),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_writer_that_fails_to_format_leaves_no_file(tmp_path, monkeypatch, report, writer):
    """Each writer builds its whole text before it opens a file."""
    def broken(_value):
        raise RuntimeError("fmt_float failed")

    monkeypatch.setattr(fileio, "fmt_float", broken)
    with pytest.raises(RuntimeError, match="fmt_float failed"):
        _WRITERS[writer](report, str(tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []


def test_matrix_and_curve_csv(tmp_path):
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    fileio.write_matrix_csv(m, str(tmp_path / "m.csv"))
    assert (tmp_path / "m.csv").read_text() == "1,0.5\n0.5,1\n"
    fileio.write_curve_csv([1e-2, 5e-3], [4.0, 1.0], str(tmp_path / "c.csv"), ("eps", "r"))
    assert (tmp_path / "c.csv").read_text() == "eps,r\n0.01,4\n0.005,1\n"
