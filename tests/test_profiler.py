import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bac.blocks import BlockId
from bac.denoiser import build_denoiser, denoise_full, synth_episode
from bac.errors import DegenerateFeatureError, DimensionError, RangeError
from bac.fileio import dump_profile
from bac.profiler import (
    caching_error_magnitude,
    consecutive_similarities,
    cosine,
    interval_similarity,
    profile_task,
    similarity_matrices,
    similarity_matrix,
    BlockStats,
    SimilarityProfile,
)
from bac.rng import derive_seed

from conftest import make_trace

B0 = BlockId(0, "SA")


# -- cosine -------------------------------------------------------------------


def test_cosine_identity_and_antipodal():
    v = np.array([[1.0, 2.0], [3.0, -1.0]])
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)
    assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_hand_value():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert cosine(a, b) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_cosine_errors():
    with pytest.raises(DimensionError):
        cosine(np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(DegenerateFeatureError):
        cosine(np.zeros((2, 2)), np.ones((2, 2)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_cosine_bounded(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 3, 4))
    assert -1.0 - 1e-12 <= cosine(a, b) <= 1.0 + 1e-12


# -- consecutive similarities ---------------------------------------------------


def test_constant_trace_similarity_one():
    trace = make_trace(lambda t: np.full((2, 3), 1.5), K=6)
    s = consecutive_similarities(trace, B0)
    assert np.allclose(s, 1.0, atol=1e-12)


def test_antipodal_two_step_trace():
    base = np.arange(6.0).reshape(2, 3) + 1.0
    trace = make_trace(lambda t: base if t == 0 else -base, K=2)
    s = consecutive_similarities(trace, B0)
    assert s.shape == (1,)
    assert s[0] == pytest.approx(-1.0, abs=1e-12)


def test_matches_per_pair_recomputation(small_trace):
    _, trace = small_trace
    for block in (BlockId(0, "CA"), BlockId(1, "FFN")):
        s = consecutive_similarities(trace, block)
        feats = trace.block(block)
        for t in range(1, feats.shape[0]):
            assert s[t - 1] == pytest.approx(
                cosine(feats[t], feats[t - 1]), abs=1e-12
            )


def test_degenerate_step_named_in_error():
    base = np.ones((2, 3))
    trace = make_trace(lambda t: np.zeros((2, 3)) if t == 2 else base, K=4)
    with pytest.raises(DegenerateFeatureError, match="step 2"):
        consecutive_similarities(trace, B0)


def test_episode_mean_of_identical_traces_is_single(small_trace):
    _, trace = small_trace
    one = consecutive_similarities(trace, B0)
    several = consecutive_similarities([trace, trace, trace], B0)
    np.testing.assert_allclose(several, one, rtol=0, atol=1e-15)


# -- interval similarity ---------------------------------------------------------


def _profile_from_s(s):
    stats = BlockStats.from_similarities(np.asarray(s, dtype=float), ell=0.0)
    return SimilarityProfile(K=len(s) + 1, episode_count=1, blocks={B0: stats})


def test_interval_empty_and_full():
    prof = _profile_from_s([0.9, 0.1, 0.8, 0.2])
    assert interval_similarity(prof, B0, 3, 3) == 0.0
    assert interval_similarity(prof, B0, 3, 1) == 0.0
    assert interval_similarity(prof, B0, 0, 4) == pytest.approx(2.0, abs=1e-12)


def test_interval_hand_value():
    prof = _profile_from_s([0.9, 0.1, 0.8, 0.2])
    assert interval_similarity(prof, B0, 1, 3) == pytest.approx(0.9, abs=1e-12)


def test_interval_range_errors():
    prof = _profile_from_s([0.5, 0.5])
    with pytest.raises(RangeError):
        interval_similarity(prof, B0, 0, 3)
    with pytest.raises(RangeError):
        interval_similarity(prof, B0, -1, 1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_prefix_sum_fidelity(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 30))
    s = rng.uniform(-1, 1, K - 1)
    prof = _profile_from_s(s)
    for _ in range(10):
        i = int(rng.integers(0, K))
        j = int(rng.integers(0, K))
        direct = float(np.sum(s[i:j])) if j > i else 0.0
        assert interval_similarity(prof, B0, i, j) == pytest.approx(direct, abs=1e-12)


# -- similarity matrix ------------------------------------------------------------


def test_matrix_constant_trace_all_ones():
    trace = make_trace(lambda t: np.full((2, 3), 2.0), K=5)
    m = similarity_matrix(trace, B0)
    assert np.allclose(m, 1.0, atol=1e-12)


def test_matrix_symmetric_unit_diagonal(small_trace):
    _, trace = small_trace
    m = similarity_matrix(trace, BlockId(1, "SA"))
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 1.0)


def test_matrix_first_offdiagonal_matches_s(small_trace):
    _, trace = small_trace
    block = BlockId(0, "FFN")
    m = similarity_matrix(trace, block)
    s = consecutive_similarities(trace, block)
    for t in range(1, m.shape[0]):
        assert m[t, t - 1] == pytest.approx(s[t - 1], abs=1e-12)


# -- caching error magnitude -------------------------------------------------------


def test_ell_zero_for_constant_trace():
    trace = make_trace(lambda t: np.full((2, 3), 4.0), K=5)
    assert caching_error_magnitude(trace, B0) == 0.0


def test_ell_two_step_formula():
    v = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]])
    w = np.array([[2.0, 2.0, 1.0], [4.0, -3.0, 1.0]])
    trace = make_trace(lambda t: v if t == 0 else w, K=2)
    want = np.abs(v - w).sum() / (2 * 6)  # ordered pairs / K^2 / elements
    assert caching_error_magnitude(trace, B0) == pytest.approx(want, rel=1e-12)


def test_ell_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(5, 2, 3))
    trace = make_trace(lambda t: feats[t], K=5)
    flat = feats.reshape(5, -1)
    oracle = sum(
        float(np.abs(flat[t] - flat[u]).sum()) for t in range(5) for u in range(5)
    ) / 25 / 6
    assert caching_error_magnitude(trace, B0) == pytest.approx(oracle, abs=1e-10)


def test_ell_nonnegative_and_positive_for_drifting_features(small_trace):
    _, trace = small_trace
    for block in (B0, BlockId(1, "CA")):
        assert caching_error_magnitude(trace, block) > 0.0


# -- profile_task -------------------------------------------------------------------


def test_profile_single_episode_equals_trace_stats(small_denoiser, small_config):
    prof = profile_task(small_denoiser, episodes=1, seed=5)
    init, obs = synth_episode(small_config, derive_seed(5, 0))
    _, trace = denoise_full(small_denoiser, init, obs)
    for block, stats in prof.blocks.items():
        assert np.array_equal(stats.s, consecutive_similarities(trace, block))
        assert stats.ell == pytest.approx(
            caching_error_magnitude(trace, block), rel=1e-12
        )


def test_profile_average_within_per_episode_envelope(small_denoiser, small_config):
    prof = profile_task(small_denoiser, episodes=3, seed=17)
    per_episode = []
    for e in range(3):
        init, obs = synth_episode(small_config, derive_seed(17, e))
        _, trace = denoise_full(small_denoiser, init, obs)
        per_episode.append(
            consecutive_similarities(trace, B0)
        )
    stacked = np.stack(per_episode)
    avg = prof.blocks[B0].s
    assert np.all(avg >= stacked.min(axis=0) - 1e-12)
    assert np.all(avg <= stacked.max(axis=0) + 1e-12)
    assert prof.episode_count == 3


def test_profile_requires_episode(small_denoiser):
    with pytest.raises(RangeError):
        profile_task(small_denoiser, episodes=0, seed=1)


def test_readme_profile_bytes_pinned(default_denoiser):
    # the README's `bac profile --episodes 3 --seed 42`, one batched pass
    text = dump_profile(profile_task(default_denoiser, 3, 42))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8bf25f3761255d56ce2d86ff81db21ff3368e1b1c0d3700a0c498377fc69a2bc")


def test_batched_similarity_matrices_equal_per_episode_mean(small_denoiser, small_config):
    got = similarity_matrices(small_denoiser, 3, 8)
    traces = [denoise_full(small_denoiser, *synth_episode(small_config, derive_seed(8, e)))[1]
              for e in range(3)]
    for block, m in got.items():
        per_episode = [similarity_matrix(tr, block) for tr in traces]
        assert np.array_equal(m, sum(per_episode[1:], per_episode[0]) / 3)
