import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bac.blocks import BlockId
from bac.denoiser import denoise_full, synth_episode
from bac.errors import DegenerateFeatureError, RangeError
from bac.fileio import dump_profile
from bac.profiler import (
    caching_error_magnitude,
    consecutive_similarities,
    profile_task,
    similarity_matrices,
    similarity_matrix,
)
from bac.rng import derive_seed

from conftest import full_trace, make_trace

B0 = BlockId(0, "SA")


def _cosine(a, b):
    """Cosine of two feature matrices flattened row-major: the test oracle."""
    a, b = a.ravel(), b.ravel()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def _stacked(trace, copies):
    """The trace repeated along a leading episode axis."""
    return full_trace(np.stack([trace.residuals] * copies), np.stack([trace.actions] * copies))


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


def test_cosine_hand_value():
    # features are flattened row-major before the cosine
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[1.0, 1.0], [0.0, 0.0]])
    trace = make_trace(lambda t: a if t == 0 else b, K=2, width=2)
    s = consecutive_similarities(trace, B0)
    assert s[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_cosine_bounded(seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(4, 3, 4))
    trace = make_trace(lambda t: feats[t], K=4, tokens=3, width=4)
    s = consecutive_similarities(trace, B0)
    m = similarity_matrix(trace, B0)
    assert np.all(np.abs(s) <= 1.0 + 1e-12) and np.all(np.abs(m) <= 1.0 + 1e-12)


def test_matches_per_pair_recomputation(small_trace):
    _, trace = small_trace
    for block in (BlockId(0, "CA"), BlockId(1, "FFN")):
        s = consecutive_similarities(trace, block)
        feats = trace.residuals[block.ordinal]
        for t in range(1, feats.shape[0]):
            assert s[t - 1] == pytest.approx(
                _cosine(feats[t], feats[t - 1]), abs=1e-12
            )


def test_degenerate_step_named_in_error():
    base = np.ones((2, 3))
    trace = make_trace(lambda t: np.zeros((2, 3)) if t == 2 else base, K=4)
    with pytest.raises(DegenerateFeatureError, match="step 2"):
        consecutive_similarities(trace, B0)
    several = _stacked(trace, 3)
    several.residuals[0, B0.ordinal, 2] = base  # episode 0 is sound, 1 and 2 are not
    with pytest.raises(DegenerateFeatureError, match="at step 2 of episode 1"):
        consecutive_similarities(several, B0)


def test_episode_mean_of_identical_traces_is_single(small_trace):
    # a batch of one equals the unbatched trace exactly; larger batches to rounding
    _, trace = small_trace
    for copies, atol in ((1, 0.0), (3, 1e-15)):
        several = _stacked(trace, copies)
        for block in (B0, BlockId(1, "FFN")):
            np.testing.assert_allclose(consecutive_similarities(several, block),
                                       consecutive_similarities(trace, block), rtol=0, atol=atol)
            np.testing.assert_allclose(similarity_matrix(several, block),
                                       similarity_matrix(trace, block), rtol=0, atol=atol)
            assert caching_error_magnitude(several, block) == pytest.approx(
                caching_error_magnitude(trace, block), rel=atol, abs=0)


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
