import numpy as np
import pytest

from bac.config import DenoiserConfig
from bac.denoiser import build_denoiser, denoise_full, synth_episode
from bac.rng import derive_seed


@pytest.fixture(scope="session")
def small_config():
    return DenoiserConfig(
        layers=2,
        d_model=16,
        heads=2,
        action_tokens=4,
        cond_tokens=2,
        action_dim=3,
        K=12,
        seed=11,
    )


@pytest.fixture(scope="session")
def small_denoiser(small_config):
    return build_denoiser(small_config)


@pytest.fixture(scope="session")
def small_episode(small_config):
    return synth_episode(small_config, derive_seed(99, 0))


@pytest.fixture(scope="session")
def small_trace(small_denoiser, small_episode):
    init, obs = small_episode
    final, trace = denoise_full(small_denoiser, init, obs)
    return final, trace


@pytest.fixture(scope="session")
def default_config():
    return DenoiserConfig()


@pytest.fixture(scope="session")
def default_denoiser(default_config):
    return build_denoiser(default_config)


def full_trace(residuals, actions):
    """The FeatureTrace of a pass in which every block updated at every step;
    ``residuals`` is (3L, K, T, d_model), with any leading axes.  No inputs
    lie behind it, so its digest is empty and fits no run."""
    from bac.denoiser import FeatureTrace

    *lead, n, K, T, d = residuals.shape
    return FeatureTrace(residuals.reshape(*lead, n * K, T, d), np.arange(n * K).reshape(n, K),
                        actions, inputs=b"")


def make_trace(residual_fn, K, blocks=1, tokens=2, width=3):
    """Synthetic FeatureTrace whose block-0 residuals follow residual_fn(t)."""
    residuals = np.empty((3 * blocks, K, tokens, width))
    for ordinal in range(3 * blocks):
        for t in range(K):
            residuals[ordinal, t] = residual_fn(t)
    actions = np.zeros((K, tokens, width))
    return full_trace(residuals, actions)
