"""Denoiser architecture configuration and its key=value file format."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError, FormatError, parse_int, read_entries, read_file, write_file

_MAX_SEED = (1 << 64) - 1


@dataclass(frozen=True)
class DenoiserConfig:
    """Architecture hyperparameters of the toy decoder.

    K counts denoising steps in execution order t = 0..K-1 (t = 0 is the first
    step applied to the initial noise).
    """

    layers: int = 8
    d_model: int = 64
    heads: int = 4
    action_tokens: int = 8
    cond_tokens: int = 4
    action_dim: int = 7
    K: int = 100
    seed: int = 7

    def __post_init__(self):
        positive = (
            ("layers", self.layers),
            ("d_model", self.d_model),
            ("heads", self.heads),
            ("action_tokens", self.action_tokens),
            ("cond_tokens", self.cond_tokens),
            ("action_dim", self.action_dim),
        )
        for name, value in positive:
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.K < 2:
            raise ConfigError(f"K must be at least 2, got {self.K}")
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"heads ({self.heads}) must divide d_model ({self.d_model})"
            )
        if not 0 <= self.seed <= _MAX_SEED:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model

    @property
    def obs_dim(self) -> int:
        """Length of the raw synthetic observation vector."""
        return self.cond_tokens * self.action_dim


_FIELD_NAMES = tuple(f.name for f in fields(DenoiserConfig))


def parse_config_text(text: str) -> DenoiserConfig:
    """Parse ``key=value`` lines (the grammar of ``errors.read_entries``);
    an unknown key is an error and a missing one takes its default above."""

    def value(key: str, val: str) -> int:
        if key not in _FIELD_NAMES:
            raise FormatError(f"unknown key {key!r}")
        return parse_int(val)

    return DenoiserConfig(**read_entries(text, "=", value, "key=value"))


def load_config(path: str) -> DenoiserConfig:
    return read_file(path, parse_config_text)


def dump_config(config: DenoiserConfig) -> str:
    return "".join(f"{name}={getattr(config, name)}\n" for name in _FIELD_NAMES)


def write_config(config: DenoiserConfig, path: str) -> None:
    write_file(path, dump_config(config))
