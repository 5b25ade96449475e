import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bac.config import DenoiserConfig, dump_config, load_config, parse_config_text, write_config
from bac.errors import BacError, ConfigError, FormatError


def test_defaults():
    cfg = DenoiserConfig()
    assert (cfg.layers, cfg.d_model, cfg.heads) == (8, 64, 4)
    assert (cfg.action_tokens, cfg.cond_tokens, cfg.action_dim) == (8, 4, 7)
    assert (cfg.K, cfg.seed) == (100, 7)
    assert cfg.d_ff == 256
    assert cfg.obs_dim == 28


@pytest.mark.parametrize(
    "kwargs",
    [
        {"heads": 3},  # 64 % 3 != 0
        {"K": 1},
        {"layers": 0},
        {"action_dim": 0},
        {"seed": -1},
        {"seed": 1 << 64},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        DenoiserConfig(**kwargs)


def test_parse_full_example():
    text = "layers=8\nd_model=64\nheads=4\naction_tokens=8\ncond_tokens=4\naction_dim=7\nK=100\nseed=7\n"
    assert parse_config_text(text) == DenoiserConfig()


def test_parse_partial_uses_defaults():
    cfg = parse_config_text("K=20\nseed=3\n")
    assert cfg.K == 20 and cfg.seed == 3 and cfg.layers == 8


@pytest.mark.parametrize(
    "text",
    ["bogus=1\n", "K=twenty\n", "K=5\nK=6\n", "no equals sign\n"],
)
def test_parse_rejections(text):
    with pytest.raises(FormatError):
        parse_config_text(text)


def test_parse_invalid_values_raise_config_error():
    with pytest.raises(ConfigError):
        parse_config_text("heads=3\n")


def test_file_round_trip(tmp_path):
    cfg = DenoiserConfig(layers=3, K=17, seed=123456789)
    path = tmp_path / "toy.cfg"
    write_config(cfg, str(path))
    assert load_config(str(path)) == cfg


@st.composite
def configs(draw):
    heads = draw(st.integers(1, 16))
    return DenoiserConfig(
        layers=draw(st.integers(1, 10**6)),
        d_model=heads * draw(st.integers(1, 10**4)),
        heads=heads,
        action_tokens=draw(st.integers(1, 10**4)),
        cond_tokens=draw(st.integers(1, 10**4)),
        action_dim=draw(st.integers(1, 10**4)),
        K=draw(st.integers(2, 10**9)),
        seed=draw(st.integers(0, (1 << 64) - 1)),
    )


@given(configs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_config_round_trips_in_any_layout(cfg, rnd):
    text = dump_config(cfg)
    assert parse_config_text(text) == cfg
    assert dump_config(parse_config_text(text)) == text
    # key order, padding, comments and blank lines do not matter
    lines = [f"  {k} = {v} " for k, _, v in (line.partition("=") for line in text.splitlines())]
    lines += ["", "# a comment", "   "]
    rnd.shuffle(lines)
    assert parse_config_text("\n".join(lines)) == cfg


_config_line = st.one_of(
    st.text(),
    st.builds("{}={}".format,
              st.sampled_from(["layers", "d_model", "heads", "K", "seed", "bogus", ""]),
              st.one_of(st.integers(-10**25, 10**25).map(str), st.text(max_size=6),
                        st.just("9" * 5000))),
)


@given(st.one_of(st.text(), st.lists(_config_line, max_size=10).map("\n".join)))
@settings(max_examples=300, deadline=None)
def test_parse_config_raises_only_bac_errors(text):
    try:
        parse_config_text(text)
    except BacError:
        pass
