"""Run-config file parsing."""

from dataclasses import fields
from typing import get_type_hints

import pytest

from reverb_snn.config import RunConfig, load_config, parse_config_text
from reverb_snn.errors import ParseError


def test_defaults_carry_standard_recipe():
    cfg = RunConfig()
    assert cfg.tau == 0.25
    assert cfg.v_th == 0.0
    assert cfg.lr0 == 0.1
    assert cfg.momentum == 0.9


def test_parse_full_file():
    cfg = parse_config_text(
        """
        # training recipe
        dataset = xor-gaussians
        architecture = mlp-small
        mode = reverb-learnable
        timesteps = 4
        tau = 0.5          # heavier memory
        v_th = 0.25
        epochs = 7
        batch = 32
        lr0 = 0.05
        momentum = 0.8
        seed = 11
        affine = true
        """
    )
    assert cfg.dataset == "xor-gaussians"
    assert cfg.mode == "reverb-learnable"
    assert cfg.timesteps == 4
    assert cfg.tau == 0.5
    assert cfg.epochs == 7
    assert cfg.affine is True
    assert cfg.seed == 11


def test_unknown_key_rejected():
    with pytest.raises(ParseError):
        parse_config_text("learning_rate = 0.1")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_config_text("seed = 1\nseed = 2")


def test_bad_value_rejected():
    with pytest.raises(ParseError):
        parse_config_text("epochs = soon")


@pytest.mark.parametrize("text, message", [
    ("epochs = -2", "epochs must be >= 0, got -2"), ("batch = 0", "batch must be >= 1, got 0"),
    ("seed = -1", "seed must be >= 0, got -1"),
])
def test_training_range_names_the_config_key(text, message):
    with pytest.raises(ParseError) as exc:
        parse_config_text(text)
    assert str(exc.value) == message


def test_bad_mode_rejected():
    with pytest.raises(ParseError):
        parse_config_text("mode = ternary")


def test_bad_architecture_rejected():
    with pytest.raises(ParseError):
        parse_config_text("architecture = resnet50")


def test_layer_spec_architecture_accepted():
    cfg = parse_config_text("architecture = c4 c8s2p0 d16 d8  # two convs, two dense")
    assert cfg.architecture == "c4 c8s2p0 d16 d8"


@pytest.mark.parametrize("spec, token", [
    ("", "no layers"), ("d16 x3", "'x3'"), ("d0", "'d0'"), ("c4 c0s2", "'c0s2'"),
    ("c4s0", "'c4s0'"), ("d8 c4", "'c4'"), ("c4p2s1", "'c4p2s1'"), ("d8s2", "'d8s2'"),
])
def test_bad_layer_spec_names_the_token(spec, token):
    with pytest.raises(ParseError, match=token):
        parse_config_text(f"architecture = {spec}")


def test_missing_equals_rejected():
    with pytest.raises(ParseError):
        parse_config_text("just some words")


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("dataset = two-gaussians\nepochs = 3\n")
    cfg = load_config(p)
    assert cfg.epochs == 3
    assert cfg.dataset == "two-gaussians"


@pytest.mark.parametrize("text", [
    "tau = 0", "tau = 1", "momentum = 0", "lr0 = 0", "epochs = 0", "v_th = -0.5",
    "timesteps = 1", "batch = 1", "seed = 0",
])
def test_boundary_values_accepted(text):
    parse_config_text(text)



@pytest.mark.parametrize("field", [f.name for f in fields(RunConfig)])
def test_every_field_parses_to_its_own_type(field):
    default = getattr(RunConfig(), field)
    cfg = parse_config_text(f"{field} = {default}")
    value = getattr(cfg, field)
    assert type(value) is get_type_hints(RunConfig)[field]
    assert value == default


def test_non_utf8_file_is_parse_error(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_bytes(b"\xff\xfeseed = 1\n")
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        load_config(p)
    assert exc.value.offset == 0
