"""Configuration validation, file parsing, and derived geometry."""
import math
from dataclasses import replace
from pathlib import Path

import pytest

from fdcap import (ConfigError, GammaParams, NetworkConfig, config_values,
                   load_config, parse_config, validate)
from conftest import make_cfg

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

GOOD_TEXT = """\
# dense small-cell scenario
lambda    = 5e-5      # BS intensity, 1/m^2
p_bs      = 1.0
eta       = 4
n0        = 1e-9
bandwidth = 180e3
p_bar     = 0.2
m_int     = 1
omega_int = 1
m_sig     = 2
omega_sig = 1.6e-15
"""


# ---------------------------------------------------------------- validation

def test_validate_accepts_baseline(micro):
    assert validate(micro) is micro


def test_eta_2_is_a_divergence_error(micro):
    with pytest.raises(ConfigError) as err:
        validate(replace(micro, eta=2.0))
    assert err.value.field == "eta"
    assert "diverges" in str(err.value)


def test_eta_below_2_rejected(micro):
    with pytest.raises(ConfigError):
        validate(replace(micro, eta=1.5))


def test_lambda_zero_rejected(micro):
    with pytest.raises(ConfigError) as err:
        validate(replace(micro, lam=0.0))
    assert err.value.field == "lambda"


def test_p_bs_zero_is_legal(micro):
    # a silent downlink is a degenerate but meaningful scenario
    validate(replace(micro, p_bs=0.0))
    with pytest.raises(ConfigError):
        validate(replace(micro, p_bs=-1.0))


@pytest.mark.parametrize("field,value,expect", [
    ("n0", 0.0, "n0"),
    ("bandwidth", -180e3, "bandwidth"),
    ("p_bar", 0.0, "p_bar"),
])
def test_positive_fields(micro, field, value, expect):
    with pytest.raises(ConfigError) as err:
        validate(replace(micro, **{field: value}))
    assert err.value.field == expect


@pytest.mark.parametrize("key", ["lambda", "p_bs", "eta", "n0", "bandwidth",
                                 "p_bar", "m_int", "omega_int", "m_sig",
                                 "omega_sig"])
def test_infinite_values_are_rejected_by_name(key):
    text = "\n".join(f"{line.split('=')[0].strip()} = inf"
                     if line.split("=")[0].strip() == key else line
                     for line in GOOD_TEXT.splitlines())
    assert text != GOOD_TEXT
    with pytest.raises(ConfigError, match="must be finite") as err:
        parse_config(text)
    assert err.value.field == key


def test_gamma_param_errors_name_the_config_key(micro):
    with pytest.raises(ConfigError) as err:
        validate(replace(micro, fading_interferer=GammaParams(0.0, 1.0)))
    assert err.value.field == "m_int"
    with pytest.raises(ConfigError) as err:
        validate(replace(micro, fading_signal=GammaParams(2.0, -1.0)))
    assert err.value.field == "omega_sig"


def test_first_violation_wins(micro):
    # lambda is checked before eta
    with pytest.raises(ConfigError) as err:
        validate(replace(micro, lam=-1.0, eta=2.0))
    assert err.value.field == "lambda"


def test_construction_validates(micro):
    # a config that violates its domain cannot be built, directly or by
    # replace, so no layer below needs to check it again
    with pytest.raises(ConfigError) as err:
        NetworkConfig(lam=5e-5, p_bs=1.0, eta=4.0, n0=1e-9, bandwidth=180e3,
                      p_bar=0.0, fading_interferer=GammaParams(1.0, 1.0),
                      fading_signal=GammaParams(2.0, 1.6e-15))
    assert err.value.field == "p_bar"
    with pytest.raises(ConfigError) as err:
        replace(micro, eta=2.0)
    assert err.value.field == "eta"


def test_gamma_scale_is_mean_over_shape():
    assert GammaParams(shape=2.0, mean=3.0).scale == 1.5
    assert GammaParams(shape=0.5, mean=1.0).scale == 2.0


# ------------------------------------------------------------------ geometry

def test_unit_intensity_geometry():
    geo = make_cfg(lam=1.0 / math.pi)
    assert geo.r0 == pytest.approx(1.0, rel=1e-15)


def test_micro_geometry_values(micro):
    geo = micro
    assert geo.r0 == pytest.approx(79.78845608028655, rel=1e-12)
    assert geo.rbar == pytest.approx(70.71067811865476, rel=1e-12)
    assert geo.rbar < geo.r0


def test_macro_r0(macro):
    # the formula gives ~252.3 m at 5 BS/km^2 (not the 300 m sometimes quoted
    # for this regime; the validation CLI accepts an explicit radius override
    # so both can be exercised)
    geo = macro
    assert geo.r0 == pytest.approx(252.31325220201604, rel=1e-12)


@pytest.mark.parametrize("lam", [1e-6, 5e-6, 5e-5, 1e-3, 0.25])
def test_cell_area_identity(lam):
    geo = make_cfg(lam=lam)
    assert math.pi * lam * geo.r0 ** 2 == pytest.approx(1.0, rel=1e-14)
    assert geo.rbar / geo.r0 == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)


def test_geometry_scaling():
    g1 = make_cfg(lam=2e-5)
    g4 = make_cfg(lam=8e-5)
    assert g4.r0 == pytest.approx(g1.r0 / 2.0, rel=1e-14)
    assert g4.rbar == pytest.approx(g1.rbar / 2.0, rel=1e-14)


def test_geometry_type_is_plain_value(micro):
    # r0 and rbar are plain floats derived from lambda, so a replaced
    # config carries its own geometry
    moved = replace(micro, lam=4.0 * micro.lam)
    assert type(micro.r0) is float and type(micro.rbar) is float
    assert (moved.r0, moved.rbar) == (micro.r0 / 2.0, micro.rbar / 2.0)


# ------------------------------------------------------------------- parsing

def test_parse_round_trip():
    cfg = parse_config(GOOD_TEXT)
    assert cfg.lam == 5e-5
    assert cfg.p_bs == 1.0
    assert cfg.eta == 4.0
    assert cfg.n0 == 1e-9
    assert cfg.bandwidth == 180e3
    assert cfg.p_bar == 0.2
    assert cfg.fading_interferer == GammaParams(1.0, 1.0)
    assert cfg.fading_signal == GammaParams(2.0, 1.6e-15)


def test_config_values_inverts_parse_config(macro):
    # every key in the file's order, and its repr parses back to the config
    values = config_values(macro)
    assert list(values) == ["lambda", "p_bs", "eta", "n0", "bandwidth",
                            "p_bar", "m_int", "omega_int", "m_sig",
                            "omega_sig"]
    text = "".join(f"{key} = {value!r}\n" for key, value in values.items())
    assert parse_config(text) == macro


def test_parse_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD_TEXT + "tilt = 3\n")
    assert err.value.field == "tilt"


def test_parse_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD_TEXT + "eta = 3\n")
    assert err.value.field == "eta"
    assert "duplicate" in str(err.value)


def test_parse_missing_key():
    text = "\n".join(l for l in GOOD_TEXT.splitlines() if not l.startswith("n0"))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.field == "n0"
    assert "missing" in str(err.value)


def test_parse_non_numeric_value():
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD_TEXT.replace("= 4", "= four"))
    assert err.value.field == "eta"


def test_parse_garbage_line():
    with pytest.raises(ConfigError):
        parse_config("just some words\n" + GOOD_TEXT)


def test_parsed_config_is_validated():
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD_TEXT.replace("eta       = 4", "eta       = 2"))
    assert err.value.field == "eta"


def test_shipped_baseline_files_load():
    micro = load_config(str(CONFIG_DIR / "micro.cfg"))
    assert (micro.lam, micro.p_bs) == (5e-5, 1.0)
    assert micro.fading_signal.mean == pytest.approx(
        (2.0 * math.sqrt(micro.lam)) ** (2.0 * micro.eta), rel=1e-12,
        abs=0.0)
    macro = load_config(str(CONFIG_DIR / "macro.cfg"))
    assert (macro.lam, macro.p_bs) == (5e-6, 20.0)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(str(tmp_path / "nope.cfg"))
