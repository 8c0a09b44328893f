"""Config parsing: the built-in study as a document, merging, field errors."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from crosszone.cli import main
from crosszone.config import default_config, load_config

README = Path(__file__).resolve().parents[1] / "README.md"
GRID = {"grid": {"dt_h": 0.25, "steps": 96}}


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def assert_same(a, b, where="config"):
    """Field-by-field equality of nested dataclasses, arrays compared exactly."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), where
    else:
        assert a == b, where


def readme_config_doc() -> dict:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Configuration") :]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


class TestSingleSource:
    def test_readme_document_is_the_built_in_study(self, tmp_path):
        doc = readme_config_doc()
        del doc["weather"]
        assert_same(load_config(write_doc(tmp_path, doc)), default_config())

    def test_empty_document_is_the_built_in_study(self, tmp_path):
        assert_same(load_config(write_doc(tmp_path, {})), default_config())

    def test_partial_sections_keep_their_defaults(self, tmp_path):
        base = default_config()
        cond_w = [[0, 40, 130], [40, 0, 90], [130, 90, 0]]
        doc = {
            "cop": {"cop_floor": 1.2},
            "network": {"conductances_w_per_c": cond_w},
            "gains": {"seed": 7},
            "comfort": {"wide_band_c": 3},
        }
        cfg = load_config(write_doc(tmp_path, doc))
        assert_same(cfg.cop_curve, dataclasses.replace(base.cop_curve, cop_floor=1.2))
        assert_same(cfg.gain_spec, base.with_seed(7).gain_spec)
        assert_same(cfg.network.capacitances_kwh_per_c, base.network.capacitances_kwh_per_c)
        assert np.array_equal(cfg.network.conductances_kw_per_c, np.asarray(cond_w) / 1000.0)
        assert_same(cfg.plan, base.plan)
        assert (cfg.tight_band_c, cfg.wide_band_c) == (base.tight_band_c, 3.0)
        assert_same(cfg.tariff, base.tariff)

    def test_network_without_setpoints_holds_every_zone_at_the_default(self, tmp_path):
        doc = {
            "network": {
                "capacitances_kwh_per_c": [0.3, 0.6, 0.9],
                "conductances_w_per_c": [[0, 40, 60, 80], [40, 0, 35, 20], [60, 35, 0, 30], [80, 20, 30, 0]],
            },
            "areas": {"exterior_wall_m2": [20, 30, 40], "floor_m2": [20, 30, 40]},
        }
        cfg = load_config(write_doc(tmp_path, doc))
        base = default_config()  # the built-in document is left as it was
        assert cfg.plan.setpoints_c.tolist() == [base.plan.setpoints_c[0]] * 3
        assert cfg.plan.controlled == base.plan.controlled
        assert base.plan.n == 2


@pytest.mark.parametrize("command", ["simulate", "optimize"])
@pytest.mark.parametrize(
    "section, fieldname",
    [
        ({"comfort": {"tight_band_c": "x"}}, "comfort.tight_band_c"),
        ({"power_limits": {"max_kw": "big"}}, "power_limits.max_kw"),
        ({"areas": {"floor_m2": [-1, 5]}}, "areas.floor_m2"),
        ({"areas": {"floor_m2": ["a", 5]}}, "areas.floor_m2"),
        ({"areas": {"floor_m2": [math.nan, 5]}}, "areas.floor_m2"),
        ({"comfort": {"tight_band_c": math.nan}}, "comfort.tight_band_c"),
        ({"comfort": {"wide_band_c": math.inf}}, "comfort.wide_band_c"),
        ({"power_limits": {"min_kw": math.nan}}, "power_limits.min_kw"),
        ({"weather": {"synthetic": {"mean_c": math.nan}}}, "weather.synthetic"),
        ({"grid": {"steps": 96.5}}, "grid.steps"),
        ({"grid": {"steps": True}}, "grid.steps"),
        ({"gains": {"seed": 1.5}}, "gains.seed"),
        ({"gains": {"seed": -1}}, "gains.seed"),
        ({"zones": {"controlled": [1.7]}}, "zones.controlled"),
        ({"power_limits": {"min_kw": 2.0, "max_kw": 1.0}}, "power_limits.min_kw"),
        ({"weather": {"synthetic": {"sunrise_h": 12, "sunset_h": 8}}}, "weather.synthetic"),
        ({"weather": {"synthetic": {"sunrise_h": 10, "sunset_h": 10}}}, "weather.synthetic"),
        ({"cop": {"cop_floor": 5.0}}, "cop"),
        ({"grid": {"dt_h": True}}, "grid"),
        ({"comfort": {"tight_band_c": False}}, "comfort.tight_band_c"),
    ],
)
def test_malformed_field_exits_two_naming_it(tmp_path, capsys, command, section, fieldname):
    cfg = write_doc(tmp_path, {**GRID, **section})
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config error: {fieldname}:" in capsys.readouterr().err


def test_negative_seed_option_exits_two(tmp_path, capsys):
    cfg = write_doc(tmp_path, GRID)
    assert main(["simulate", "--seed", "-1", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "config error: --seed:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section",
    [{"grid": 5}, {"zones": "x"}, {"comfort": [1.0]}, {"power_limits": None}, {"weather": None}],
)
def test_non_object_section_exits_two(tmp_path, capsys, section):
    cfg = write_doc(tmp_path, section)
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    (name,) = section
    assert f"config error: {name}: must be an object" in capsys.readouterr().err
