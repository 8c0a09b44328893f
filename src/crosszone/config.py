"""Run configuration: JSON schema, validation, and built-in defaults.

A single JSON document carries every parameter of a study. Conductances
are given in W/degC (the unit building specs usually quote) and converted
to the package-internal kW/degC on load.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .lp import ComfortSchedule
from .model import ThermalNetwork, TimeGrid
from .scenario import (
    CopCurve,
    GainSpec,
    SetpointPlan,
    Tariff,
    TariffPeriod,
    WeatherSeries,
    clock_segments,
    load_weather,
    synthetic_weather,
)

__all__ = ["ConfigError", "RunConfig", "default_config", "load_config"]


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"{fieldname}: {message}")


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one simulation/optimization study."""

    network: ThermalNetwork
    plan: SetpointPlan
    grid: TimeGrid
    tariff: Tariff
    cop_curve: CopCurve
    gain_spec: GainSpec
    exterior_wall_m2: np.ndarray
    floor_m2: np.ndarray
    tight_band_c: float
    wide_band_c: float
    tight_windows: tuple[tuple[float, float], ...]
    weather_csv: str | None
    synthetic_weather_kwargs: dict
    q_min_kw: float
    q_max_kw: float
    constant_price: bool = False  # set by reproduce-example --constant-price

    def comfort(self) -> ComfortSchedule:
        return ComfortSchedule.from_bands(
            self.grid, self.tight_band_c, self.wide_band_c, list(self.tight_windows)
        )

    def weather(self) -> WeatherSeries:
        if self.weather_csv is not None:
            if not os.path.isfile(self.weather_csv):
                raise ConfigError("weather.csv", f"file not found: {self.weather_csv}")
            return load_weather(self.weather_csv, self.grid)
        with _fields("weather.synthetic"):
            return synthetic_weather(self.grid, **self.synthetic_weather_kwargs)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, gain_spec=replace(self.gain_spec, seed=seed))


# The built-in two-zone winter study (square 10 m x 10 m floor plan), in the
# config file format. Zone 1 is one quarter of the floor area and is the
# controlled zone; zone 2 wraps around it. Exterior walls are insulated twice
# as well as interior ones, a five-day cold snap drives the heating, and a
# three-level time-of-use tariff prices the heat pump's electricity.
_DEFAULT_DOC = {
    "network": {
        "capacitances_kwh_per_c": [0.27, 0.81],
        "conductances_w_per_c": [[0, 45, 135], [45, 0, 90], [135, 90, 0]],
    },
    "zones": {"setpoints_c": [21.0, 21.0], "controlled": [1]},
    "grid": {"dt_h": 0.25, "steps": 480, "start_hour": 0.0},
    "tariff": [
        {"start_hour": 22, "end_hour": 6, "price_usd_per_kwh": 0.12},
        {"start_hour": 6, "end_hour": 14, "price_usd_per_kwh": 0.14},
        {"start_hour": 14, "end_hour": 19, "price_usd_per_kwh": 0.16},
        {"start_hour": 19, "end_hour": 22, "price_usd_per_kwh": 0.14},
    ],
    "cop": {"t_low_c": -15, "cop_low": 1.8, "t_high_c": 8.3, "cop_high": 3.3, "cop_floor": 1.0},
    "gains": {
        "window_to_wall": 0.25,
        "solar_mean_kw_per_m2": 0.01,
        "internal_kw_per_m2": 0.01,
        "noise_fraction": 0.1,
        "seed": 1,
    },
    "areas": {"exterior_wall_m2": [30, 90], "floor_m2": [25, 75]},
    "comfort": {"tight_band_c": 1.0, "wide_band_c": 2.0, "tight_hours": [[6, 9], [18, 22]]},
    "weather": {"csv": None, "synthetic": {}},
    "power_limits": {"min_kw": 0.0, "max_kw": None},
}


def default_config() -> RunConfig:
    """Built-in two-zone winter study: the config document with no overrides."""
    return _parse(_DEFAULT_DOC, os.curdir)


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON config file.

    Every field is optional: the file is merged over the built-in study,
    objects field by field, lists and scalars replaced whole. A network
    given without ``zones.setpoints_c`` holds every zone at the built-in
    setpoint. Raises ConfigError naming the field on any problem.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config", "top level must be a JSON object")
    doc = _merged(_DEFAULT_DOC, user, "")
    if "network" in user and "setpoints_c" not in user.get("zones", {}):
        with _fields("network.capacitances_kwh_per_c"):
            n = np.size(doc["network"]["capacitances_kwh_per_c"])
        doc["zones"] = {**doc["zones"], "setpoints_c": _DEFAULT_DOC["zones"]["setpoints_c"][:1] * n}
    return _parse(doc, os.path.dirname(os.path.abspath(path)))


def _merged(base: dict, over: dict, prefix: str) -> dict:
    """``over`` laid on ``base``: objects merge key by key, anything else replaces.

    A key ``base`` lacks is unknown, unless ``base`` is empty (``weather.synthetic``).
    """
    out = dict(base)
    for key, value in over.items():
        if base and key not in base:
            raise ConfigError(prefix + key, "unknown field")
        if isinstance(base.get(key), dict):
            if not isinstance(value, dict):
                raise ConfigError(prefix + key, f"must be an object, got {value!r}")
            value = _merged(base[key], value, f"{prefix}{key}.")
        out[key] = value
    return out


@contextmanager
def _fields(fieldname: str):
    """Report a malformed value met while parsing ``fieldname`` as a ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(fieldname, str(exc)) from None


def _number(value, lo: float = -math.inf) -> float:
    """``value`` as a finite float no less than ``lo``; anything but an int or a float is refused."""
    x = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    if not (math.isfinite(x) and x >= lo):
        bound = f" >= {lo:g}" if lo > -math.inf else ""
        raise ValueError(f"expected a finite number{bound}, got {value!r}")
    return x


def _integer(value, lo: int) -> int:
    """``value`` as an int no less than ``lo``; booleans and fractions are refused."""
    whole = isinstance(value, (int, float)) and not isinstance(value, bool) and float(value).is_integer()
    if not (whole and value >= lo):
        raise ValueError(f"expected an integer >= {lo}, got {value!r}")
    return int(value)


def _numbers(values, lo: float = -math.inf) -> np.ndarray:
    """A (nested) list of numbers as a float array, each element read by ``_number``."""
    items = np.asarray(values, dtype=object)
    return np.array([_number(v, lo) for v in items.ravel()], dtype=float).reshape(items.shape)


def _areas(values, n: int) -> np.ndarray:
    a = _numbers(values, lo=0.0)
    if a.shape != (n,):
        raise ValueError(f"expected {n} values, got shape {a.shape}")
    return a


def _parse(doc: dict, base_dir: str) -> RunConfig:
    """Build a RunConfig from a complete config document.

    ``base_dir`` anchors a relative ``weather.csv`` path.
    """
    with _fields("network"):
        net = doc["network"]
        network = ThermalNetwork(
            _numbers(net["capacitances_kwh_per_c"]),
            _numbers(net["conductances_w_per_c"]) / 1000.0,
        )
    with _fields("zones.controlled"):
        controlled = tuple(_integer(z, 1) for z in doc["zones"]["controlled"])
    with _fields("zones"):
        plan = SetpointPlan(_numbers(doc["zones"]["setpoints_c"]), controlled)
    if plan.n != network.n:
        raise ConfigError("zones.setpoints_c", f"{plan.n} setpoints for {network.n} zones")
    g = doc["grid"]
    with _fields("grid.steps"):
        steps = _integer(g["steps"], 1)
    with _fields("grid"):
        grid = TimeGrid(dt_h=_number(g["dt_h"]), steps=steps, origin_hour=_number(g["start_hour"]))
    for i, entry in enumerate(doc["tariff"] if isinstance(doc["tariff"], list) else []):
        unknown = [key for key in entry if key not in _DEFAULT_DOC["tariff"][0]] if isinstance(entry, dict) else []
        if unknown:
            raise ConfigError(f"tariff[{i}].{unknown[0]}", "unknown field")
    with _fields("tariff"):
        tariff = Tariff(
            tuple(
                TariffPeriod(_number(p["start_hour"]), _number(p["end_hour"]), _number(p["price_usd_per_kwh"]))
                for p in doc["tariff"]
            )
        )
    with _fields("cop"):
        c = doc["cop"]
        cop_curve = CopCurve(
            *(_number(c[key]) for key in ("t_low_c", "cop_low", "t_high_c", "cop_high", "cop_floor"))
        )
    gains = doc["gains"]
    with _fields("gains.seed"):
        seed = _integer(gains["seed"], 0)
    with _fields("gains"):
        gain_spec = GainSpec(
            window_to_wall=_number(gains["window_to_wall"]),
            solar_mean_target_kw_per_m2=_number(gains["solar_mean_kw_per_m2"]),
            internal_density_kw_per_m2=_number(gains["internal_kw_per_m2"]),
            noise_fraction=_number(gains["noise_fraction"]),
            seed=seed,
        )
    with _fields("areas.exterior_wall_m2"):
        ext = _areas(doc["areas"]["exterior_wall_m2"], network.n)
    with _fields("areas.floor_m2"):
        floor = _areas(doc["areas"]["floor_m2"], network.n)
    comfort = doc["comfort"]
    with _fields("comfort.tight_band_c"):
        tight = _number(comfort["tight_band_c"], lo=0.0)
    with _fields("comfort.wide_band_c"):
        wide = _number(comfort["wide_band_c"], lo=0.0)
    with _fields("comfort.tight_hours"):
        windows = tuple((_number(a), _number(b)) for a, b in comfort["tight_hours"])
        for window in windows:
            clock_segments(*window)
    weather = doc["weather"]
    with _fields("weather.synthetic"):
        synthetic = {key: _number(value) for key, value in weather["synthetic"].items()}
    with _fields("weather.csv"):
        weather_csv = weather["csv"]
        if weather_csv is not None:
            weather_csv = os.path.join(base_dir, weather_csv)
    limits = doc["power_limits"]
    with _fields("power_limits.min_kw"):
        q_min = _number(limits["min_kw"])
    with _fields("power_limits.max_kw"):
        q_max = math.inf if limits["max_kw"] is None else _number(limits["max_kw"])
    if q_min > q_max:
        raise ConfigError("power_limits.min_kw", f"{q_min:g} exceeds max_kw {q_max:g}")

    return RunConfig(
        network=network,
        plan=plan,
        grid=grid,
        tariff=tariff,
        cop_curve=cop_curve,
        gain_spec=gain_spec,
        exterior_wall_m2=ext,
        floor_m2=floor,
        tight_band_c=tight,
        wide_band_c=wide,
        tight_windows=windows,
        weather_csv=weather_csv,
        synthetic_weather_kwargs=synthetic,
        q_min_kw=q_min,
        q_max_kw=q_max,
    )
