"""Run configuration: JSON schema, validation, and built-in defaults.

A single JSON document carries every parameter of a study. Conductances
are given in W/degC (the unit building specs usually quote) and converted
to the package-internal kW/degC on load.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .lp import ComfortSchedule
from .model import InvalidNetworkError, ThermalNetwork, TimeGrid, validate_network
from .scenario import (
    CopCurve,
    GainSpec,
    SetpointPlan,
    Tariff,
    TariffPeriod,
    WeatherSeries,
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
    constant_price: bool = False

    def comfort(self) -> ComfortSchedule:
        return ComfortSchedule.from_bands(
            self.grid, self.tight_band_c, self.wide_band_c, list(self.tight_windows)
        )

    def weather(self) -> WeatherSeries:
        if self.weather_csv is not None:
            if not os.path.exists(self.weather_csv):
                raise ConfigError("weather.csv", f"file not found: {self.weather_csv}")
            return load_weather(self.weather_csv, self.grid)
        try:
            return synthetic_weather(self.grid, **self.synthetic_weather_kwargs)
        except TypeError as exc:
            raise ConfigError("weather.synthetic", str(exc)) from None

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, gain_spec=replace(self.gain_spec, seed=seed))


def default_config() -> RunConfig:
    """Built-in two-zone winter study (square 10 m x 10 m floor plan).

    Zone 1 is one quarter of the floor area and is the controlled zone;
    zone 2 wraps around it. Exterior walls are insulated twice as well as
    interior ones, a five-day cold snap drives the heating, and a
    three-level time-of-use tariff prices the heat pump's electricity.
    """
    return RunConfig(
        network=ThermalNetwork(
            capacitances_kwh_per_c=[0.27, 0.81],
            conductances_kw_per_c=[
                [0.0, 0.045, 0.135],
                [0.045, 0.0, 0.090],
                [0.135, 0.090, 0.0],
            ],
        ),
        plan=SetpointPlan([21.0, 21.0], (1,)),
        grid=TimeGrid(dt_h=0.25, steps=480, origin_hour=0.0),
        tariff=Tariff(
            (
                TariffPeriod(22.0, 6.0, 0.12),
                TariffPeriod(6.0, 14.0, 0.14),
                TariffPeriod(14.0, 19.0, 0.16),
                TariffPeriod(19.0, 22.0, 0.14),
            )
        ),
        cop_curve=CopCurve(-15.0, 1.8, 8.3, 3.3, 1.0),
        gain_spec=GainSpec(
            window_to_wall=0.25,
            solar_mean_target_kw_per_m2=0.01,
            internal_density_kw_per_m2=0.01,
            noise_fraction=0.10,
            seed=1,
        ),
        exterior_wall_m2=np.array([30.0, 90.0]),
        floor_m2=np.array([25.0, 75.0]),
        tight_band_c=1.0,
        wide_band_c=2.0,
        tight_windows=((6.0, 9.0), (18.0, 22.0)),
        weather_csv=None,
        synthetic_weather_kwargs={},
        q_min_kw=0.0,
        q_max_kw=np.inf,
    )


def _get(doc: dict, fieldname: str, default=None, required: bool = False):
    parts = fieldname.split(".")
    node = doc
    for p in parts:
        if not isinstance(node, dict) or p not in node:
            if required:
                raise ConfigError(fieldname, "missing required field")
            return default
        node = node[p]
    return node


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON config file.

    Every field is optional; omitted fields keep the built-in default.
    Raises ConfigError naming the field on any problem.
    """
    base = default_config()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a JSON object")

    network = base.network
    if "network" in doc:
        caps = _get(doc, "network.capacitances_kwh_per_c", required=True)
        cond = _get(doc, "network.conductances_w_per_c", required=True)
        try:
            network = ThermalNetwork(
                np.asarray(caps, dtype=float), np.asarray(cond, dtype=float) / 1000.0
            )
            validate_network(network)
        except InvalidNetworkError as exc:
            raise ConfigError("network", str(exc)) from None
        except (TypeError, ValueError) as exc:
            raise ConfigError("network", str(exc)) from None

    grid = base.grid
    if "grid" in doc:
        try:
            grid = TimeGrid(
                dt_h=float(_get(doc, "grid.dt_h", base.grid.dt_h)),
                steps=int(_get(doc, "grid.steps", base.grid.steps)),
                origin_hour=float(_get(doc, "grid.start_hour", base.grid.origin_hour)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError("grid", str(exc)) from None

    plan = base.plan
    if "zones" in doc or "network" in doc:
        setpoints = _get(doc, "zones.setpoints_c", [21.0] * network.n)
        controlled = _get(doc, "zones.controlled", list(base.plan.controlled))
        try:
            plan = SetpointPlan(np.asarray(setpoints, dtype=float), tuple(controlled))
        except (TypeError, ValueError) as exc:
            raise ConfigError("zones", str(exc)) from None
        if plan.n != network.n:
            raise ConfigError("zones.setpoints_c", f"{plan.n} setpoints for {network.n} zones")

    tariff = base.tariff
    if "tariff" in doc:
        try:
            tariff = Tariff(
                tuple(
                    TariffPeriod(float(p["start_hour"]), float(p["end_hour"]), float(p["price_usd_per_kwh"]))
                    for p in doc["tariff"]
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("tariff", str(exc)) from None

    cop_curve = base.cop_curve
    if "cop" in doc:
        try:
            cop_curve = CopCurve(
                t_low_c=float(_get(doc, "cop.t_low_c", required=True)),
                cop_low=float(_get(doc, "cop.cop_low", required=True)),
                t_high_c=float(_get(doc, "cop.t_high_c", required=True)),
                cop_high=float(_get(doc, "cop.cop_high", required=True)),
                cop_floor=float(_get(doc, "cop.cop_floor", 1.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError("cop", str(exc)) from None

    gain_spec = base.gain_spec
    if "gains" in doc:
        try:
            gain_spec = GainSpec(
                window_to_wall=float(_get(doc, "gains.window_to_wall", 0.25)),
                solar_mean_target_kw_per_m2=float(_get(doc, "gains.solar_mean_kw_per_m2", 0.01)),
                internal_density_kw_per_m2=float(_get(doc, "gains.internal_kw_per_m2", 0.01)),
                noise_fraction=float(_get(doc, "gains.noise_fraction", 0.10)),
                seed=int(_get(doc, "gains.seed", 1)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError("gains", str(exc)) from None

    ext = np.asarray(_get(doc, "areas.exterior_wall_m2", base.exterior_wall_m2), dtype=float)
    floor = np.asarray(_get(doc, "areas.floor_m2", base.floor_m2), dtype=float)
    if ext.shape != (network.n,):
        raise ConfigError("areas.exterior_wall_m2", f"expected {network.n} values, got shape {ext.shape}")
    if floor.shape != (network.n,):
        raise ConfigError("areas.floor_m2", f"expected {network.n} values, got shape {floor.shape}")

    tight = float(_get(doc, "comfort.tight_band_c", base.tight_band_c))
    wide = float(_get(doc, "comfort.wide_band_c", base.wide_band_c))
    windows_raw = _get(doc, "comfort.tight_hours", [list(w) for w in base.tight_windows])
    try:
        windows = tuple((float(a), float(b)) for a, b in windows_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError("comfort.tight_hours", str(exc)) from None
    if tight < 0 or wide < 0:
        raise ConfigError("comfort", "bands must be nonnegative")

    weather_csv = _get(doc, "weather.csv")
    synth = _get(doc, "weather.synthetic", {})
    if not isinstance(synth, dict):
        raise ConfigError("weather.synthetic", "must be an object of synthetic_weather arguments")
    if weather_csv is not None:
        base_dir = os.path.dirname(os.path.abspath(path))
        weather_csv = os.path.join(base_dir, weather_csv) if not os.path.isabs(weather_csv) else weather_csv

    q_min = float(_get(doc, "power_limits.min_kw", 0.0))
    q_max_raw = _get(doc, "power_limits.max_kw", None)
    q_max = np.inf if q_max_raw is None else float(q_max_raw)
    constant_price = _get(doc, "constant_price", False)
    if not isinstance(constant_price, bool):
        raise ConfigError("constant_price", f"must be true or false, got {constant_price!r}")

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
        synthetic_weather_kwargs=dict(synth),
        q_min_kw=q_min,
        q_max_kw=q_max,
        constant_price=constant_price,
    )
