"""Baseline and experiment operating scenarios.

The baseline holds every zone at its constant setpoint with ideal tracking
equipment. The experiment hands a subset of zones to an external controller
(piecewise-constant thermal powers) while the remaining zones keep tracking
their setpoints against the perturbed neighbours. Both run one scenario
body; the baseline is the case in which no zone is handed over.

Tracking powers are reported as per-step averages chosen so that the step
energy, and hence any price-weighted cost integral, is exact: the storage
term uses the sample difference C_i (T(k+1) - T(k)) and the conduction
terms use the exact within-step temperature integrals.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import controlled_subsystem, simulate
from .model import Signal, ThermalNetwork, TimeGrid, Trajectory, as_values

__all__ = [
    "SetpointPlan",
    "clock_segments",
    "TariffPeriod",
    "Tariff",
    "CopCurve",
    "GainSpec",
    "WeatherSeries",
    "WeatherFormatError",
    "cop",
    "thermal_price",
    "synthesize_gains",
    "tracking_power",
    "run_baseline",
    "run_experiment",
    "load_weather",
    "synthetic_weather",
]


@dataclass(frozen=True)
class SetpointPlan:
    """Baseline setpoints plus the partition into controlled zones.

    ``controlled`` holds 1-based zone numbers; the remaining zones stay
    under baseline tracking in the experiment scenario.
    """

    setpoints_c: np.ndarray
    controlled: tuple[int, ...]

    def __post_init__(self):
        sp = np.atleast_1d(np.asarray(self.setpoints_c, dtype=float))
        if not np.all(np.isfinite(sp)):
            raise ValueError("setpoints contain non-finite values")
        object.__setattr__(self, "setpoints_c", sp)
        ctrl = tuple(sorted(int(z) for z in self.controlled))
        n = sp.shape[0]
        if len(ctrl) == 0 or len(set(ctrl)) != len(ctrl):
            raise ValueError(f"controlled zones must be nonempty and distinct, got {ctrl}")
        if ctrl[0] < 1 or ctrl[-1] > n:
            raise ValueError(f"controlled zones {ctrl} out of range 1..{n}")
        object.__setattr__(self, "controlled", ctrl)

    @property
    def n(self) -> int:
        return self.setpoints_c.shape[0]

    @property
    def m(self) -> int:
        return len(self.controlled)

    @property
    def uncontrolled(self) -> tuple[int, ...]:
        ctrl = set(self.controlled)
        return tuple(i for i in range(1, self.n + 1) if i not in ctrl)


def clock_segments(start_hour: float, end_hour: float) -> list[tuple[float, float]]:
    """The clock window [start_hour % 24, end_hour % 24) as non-wrapping (start, end) hours in [0, 24].

    A window may wrap midnight. An end a nonzero multiple of 24 h after the
    start is the whole day; an end equal to the start is refused.
    """
    if end_hour == start_hour:
        raise ValueError(f"clock window [{start_hour:g}, {end_hour:g}) is empty")
    s, e = start_hour % 24.0, end_hour % 24.0
    return [(s, e)] if s < e else [(a, b) for a, b in ((s, 24.0), (0.0, e)) if a < b]


@dataclass(frozen=True)
class TariffPeriod:
    """Half-open clock window [start_hour, end_hour) at a flat price."""

    start_hour: float
    end_hour: float
    price_usd_per_kwh: float


@dataclass(frozen=True)
class Tariff:
    """Time-of-use electricity tariff covering the full day.

    Periods may wrap midnight (e.g. 22 to 6). Together they must tile the
    24-hour clock exactly once.
    """

    periods: tuple[TariffPeriod, ...]

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(self.periods))
        cursor = 0.0
        for s, e, _ in self._segments():
            if abs(s - cursor) > 1e-9:
                raise ValueError(f"tariff gap or overlap at hour {cursor}")
            cursor = e
        if abs(cursor - 24.0) > 1e-9:
            raise ValueError("tariff periods do not cover 24 hours")

    def _segments(self) -> list[tuple[float, float, float]]:
        """Non-wrapping (start, end, price) segments sorted by start."""
        segs: list[tuple[float, float, float]] = []
        for p in self.periods:
            if p.price_usd_per_kwh <= 0:
                raise ValueError(f"tariff price must be positive, got {p.price_usd_per_kwh}")
            segs += [(s, e, p.price_usd_per_kwh) for s, e in clock_segments(p.start_hour, p.end_hour)]
        return sorted(segs)

    def price_at(self, hour_of_day: np.ndarray | float) -> np.ndarray:
        """Electric price [$/kWh] at the given clock hours."""
        segs = self._segments()
        starts = np.array([s for s, _, _ in segs])
        prices = np.array([p for _, _, p in segs])
        h = np.atleast_1d(np.asarray(hour_of_day, dtype=float)) % 24.0
        idx = np.searchsorted(starts, h, side="right") - 1
        return prices[idx]


@dataclass(frozen=True)
class CopCurve:
    """Heat-pump coefficient of performance vs outdoor temperature.

    Linear between the two anchors, linearly extrapolated outside them,
    clamped to [cop_floor, cop_high], so cop_floor may not exceed cop_high.
    """

    t_low_c: float
    cop_low: float
    t_high_c: float
    cop_high: float
    cop_floor: float = 1.0

    def __post_init__(self):
        if not self.t_low_c < self.t_high_c:
            raise ValueError("require t_low_c < t_high_c")
        if not (0 < self.cop_low < self.cop_high):
            raise ValueError("require 0 < cop_low < cop_high")
        if not 1.0 <= self.cop_floor <= self.cop_high:
            raise ValueError("require 1 <= cop_floor <= cop_high")


def cop(curve: CopCurve, t_out_c: np.ndarray | float) -> np.ndarray | float:
    """Evaluate the COP curve at outdoor temperature(s) [degC]."""
    t = np.asarray(t_out_c, dtype=float)
    slope = (curve.cop_high - curve.cop_low) / (curve.t_high_c - curve.t_low_c)
    val = curve.cop_low + slope * (t - curve.t_low_c)
    val = np.clip(val, curve.cop_floor, curve.cop_high)
    return float(val) if np.isscalar(t_out_c) else val


def thermal_price(
    tariff: Tariff, curve: CopCurve, outdoor: Signal | np.ndarray, grid: TimeGrid
) -> Signal:
    """Per-step price of delivered heat: electric price over COP [$/kWh]."""
    t0 = as_values(outdoor, grid.steps)
    pi = tariff.price_at(grid.step_hours_of_day())
    return Signal(pi / cop(curve, t0))


@dataclass(frozen=True)
class GainSpec:
    """Recipe for synthesizing exogenous heat gains from weather data."""

    window_to_wall: float
    solar_mean_target_kw_per_m2: float
    internal_density_kw_per_m2: float
    noise_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.window_to_wall <= 1.0:
            raise ValueError("window_to_wall must be in [0, 1]")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ValueError("noise_fraction must be in [0, 1]")
        if self.solar_mean_target_kw_per_m2 < 0 or self.internal_density_kw_per_m2 < 0:
            raise ValueError("densities must be nonnegative")


@dataclass(frozen=True)
class WeatherSeries:
    """Grid-aligned outdoor temperature [degC] and solar irradiance."""

    grid: TimeGrid
    outdoor: Signal
    ghi: Signal

    def __post_init__(self):
        if len(self.outdoor) != self.grid.steps or len(self.ghi) != self.grid.steps:
            raise ValueError("weather signals do not match the grid")
        if np.any(self.ghi.values < 0):
            raise ValueError("irradiance must be nonnegative")


def synthesize_gains(
    spec: GainSpec,
    weather: WeatherSeries,
    exterior_wall_m2: np.ndarray,
    floor_m2: np.ndarray,
) -> np.ndarray:
    """Build per-zone exogenous gains w_i(t) [kW], shape (K, n).

    Solar gains: the irradiance series rescaled to the target mean, times
    each zone's window area (window-to-wall ratio times exterior wall
    area). Internal gains: a constant floor-area density perturbed with
    seeded Gaussian noise (relative std ``noise_fraction``), clipped at
    zero. Deterministic for a fixed seed.
    """
    ext = np.atleast_1d(np.asarray(exterior_wall_m2, dtype=float))
    floor = np.atleast_1d(np.asarray(floor_m2, dtype=float))
    if np.any(ext < 0) or np.any(floor < 0):
        raise ValueError("areas must be nonnegative")
    k = weather.grid.steps

    ghi = weather.ghi.values
    mean_ghi = float(ghi.mean())
    if mean_ghi > 0 and spec.solar_mean_target_kw_per_m2 > 0:
        solar_flux = ghi * (spec.solar_mean_target_kw_per_m2 / mean_ghi)
    else:
        solar_flux = np.zeros(k)
    window_m2 = spec.window_to_wall * ext
    solar = np.outer(solar_flux, window_m2)

    internal_mean = spec.internal_density_kw_per_m2 * floor
    rng = np.random.default_rng(spec.seed)
    noise = rng.standard_normal((k, ext.shape[0])) * (spec.noise_fraction * internal_mean)
    internal = np.clip(internal_mean[None, :] + noise, 0.0, None)
    return solar + internal


def tracking_power(
    net: ThermalNetwork,
    temps_c: np.ndarray,
    temp_integrals_c_h: np.ndarray,
    gains_kw: np.ndarray,
    outdoor_c: np.ndarray,
    dt_h: float,
) -> np.ndarray:
    """Equipment power that realizes a known temperature trajectory.

    Inverts the zone heat balance per step:

        q = [C (T(k+1) - T(k)) + conduction] / dt - w,

    where the conduction term uses the exact within-step temperature
    integrals, so that sum_k a(k) q(k) dt reproduces the continuous cost
    integral exactly. For constant setpoints the storage term vanishes and
    the result is the familiar steady-state loss formula.

    Args:
        net: thermal network.
        temps_c: (K+1, n) temperature samples for all zones.
        temp_integrals_c_h: (K, n) exact per-step integrals of T.
        gains_kw: (K, n) exogenous gains.
        outdoor_c: (K,) outdoor temperature.
        dt_h: step length [h].

    Returns:
        (K, n) per-step average powers [kW].
    """
    k, n = temp_integrals_c_h.shape
    if temps_c.shape != (k + 1, n):
        raise ValueError(f"temps shape {temps_c.shape} inconsistent with integrals {temp_integrals_c_h.shape}")
    alpha = net.conductances_kw_per_c
    c = net.capacitances_kwh_per_c
    coupling_sum = alpha[1:, :].sum(axis=1)
    storage = np.diff(temps_c, axis=0) * c[None, :]
    conduction = (
        temp_integrals_c_h * coupling_sum[None, :]
        - temp_integrals_c_h @ alpha[1:, 1:].T
        - np.outer(outdoor_c * dt_h, alpha[1:, 0])
    )
    return (storage + conduction) / dt_h - gains_kw


def run_baseline(
    net: ThermalNetwork,
    plan: SetpointPlan,
    weather: WeatherSeries,
    gains_kw: np.ndarray,
    grid: TimeGrid,
) -> Trajectory:
    """All zones held at their setpoints by ideal tracking equipment."""
    return _scenario(net, plan, weather, gains_kw, grid, (), np.empty((grid.steps, 0)))


def run_experiment(
    net: ThermalNetwork,
    plan: SetpointPlan,
    weather: WeatherSeries,
    gains_kw: np.ndarray,
    grid: TimeGrid,
    controlled_q_kw: np.ndarray,
) -> Trajectory:
    """Controlled zones run on given powers; the rest keep tracking.

    The controlled zones evolve under the exact hold-input discretization
    of their sub-network, with the uncontrolled zones (still pinned at
    their setpoints) and the outdoor node as boundary temperatures. The
    uncontrolled zones' tracking powers absorb the altered cross-zone heat
    flow.

    Args:
        controlled_q_kw: (K, m) per-step thermal powers for the controlled
            zones, in ascending zone order.
    """
    return _scenario(net, plan, weather, gains_kw, grid, plan.controlled, controlled_q_kw)


def _scenario(
    net: ThermalNetwork,
    plan: SetpointPlan,
    weather: WeatherSeries,
    gains_kw: np.ndarray,
    grid: TimeGrid,
    driven: tuple[int, ...],
    driven_q_kw: np.ndarray,
) -> Trajectory:
    """The ``driven`` zones run on their (K, len(driven)) powers; every other zone tracks its setpoint."""
    k, n = grid.steps, net.n
    if plan.n != n:
        raise ValueError(f"plan covers {plan.n} zones, network has {n}")
    if weather.grid != grid:
        raise ValueError(f"weather is on {weather.grid}, the run is on {grid}")
    gains = np.asarray(gains_kw, dtype=float)
    if gains.shape != (k, n):
        raise ValueError(f"gains shape {gains.shape}, expected {(k, n)}")
    q = np.asarray(driven_q_kw, dtype=float)
    if q.shape != (k, len(driven)):
        raise ValueError(f"powers shape {q.shape}, expected {(k, len(driven))}")
    t0 = weather.outdoor.values
    idx = np.asarray(driven, dtype=int) - 1

    temps = np.tile(plan.setpoints_c, (k + 1, 1))
    integrals = np.tile(plan.setpoints_c * grid.dt_h, (k, 1))
    if driven:
        sub, w_sub = controlled_subsystem(net, grid, driven, plan.setpoints_c, gains)
        sub_traj = simulate(sub, plan.setpoints_c[idx], q, w_sub, t0)
        temps[:, idx] = sub_traj.temps_c
        integrals[:, idx] = sub_traj.temp_integrals_c_h
    powers = tracking_power(net, temps, integrals, gains, t0, grid.dt_h)
    powers[:, idx] = q
    return Trajectory(
        grid=grid,
        temps_c=temps,
        powers_kw=powers,
        gains_kw=gains,
        outdoor_c=t0,
        temp_integrals_c_h=integrals,
    )


class WeatherFormatError(ValueError):
    """Raised for malformed weather CSV input."""


def load_weather(path: str, grid: TimeGrid) -> WeatherSeries:
    """Load a weather CSV and hold-resample it onto the grid.

    Expected header: ``timestamp,outdoor_temp_c,ghi_w_per_m2`` with
    ISO-8601 timestamps, strictly increasing, and finite values. Row 0 is
    aligned with grid time 0, so its clock hour must be the grid's
    ``origin_hour``; each source value holds until the next row (zero-order
    hold), so coarser sources are repeated and finer ones subsampled.
    """
    times_h: list[float] = []
    temp: list[float] = []
    ghi: list[float] = []
    start: _dt.datetime | None = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise WeatherFormatError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise WeatherFormatError(f"{path}: empty file")
    expected = ["timestamp", "outdoor_temp_c", "ghi_w_per_m2"]
    if [h.strip() for h in header] != expected:
        raise WeatherFormatError(f"{path}: header {header} != {expected}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise WeatherFormatError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
        try:
            ts = _dt.datetime.fromisoformat(row[0].strip())
            t_c = float(row[1])
            g = float(row[2])
            start = ts if start is None else start
            t_h = (ts - start).total_seconds() / 3600.0  # TypeError when only one carries a UTC offset
        except (TypeError, ValueError) as exc:
            raise WeatherFormatError(f"{path}: line {lineno}: {exc}") from None
        if not (math.isfinite(t_c) and math.isfinite(g)):
            raise WeatherFormatError(f"{path}: line {lineno}: non-finite value")
        if times_h and t_h <= times_h[-1]:
            raise WeatherFormatError(f"{path}: line {lineno}: timestamps not strictly increasing")
        times_h.append(t_h)
        temp.append(t_c)
        ghi.append(g)
    if not times_h:
        raise WeatherFormatError(f"{path}: no data rows")
    hour = start.hour + start.minute / 60.0 + start.second / 3600.0 + start.microsecond / 3.6e9
    if abs(hour - grid.origin_hour % 24.0) > 1e-9:
        raise WeatherFormatError(f"{path}: starts at clock hour {hour:g} but grid.start_hour is {grid.origin_hour:g}")

    src_t = np.asarray(times_h)
    src_step = src_t[-1] - src_t[-2] if len(src_t) > 1 else grid.dt_h
    covered_h = src_t[-1] + src_step
    if grid.horizon_h > covered_h + 1e-9:
        raise WeatherFormatError(
            f"{path}: covers {covered_h:g} h but the grid needs {grid.horizon_h:g} h"
        )
    targets = grid.step_times_h()
    idx = np.searchsorted(src_t, targets + 1e-12, side="right") - 1
    idx = np.clip(idx, 0, len(src_t) - 1)
    return WeatherSeries(
        grid=grid,
        outdoor=Signal(np.asarray(temp)[idx]),
        ghi=Signal(np.asarray(ghi)[idx]),
    )


def synthetic_weather(
    grid: TimeGrid,
    mean_c: float = -12.0,
    amplitude_c: float = 8.0,
    floor_c: float = -23.0,
    snap_depth_c: float = 4.0,
    ghi_peak_w_per_m2: float = 500.0,
    sunrise_h: float = 8.0,
    sunset_h: float = 17.0,
) -> WeatherSeries:
    """Deterministic cold-snap stand-in for measured winter weather.

    Outdoor temperature follows a diurnal sinusoid (warmest at 15:00)
    plus a Gaussian-shaped dip centered mid-horizon, clamped at
    ``floor_c``. Irradiance is a sin^2 bump between sunrise and sunset,
    which must come later in the day.
    """
    if not sunset_h > sunrise_h:
        raise ValueError(f"sunset_h ({sunset_h:g}) must be later than sunrise_h ({sunrise_h:g})")
    t = grid.step_times_h()
    hod = grid.step_hours_of_day()
    diurnal = mean_c - amplitude_c * np.cos(2.0 * np.pi * (hod - 15.0) / 24.0)
    mid = grid.horizon_h / 2.0
    width = max(grid.horizon_h / 6.0, grid.dt_h)
    snap = snap_depth_c * np.exp(-(((t - mid) / width) ** 2))
    outdoor = np.maximum(diurnal - snap, floor_c)

    daylight = (hod >= sunrise_h) & (hod < sunset_h)
    phase = np.pi * (hod - sunrise_h) / (sunset_h - sunrise_h)
    ghi = np.where(daylight, ghi_peak_w_per_m2 * np.sin(phase) ** 2, 0.0)
    return WeatherSeries(grid=grid, outdoor=Signal(outdoor), ghi=Signal(ghi))
