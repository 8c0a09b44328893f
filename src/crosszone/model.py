"""Core data types for multi-zone thermal networks and sampled signals.

Conventions used throughout the package:

* Zones are numbered 1..n; index 0 is the outdoor air node. The conductance
  matrix is (n+1)x(n+1) and includes the outdoor row/column, so
  ``conductances_kw_per_c[i, j]`` is directly addressable by zone number.
  Per-zone arrays (capacitances, temperatures, powers) hold zone i in
  column i-1.
* Units are kW, kWh, degC and hours everywhere. File loaders convert from
  W/degC where noted.
* Signals are piecewise constant: the value at step k applies on
  [k*dt, (k+1)*dt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "InvalidNetworkError",
    "ThermalNetwork",
    "TimeGrid",
    "Signal",
    "CostModel",
    "Trajectory",
    "validate_network",
    "as_values",
]


class InvalidNetworkError(ValueError):
    """Raised when a thermal network violates a structural invariant.

    The ``violations`` attribute lists every violated invariant, with the
    offending indices, not just the first one found.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ThermalNetwork:
    """Lumped thermal RC network of n zones plus the outdoor node.

    Attributes:
        capacitances_kwh_per_c: per-zone heat capacity C_i [kWh/degC],
            length n (zone i in slot i-1).
        conductances_kw_per_c: symmetric (n+1)x(n+1) conductance matrix
            [kW/degC]; row/column 0 is the outdoor air node, the diagonal
            is zero.
    """

    capacitances_kwh_per_c: np.ndarray
    conductances_kw_per_c: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "capacitances_kwh_per_c", _readonly(np.atleast_1d(self.capacitances_kwh_per_c))
        )
        object.__setattr__(
            self, "conductances_kw_per_c", _readonly(np.atleast_2d(self.conductances_kw_per_c))
        )

    @property
    def n(self) -> int:
        """Number of zones (outdoor node excluded)."""
        return self.capacitances_kwh_per_c.shape[0]

    def capacitance(self, zone: int) -> float:
        return float(self.capacitances_kwh_per_c[zone - 1])

    def conductance(self, i: int, j: int) -> float:
        """Conductance between nodes i and j (0 = outdoors) [kW/degC]."""
        return float(self.conductances_kw_per_c[i, j])

    def violations(self) -> list[str]:
        """Return all violated invariants (empty list when valid)."""
        out: list[str] = []
        c = self.capacitances_kwh_per_c
        a = self.conductances_kw_per_c
        n = self.n
        if c.ndim != 1 or n < 1:
            out.append(f"capacitances must be a nonempty 1-d array, got shape {c.shape}")
            return out
        if a.shape != (n + 1, n + 1):
            out.append(
                f"conductance matrix shape {a.shape} inconsistent with n={n}; expected {(n + 1, n + 1)}"
            )
            return out
        if not np.all(np.isfinite(c)):
            out.append("non-finite capacitance")
        if not np.all(np.isfinite(a)):
            out.append("non-finite conductance")
            return out
        for i in np.nonzero(~(c > 0))[0]:
            out.append(f"nonpositive capacitance for zone {i + 1}: {c[i]}")
        for i, j in zip(*np.nonzero(a < 0)):
            if i <= j:
                out.append(f"negative conductance at ({i},{j}): {a[i, j]}")
        for i, j in zip(*np.nonzero(~np.isclose(a, a.T, rtol=0.0, atol=0.0))):
            if i < j:
                out.append(f"asymmetric conductance at ({i},{j}): {a[i, j]} vs {a[j, i]}")
        for i in np.nonzero(np.diag(a) != 0)[0]:
            out.append(f"nonzero self-conductance at node {i}: {a[i, i]}")
        return out


def validate_network(net: ThermalNetwork) -> ThermalNetwork:
    """Return ``net`` unchanged if structurally valid.

    Raises:
        InvalidNetworkError: listing every violated invariant.
    """
    violations = net.violations()
    if violations:
        raise InvalidNetworkError(violations)
    return net


@dataclass(frozen=True)
class TimeGrid:
    """Uniform simulation grid of ``steps`` intervals of ``dt_h`` hours.

    ``origin_hour`` is the clock hour-of-day of sample 0, used to align
    tariffs and occupancy windows.
    """

    dt_h: float
    steps: int
    origin_hour: float = 0.0

    def __post_init__(self):
        if not (self.dt_h > 0):
            raise ValueError(f"dt_h must be positive, got {self.dt_h}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def horizon_h(self) -> float:
        return self.steps * self.dt_h

    def step_times_h(self) -> np.ndarray:
        """Start times of the K steps [h]."""
        return np.arange(self.steps) * self.dt_h

    def sample_times_h(self) -> np.ndarray:
        """Times of the K+1 temperature samples [h]."""
        return np.arange(self.steps + 1) * self.dt_h

    def step_hours_of_day(self) -> np.ndarray:
        """Clock hour-of-day at the start of each step."""
        return (self.origin_hour + self.step_times_h()) % 24.0


@dataclass(frozen=True)
class Signal:
    """Piecewise-constant per-step samples, one value per grid step."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1:
            raise ValueError(f"signal must be 1-d, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal contains non-finite values")
        object.__setattr__(self, "values", _readonly(v))

    def __len__(self) -> int:
        return self.values.shape[0]


def as_values(x: "Signal | Iterable[float] | np.ndarray", steps: int | None = None) -> np.ndarray:
    """Coerce a Signal or array-like to a validated float array."""
    v = x.values if isinstance(x, Signal) else np.asarray(x, dtype=float)
    if steps is not None and v.shape[0] != steps:
        raise ValueError(f"signal length {v.shape[0]} does not match grid steps {steps}")
    if not np.all(np.isfinite(v)):
        raise ValueError("signal contains non-finite values")
    return v


@dataclass(frozen=True)
class CostModel:
    """Per-zone thermal prices on a grid.

    ``prices_usd_per_kwh[i-1, k]`` is the price of delivered thermal
    energy in zone i during step k. Fixed cost offsets are not modelled:
    they cancel in every savings quantity.
    """

    prices_usd_per_kwh: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.prices_usd_per_kwh, dtype=float))
        if not np.all(np.isfinite(p)):
            raise ValueError("prices contain non-finite values")
        object.__setattr__(self, "prices_usd_per_kwh", _readonly(p))

    @classmethod
    def uniform(cls, price: "Signal | np.ndarray", n: int) -> "CostModel":
        """Same price signal for every zone."""
        v = as_values(price)
        return cls(np.tile(v, (n, 1)))

    def zone_price(self, zone: int) -> np.ndarray:
        return self.prices_usd_per_kwh[zone - 1]


@dataclass(frozen=True)
class Trajectory:
    """Sampled result of one operating scenario.

    Attributes:
        grid: the simulation grid.
        temps_c: (K+1, n) zone temperature samples.
        powers_kw: (K, n) per-step equipment thermal power. For zones whose
            power varies inside a step (setpoint trackers reacting to a
            simulated neighbour) this holds the step average, chosen so
            that step_energy = powers_kw * dt exactly.
        gains_kw: (K, n) exogenous heat gains.
        outdoor_c: (K,) outdoor temperature.
        temp_integrals_c_h: (K, n) exact within-step integrals of the
            continuous zone temperature over each step [degC*h]. Held
            zones contribute setpoint*dt; simulated zones use the exact
            hold-input integral matrices.
    """

    grid: TimeGrid
    temps_c: np.ndarray
    powers_kw: np.ndarray
    gains_kw: np.ndarray
    outdoor_c: np.ndarray
    temp_integrals_c_h: np.ndarray = field(repr=False)

    def __post_init__(self):
        k = self.grid.steps
        temps = _readonly(np.atleast_2d(self.temps_c))
        n = temps.shape[1]
        for name, arr, shape in (
            ("temps_c", temps, (k + 1, n)),
            ("powers_kw", np.atleast_2d(self.powers_kw), (k, n)),
            ("gains_kw", np.atleast_2d(self.gains_kw), (k, n)),
            ("outdoor_c", np.atleast_1d(self.outdoor_c), (k,)),
            ("temp_integrals_c_h", np.atleast_2d(self.temp_integrals_c_h), (k, n)),
        ):
            arr = np.asarray(arr, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, _readonly(arr))

    @property
    def n(self) -> int:
        return self.temps_c.shape[1]

    def zone_temps(self, zone: int) -> np.ndarray:
        return self.temps_c[:, zone - 1]

    def zone_power(self, zone: int) -> np.ndarray:
        return self.powers_kw[:, zone - 1]
