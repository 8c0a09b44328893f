"""Savings accounting for partial advanced-control experiments.

Comparing a baseline run against an experiment that controls only some
zones, this module computes:

* naive savings: the cost change summed over controlled zones only, which
  is what a controlled-zones-only measurement campaign observes;
* the cross-zone error: the cost the uncontrolled zones take on, by which
  the naive figure overstates whole-building savings;
* two equivalent corrected whole-building estimates that need only zone
  temperatures, conductances, capacitances, and prices (no metering of a
  counterfactual baseline);
* the brute-force truth: cost change summed over every zone, available in
  simulation and used to cross-check the corrected estimates.

The error and the corrected estimates come from one heat balance per
zone: with x = T_base - T_exp, zone z saves the price-weighted integral
of C_z dx_z/dt + (L x)_z, L being the conductance Laplacian. Summed over
every zone this is exact whether or not the uncontrolled zones hold
their setpoints. Because trajectories carry exact within-step temperature
integrals, the identity naive - error = corrected = truth holds to
rounding error, not just to quadrature accuracy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import CostModel, Signal, ThermalNetwork, Trajectory, as_values
from .scenario import SetpointPlan

__all__ = [
    "ZoneSavings",
    "SavingsReport",
    "GeometryCase",
    "BoundaryMismatchWarning",
    "weighted_integral",
    "stieltjes_integral",
    "per_zone_savings",
    "naive_savings",
    "overestimation_error",
    "corrected_savings",
    "oracle_true_savings",
    "savings_report",
    "two_zone_relative_error",
    "geometry_relative_error",
]

# Form "b" falls short of form "a" when a zone starts or ends further than this from its baseline.
_BOUNDARY_TOL_C = 1e-9

# Below this scale the true savings are effectively zero and a ratio to
# them is meaningless.
_RELATIVE_ERROR_FLOOR_USD = 0.01


class BoundaryMismatchWarning(UserWarning):
    """A zone does not start and end at its baseline temperature.

    Corrected form "b" then misses a boundary term that form "a" includes.
    """


@dataclass(frozen=True)
class ZoneSavings:
    """Cost comparison for one zone (price-weighted thermal energy)."""

    zone: int
    baseline_cost_usd: float
    experiment_cost_usd: float
    savings_usd: float


@dataclass(frozen=True)
class SavingsReport:
    """All savings estimates for one baseline/experiment pair.

    ``relative_error`` is overestimation error over true savings, or None
    when the true savings are too close to zero for the ratio to mean
    anything.
    """

    naive_controlled_usd: float
    overestimation_error_usd: float
    corrected_form_a_usd: float
    corrected_form_b_usd: float
    oracle_true_usd: float
    per_zone: tuple[ZoneSavings, ...]
    relative_error: float | None


def _check_pair(traj_a: Trajectory, traj_b: Trajectory) -> None:
    grid_a, grid_b = traj_a.grid, traj_b.grid
    if (grid_a.steps, grid_a.dt_h, traj_a.n) != (grid_b.steps, grid_b.dt_h, traj_b.n):
        raise ValueError(
            "trajectories disagree on grid or zone count: "
            f"({grid_a.steps} steps, {traj_a.n} zones) vs "
            f"({grid_b.steps} steps, {traj_b.n} zones)"
        )


def weighted_integral(
    traj_a: Trajectory,
    traj_b: Trajectory,
    price: Signal | np.ndarray,
    zone: int,
) -> float:
    """Exact integral of price(t) * (T_zone^a(t) - T_zone^b(t)) dt.

    The price is piecewise constant per step, so the integral reduces to a
    price-weighted sum of the trajectories' exact per-step temperature
    integrals. Units: price-unit * degC * h.
    """
    _check_pair(traj_a, traj_b)
    a = as_values(price, traj_a.grid.steps)
    diff = traj_a.temp_integrals_c_h[:, zone - 1] - traj_b.temp_integrals_c_h[:, zone - 1]
    return float(a @ diff)


def stieltjes_integral(
    traj_a: Trajectory,
    traj_b: Trajectory,
    price: Signal | np.ndarray,
    zone: int,
    mode: str,
) -> float:
    """Stieltjes-type sums pairing a step price with a temperature change.

    With x(k) the sampled difference T_zone^a - T_zone^b:

    * ``"a_dx"``: sum_k a(k) (x(k+1) - x(k)), the exact value of
      int a dx for piecewise-constant a.
    * ``"x_da"``: -sum over price breakpoints of (a_after - a_before) x(k),
      the integral of x against the distributional derivative of a.

    The two agree (summation by parts) whenever x(0) = x(K) = 0.
    Units: price-unit * degC.
    """
    _check_pair(traj_a, traj_b)
    k = traj_a.grid.steps
    a = as_values(price, k)
    x = traj_a.temps_c[:, zone - 1] - traj_b.temps_c[:, zone - 1]
    if mode == "a_dx":
        return float(a @ np.diff(x))
    if mode == "x_da":
        return float(-(np.diff(a) @ x[1:k]))
    raise ValueError(f"mode must be 'a_dx' or 'x_da', got {mode!r}")


def per_zone_savings(base: Trajectory, exp: Trajectory, cost: CostModel, zone: int) -> float:
    """Cost savings realized in one zone [$].

    Price-weighted difference of delivered thermal energy; fixed cost
    offsets cancel between the scenarios and never enter.
    """
    _check_pair(base, exp)
    a = cost.zone_price(zone)
    dq = base.powers_kw[:, zone - 1] - exp.powers_kw[:, zone - 1]
    return float(a @ dq) * base.grid.dt_h


def naive_savings(base: Trajectory, exp: Trajectory, cost: CostModel, plan: SetpointPlan) -> float:
    """Savings summed over controlled zones only (the biased headline)."""
    return sum(per_zone_savings(base, exp, cost, i) for i in plan.controlled)


def oracle_true_savings(base: Trajectory, exp: Trajectory, cost: CostModel) -> float:
    """Whole-building savings: cost change summed over every zone [$]."""
    _check_pair(base, exp)
    return sum(per_zone_savings(base, exp, cost, i) for i in range(1, base.n + 1))


def _zone_savings(
    base: Trajectory, exp: Trajectory, net: ThermalNetwork, cost: CostModel, form: str
) -> np.ndarray:
    """Each zone's savings [$] from its heat balance, as an (n,) vector.

    Zone z saves the price-weighted integral of C_z dx_z/dt + (L x)_z, L
    being the conductance Laplacian with the outdoor conductance on its
    diagonal: conduction from the exact step integrals of x, storage from
    the a_dx sum (form "a") or the x_da sum (form "b").
    """
    if form not in ("a", "b"):
        raise ValueError(f"form must be 'a' or 'b', got {form!r}")
    _check_pair(base, exp)
    alpha = net.conductances_kw_per_c
    laplacian = np.diag(alpha[1:].sum(axis=1)) - alpha[1:, 1:]
    a = cost.prices_usd_per_kwh.T
    if a.shape != base.powers_kw.shape:
        raise ValueError(f"prices have shape {a.T.shape}, expected {base.powers_kw.T.shape} (zones, steps)")
    x = base.temps_c - exp.temps_c
    conduction = (a * ((base.temp_integrals_c_h - exp.temp_integrals_c_h) @ laplacian)).sum(axis=0)
    if form == "a":
        storage = (a * np.diff(x, axis=0)).sum(axis=0)
    else:
        storage = -(np.diff(a, axis=0) * x[1:-1]).sum(axis=0)
    return conduction + net.capacitances_kwh_per_c * storage


def _warn_off_baseline(base: Trajectory, exp: Trajectory, net: ThermalNetwork, cost: CostModel) -> None:
    """Warn, at the caller's caller, about zones that make form "b" fall short."""
    x = base.temps_c[[0, -1]] - exp.temps_c[[0, -1]]
    off = np.nonzero(np.abs(x).max(axis=0) > _BOUNDARY_TOL_C)[0]
    if off.size:
        a = cost.prices_usd_per_kwh
        boundary = net.capacitances_kwh_per_c[off] * (a[off, -1] * x[1, off] - a[off, 0] * x[0, off])
        zones = "; ".join(
            f"zone {z + 1} does not start and end at its baseline state "
            f"(x(0)={x[0, z]:g}, x(end)={x[1, z]:g})"
            for z in off
        )
        warnings.warn(
            f"form b misses the boundary term {boundary.sum():g} $ (form a minus form b): {zones}",
            BoundaryMismatchWarning,
            stacklevel=3,
        )


def _uncontrolled_cost(zone_savings: np.ndarray, plan: SetpointPlan) -> float:
    # 0.0 - s rather than -s: with no uncontrolled zone the error is 0.0, not -0.0.
    return 0.0 - float(zone_savings[np.asarray(plan.uncontrolled, dtype=int) - 1].sum())


def overestimation_error(
    base: Trajectory,
    exp: Trajectory,
    net: ThermalNetwork,
    cost: CostModel,
    plan: SetpointPlan,
) -> float:
    """Amount by which controlled-zone savings overstate the truth [$].

    The cost the uncontrolled zones take on, from their heat balance; with
    pinned neighbours, sum_ij alpha_ij int a_j x_i (i controlled, j not).
    """
    return _uncontrolled_cost(_zone_savings(base, exp, net, cost, "a"), plan)


def corrected_savings(
    base: Trajectory,
    exp: Trajectory,
    net: ThermalNetwork,
    cost: CostModel,
    form: str = "a",
) -> float:
    """Whole-building savings from zone temperatures alone [$].

    Sums every zone's heat balance: conductances, capacitances, prices and
    the temperature differences x = T_base - T_exp, with no metered
    energy. Zones that no one controlled but that moved contribute too, so
    the neighbours need not be pinned. Form "a" is exact for any start and
    end state. Form "b" equals it only when every zone starts and ends at
    its baseline temperature; otherwise it falls short by the boundary term
    sum_z C_z (a_z(K-1) x_z(K) - a_z(0) x_z(0)), which a
    BoundaryMismatchWarning reports.
    """
    savings = _zone_savings(base, exp, net, cost, form)
    if form == "b":
        _warn_off_baseline(base, exp, net, cost)
    return float(savings.sum())


def _relative_error(error_usd: float, true_usd: float, naive_usd: float) -> float | None:
    if abs(true_usd) < 1e-9 * max(abs(naive_usd), _RELATIVE_ERROR_FLOOR_USD):
        return None
    return error_usd / true_usd


def savings_report(
    base: Trajectory,
    exp: Trajectory,
    net: ThermalNetwork,
    cost: CostModel,
    plan: SetpointPlan,
) -> SavingsReport:
    """Assemble every estimate plus a per-zone cost breakdown."""
    dt = base.grid.dt_h
    rows = []
    for i in range(1, base.n + 1):
        base_cost, exp_cost = (float(cost.zone_price(i) @ t.powers_kw[:, i - 1]) * dt for t in (base, exp))
        rows.append(ZoneSavings(i, base_cost, exp_cost, base_cost - exp_cost))
    naive = naive_savings(base, exp, cost, plan)
    zone_a = _zone_savings(base, exp, net, cost, "a")
    error = _uncontrolled_cost(zone_a, plan)
    _warn_off_baseline(base, exp, net, cost)
    true = oracle_true_savings(base, exp, cost)
    return SavingsReport(
        naive_controlled_usd=naive,
        overestimation_error_usd=error,
        corrected_form_a_usd=float(zone_a.sum()),
        corrected_form_b_usd=float(_zone_savings(base, exp, net, cost, "b").sum()),
        oracle_true_usd=true,
        per_zone=tuple(rows),
        relative_error=_relative_error(error, true, naive),
    )


def two_zone_relative_error(net: ThermalNetwork) -> float:
    """Closed-form relative error for a two-zone building, zone 1 controlled.

    With constant (or slowly varying) prices the overestimation error over
    the true savings equals the interior-to-exterior conductance ratio of
    the controlled zone. Infinite when the controlled zone has no direct
    outdoor coupling: every perceived dollar is then fictitious.
    """
    if net.n != 2:
        raise ValueError(f"closed form applies to 2-zone networks, got n={net.n}")
    a12 = net.conductance(1, 2)
    a10 = net.conductance(1, 0)
    if a10 == 0.0:
        return math.inf
    return a12 / a10


@dataclass(frozen=True)
class GeometryCase:
    """Wall-construction description of a controlled zone.

    ``u_int``/``u_ext`` are overall heat transfer coefficients
    [kW/(degC m^2)] of interior and exterior walls; ``a_int``/``a_ext``
    the corresponding areas [m^2]. All four must be finite and
    nonnegative.
    """

    u_int: float
    u_ext: float
    a_int: float
    a_ext: float

    def __post_init__(self):
        if not all(0 <= v < math.inf for v in (self.u_int, self.u_ext, self.a_int, self.a_ext)):
            raise ValueError("heat transfer coefficients and areas must be finite and nonnegative")

    @classmethod
    def square_footprint(cls, exterior_walls: int, insulation_ratio: float) -> "GeometryCase":
        """Box-shaped zone with a square footprint and adiabatic floor/ceiling.

        ``exterior_walls`` (an integer in 0..4) of the four equal walls face
        outdoors; the rest are interior. ``insulation_ratio`` is u_int/u_ext.
        """
        if exterior_walls not in range(5):
            raise ValueError(f"exterior wall count must be an integer in 0..4, got {exterior_walls}")
        return cls(u_int=insulation_ratio, u_ext=1.0, a_int=4.0 - exterior_walls, a_ext=1.0 * exterior_walls)


def geometry_relative_error(case: GeometryCase) -> float:
    """Relative savings overestimation implied by wall construction.

    The interior-to-exterior ratio of (heat transfer coefficient times
    area). Zero when there are no interior walls (detached zone, estimates
    exact); infinite when there are no exterior walls (interior zone, no
    true savings).
    """
    interior = case.u_int * case.a_int
    exterior = case.u_ext * case.a_ext
    if interior == 0.0:
        return 0.0
    if exterior == 0.0:
        return math.inf
    return interior / exterior
