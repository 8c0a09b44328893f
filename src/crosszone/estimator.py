"""Savings accounting for partial advanced-control experiments.

Comparing a baseline run against an experiment that controls only some
zones, this module computes:

* naive savings: the cost change summed over controlled zones only, which
  is what a controlled-zones-only measurement campaign observes;
* the cross-zone error: the exact amount by which the naive figure
  overstates whole-building savings, driven by heat exchange between
  controlled and still-tracking zones;
* two equivalent corrected whole-building estimates that need only zone
  temperatures, conductances, capacitances, and prices (no metering of a
  counterfactual baseline);
* the brute-force truth: cost change summed over every zone, available in
  simulation and used to cross-check the corrected estimates.

Because trajectories carry exact within-step temperature integrals, the
identity naive - error = corrected = truth holds to rounding error, not
just to quadrature accuracy.
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
    "UncontrolledZonePerturbedError",
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

# Uncontrolled zones must be unperturbed for the error formula to apply.
UNPERTURBED_TOL_C = 1e-9

# Below this scale the true savings are effectively zero and a ratio to
# them is meaningless.
_RELATIVE_ERROR_FLOOR_USD = 0.01


class UncontrolledZonePerturbedError(ValueError):
    """An uncontrolled zone's temperature deviates between scenarios."""


class BoundaryMismatchWarning(UserWarning):
    """A controlled zone does not start and end at its baseline temperature.

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


def _require_unperturbed(base: Trajectory, exp: Trajectory, plan: SetpointPlan) -> None:
    for j in plan.uncontrolled:
        dev = float(np.abs(base.temps_c[:, j - 1] - exp.temps_c[:, j - 1]).max())
        if dev > UNPERTURBED_TOL_C:
            raise UncontrolledZonePerturbedError(
                f"uncontrolled zone {j} deviates by {dev:g} degC between scenarios; "
                "the cross-zone accounting assumes it is pinned"
            )


def overestimation_error(
    base: Trajectory,
    exp: Trajectory,
    net: ThermalNetwork,
    cost: CostModel,
    plan: SetpointPlan,
) -> float:
    """Amount by which controlled-zone savings overstate the truth [$].

    Sums, over every controlled/uncontrolled zone pair, the conductance
    times the neighbour-price-weighted integral of the controlled zone's
    temperature reduction.
    """
    _check_pair(base, exp)
    _require_unperturbed(base, exp, plan)
    alpha = net.conductances_kw_per_c
    total = 0.0
    for i in plan.controlled:
        for j in plan.uncontrolled:
            if alpha[i, j] != 0.0:
                total += alpha[i, j] * weighted_integral(base, exp, cost.zone_price(j), i)
    return total


def corrected_savings(
    base: Trajectory,
    exp: Trajectory,
    net: ThermalNetwork,
    cost: CostModel,
    plan: SetpointPlan,
    form: str = "a",
) -> float:
    """Whole-building savings from controlled-zone temperatures alone [$].

    Needs only the temperature deviations x_i = T_i - T~_i of the
    controlled zones, the conductances and capacitances, and the prices;
    in particular, no metered baseline energy for the uncontrolled zones.

    Both forms share the conduction part

        sum_i int [a_i alpha_i0 + sum_j alpha_ij (a_i - a_j)] x_i dt

    and differ in the storage part: form "a" integrates the price against
    dx (capacitance times the a_dx sum), form "b" integrates x against the
    price's breakpoint jumps (the x_da sum). Form "a" is exact for any
    start and end state. Form "b" equals it only when each controlled zone
    starts and ends at its baseline temperature; otherwise it falls short
    by the boundary term C_i (a_i(K-1) x_i(K) - a_i(0) x_i(0)), which a
    BoundaryMismatchWarning reports.
    """
    if form not in ("a", "b"):
        raise ValueError(f"form must be 'a' or 'b', got {form!r}")
    _check_pair(base, exp)
    _require_unperturbed(base, exp, plan)
    alpha = net.conductances_kw_per_c
    k = base.grid.steps
    total = 0.0
    for i in plan.controlled:
        a_i = cost.zone_price(i)
        own_price_term = weighted_integral(base, exp, a_i, i)
        total += alpha[i, 0] * own_price_term
        for j in range(1, net.n + 1):
            if alpha[i, j] != 0.0:
                total += alpha[i, j] * (
                    own_price_term - weighted_integral(base, exp, cost.zone_price(j), i)
                )
        if form == "b":
            x0 = float(base.temps_c[0, i - 1] - exp.temps_c[0, i - 1])
            xk = float(base.temps_c[k, i - 1] - exp.temps_c[k, i - 1])
            if max(abs(x0), abs(xk)) > UNPERTURBED_TOL_C:
                boundary = net.capacitance(i) * (a_i[k - 1] * xk - a_i[0] * x0)
                warnings.warn(
                    f"controlled zone {i} does not start and end at its baseline state "
                    f"(x(0)={x0:g}, x(end)={xk:g}); form b misses the boundary term "
                    f"{boundary:g} $ (form a minus form b)",
                    BoundaryMismatchWarning,
                    stacklevel=2,
                )
        mode = "a_dx" if form == "a" else "x_da"
        total += net.capacitance(i) * stieltjes_integral(base, exp, a_i, i, mode)
    return total


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
        a = cost.zone_price(i)
        base_cost = float(a @ base.powers_kw[:, i - 1]) * dt
        exp_cost = float(a @ exp.powers_kw[:, i - 1]) * dt
        rows.append(
            ZoneSavings(
                zone=i,
                baseline_cost_usd=base_cost,
                experiment_cost_usd=exp_cost,
                savings_usd=base_cost - exp_cost,
            )
        )
    naive = naive_savings(base, exp, cost, plan)
    error = overestimation_error(base, exp, net, cost, plan)
    true = oracle_true_savings(base, exp, cost)
    return SavingsReport(
        naive_controlled_usd=naive,
        overestimation_error_usd=error,
        corrected_form_a_usd=corrected_savings(base, exp, net, cost, plan, "a"),
        corrected_form_b_usd=corrected_savings(base, exp, net, cost, plan, "b"),
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
