"""Savings accounting for partial advanced-control experiments.

Comparing a baseline run against an experiment that controls only some
zones, ``savings_report`` computes:

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

from .model import CostModel, ThermalNetwork, Trajectory
from .scenario import SetpointPlan

__all__ = [
    "ZoneSavings",
    "SavingsReport",
    "GeometryCase",
    "BoundaryMismatchWarning",
    "savings_report",
    "conductance_ratios",
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
    """Cost comparison for one zone (price-weighted thermal energy).

    ``savings_usd`` is the price-weighted drop in metered power, the term
    the report's naive and true savings sum, so it may differ from
    baseline minus experiment cost in the last bits.
    """

    zone: int
    baseline_cost_usd: float
    experiment_cost_usd: float
    savings_usd: float


@dataclass(frozen=True)
class SavingsReport:
    """All savings estimates for one baseline/experiment pair [$].

    Attributes:
        naive_controlled_usd: metered savings of the controlled zones only
            (the biased headline).
        overestimation_error_usd: the cost the uncontrolled zones take on
            (sum_ij alpha_ij int a_j x_i, i controlled and j not, when they
            are pinned); 0.0 when every zone is controlled.
        corrected_form_a_usd: whole-building savings from zone temperatures
            alone, exact for any start and end state.
        corrected_form_b_usd: form a summed by parts. When a zone starts or
            ends off its baseline it falls short by the boundary term
            sum_z C_z (a_z(K-1) x_z(K) - a_z(0) x_z(0)), which a
            BoundaryMismatchWarning reports.
        oracle_true_usd: metered savings summed over every zone.
        per_zone: each zone's metered costs and savings, zones numbered
            1..n; their savings sum to the true and, over the controlled
            zones, to the naive savings bit for bit.
        relative_error: overestimation error over true savings, or None
            when the true savings are too close to zero for the ratio to
            mean anything.
    """

    naive_controlled_usd: float
    overestimation_error_usd: float
    corrected_form_a_usd: float
    corrected_form_b_usd: float
    oracle_true_usd: float
    per_zone: tuple[ZoneSavings, ...]
    relative_error: float | None


def _check(base: Trajectory, exp: Trajectory, net: ThermalNetwork, cost: CostModel, plan: SetpointPlan) -> None:
    """Refuse runs, prices, network or plan that do not describe one building."""
    grid_a, grid_b = base.grid, exp.grid
    if (grid_a.steps, grid_a.dt_h, base.n) != (grid_b.steps, grid_b.dt_h, exp.n):
        raise ValueError(
            "trajectories disagree on grid or zone count: "
            f"({grid_a.steps} steps, {base.n} zones) vs ({grid_b.steps} steps, {exp.n} zones)"
        )
    if (shape := cost.prices_usd_per_kwh.shape) != (base.n, grid_a.steps):
        raise ValueError(f"prices have shape {shape}, expected {(base.n, grid_a.steps)} (zones, steps)")
    for what, other in (("network has", net), ("plan covers", plan)):
        if other.n != base.n:
            raise ValueError(f"{what} {other.n} zones, trajectories have {base.n}")


def _zone_savings(
    base: Trajectory, exp: Trajectory, net: ThermalNetwork, cost: CostModel
) -> tuple[np.ndarray, np.ndarray]:
    """Each zone's savings [$] from its heat balance, as (n,) vectors of forms "a" and "b".

    Zone z saves the price-weighted integral of C_z dx_z/dt + (L x)_z, L
    being the conductance Laplacian with the outdoor conductance on its
    diagonal: conduction from the exact step integrals of x, storage from
    sum_k a(k) (x(k+1) - x(k)) (form "a") or its summation by parts
    without the boundary term, -sum_k (a(k) - a(k-1)) x(k) (form "b").
    """
    alpha = net.conductances_kw_per_c
    laplacian = np.diag(alpha[1:].sum(axis=1)) - alpha[1:, 1:]
    a = cost.prices_usd_per_kwh.T
    x = base.temps_c - exp.temps_c
    conduction = (a * ((base.temp_integrals_c_h - exp.temp_integrals_c_h) @ laplacian)).sum(axis=0)
    storage_a = (a * np.diff(x, axis=0)).sum(axis=0)
    storage_b = -(np.diff(a, axis=0) * x[1:-1]).sum(axis=0)
    caps = net.capacitances_kwh_per_c
    return conduction + caps * storage_a, conduction + caps * storage_b


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


def savings_report(
    base: Trajectory, exp: Trajectory, net: ThermalNetwork, cost: CostModel, plan: SetpointPlan
) -> SavingsReport:
    """Assemble every estimate plus a per-zone cost breakdown."""
    _check(base, exp, net, cost, plan)
    dt = base.grid.dt_h
    # Each zone's metered savings, summed over contiguous rows: a strided column may sum in another order.
    dq = (base.powers_kw - exp.powers_kw).T.copy()
    saved = [float(a @ d) * dt for a, d in zip(cost.prices_usd_per_kwh, dq)]
    rows = []
    for i, price in enumerate(cost.prices_usd_per_kwh, 1):
        base_cost, exp_cost = (float(price @ t.powers_kw[:, i - 1]) * dt for t in (base, exp))
        rows.append(ZoneSavings(i, base_cost, exp_cost, saved[i - 1]))
    naive = sum(saved[i - 1] for i in plan.controlled)
    zone_a, zone_b = _zone_savings(base, exp, net, cost)
    # 0.0 - s rather than -s: with no uncontrolled zone the error is 0.0, not -0.0.
    error = 0.0 - float(zone_a[np.asarray(plan.uncontrolled, dtype=int) - 1].sum())
    _warn_off_baseline(base, exp, net, cost)
    true = sum(saved)
    vanishing = abs(true) < 1e-9 * max(abs(naive), _RELATIVE_ERROR_FLOOR_USD)
    return SavingsReport(
        naive_controlled_usd=naive,
        overestimation_error_usd=error,
        corrected_form_a_usd=float(zone_a.sum()),
        corrected_form_b_usd=float(zone_b.sum()),
        oracle_true_usd=true,
        per_zone=tuple(rows),
        relative_error=None if vanishing else error / true,
    )


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


def conductance_ratios(net: ThermalNetwork, controlled: tuple[int, ...]) -> tuple[float, ...]:
    """r_i = sum_{j uncontrolled} alpha_ij / alpha_i0 of each controlled zone i, zones numbered 1..n.

    By the rule of ``geometry_relative_error``: 0 without an uncontrolled
    neighbour, inf without an outdoor conductance. Under a constant price,
    with the uncontrolled zones on their setpoints and every zone starting
    and ending at its baseline temperature, error / true = sum_i alpha_i0
    X_i r_i / sum_i alpha_i0 X_i, X_i being the drop in zone i's temperature
    integral: r_1 exactly with one controlled zone, in any network. With
    several, it lies in [min r, max r] for sure only when every X_i has one sign.
    """
    if not all(1 <= i <= net.n for i in controlled):
        raise ValueError(f"controlled zones {tuple(controlled)} out of range 1..{net.n}")
    alpha = net.conductances_kw_per_c
    uncontrolled = [j for j in range(1, net.n + 1) if j not in controlled]
    return tuple(
        geometry_relative_error(GeometryCase(float(alpha[i, uncontrolled].sum()), float(alpha[i, 0]), 1.0, 1.0))
        for i in controlled
    )
