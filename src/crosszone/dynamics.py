"""Exact zero-order-hold discretization and simulation of thermal networks.

The continuous dynamics of zone i are

    C_i dT_i/dt = sum_j alpha_ij (T_j - T_i) + q_i + w_i,

with node 0 the outdoor air. With all inputs held constant over each step,
the sampled solution and the within-step integral of T are both exact
linear maps of (T(k), q(k), w(k), T0(k)). Both sets of matrices come from
a single augmented matrix exponential: for

    M = [[A, I, 0],
         [0, 0, I],
         [0, 0, 0]],

exp(M dt) has top blocks [Phi, J1, J2] with Phi = exp(A dt),
J1 = int_0^dt exp(A s) ds and J2 = int_0^dt (dt - s) exp(A s) ds. J1 maps
held inputs to the next sample, J2 maps them into the within-step integral.
Carrying the integral matrices around is what lets the savings accounting
treat piecewise-constant prices exactly instead of quadrature-approximately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import matrix_exp
from .model import Signal, ThermalNetwork, TimeGrid, Trajectory, as_values

__all__ = [
    "DiscreteModel",
    "discretize",
    "controlled_subsystem",
    "simulate",
    "step_integrals",
]


@dataclass(frozen=True)
class DiscreteModel:
    """One-step exact discretization of a (sub)network.

    The state covers the zones passed to ``discretize``, in that order.
    For a submodel, couplings to omitted zones appear only as extra loss
    terms on the diagonal; the heat inflow ``alpha_ij * T_j`` from omitted
    zones held at fixed temperatures is part of the gain input w, as
    ``controlled_subsystem`` returns it.

    Power q and gains w enter a zone alike and share one input matrix:
        T(k+1) = phi T(k) + gamma_q (q(k) + w(k)) + gamma_0 T0(k)
    and the exact within-step integral of the continuous solution is
        int T dt = iphi T(k) + igamma_q (q(k) + w(k)) + igamma_0 T0(k).
    """

    grid: TimeGrid
    phi: np.ndarray
    gamma_q: np.ndarray
    gamma_0: np.ndarray
    iphi: np.ndarray
    igamma_q: np.ndarray
    igamma_0: np.ndarray

    @property
    def size(self) -> int:
        return self.phi.shape[0]


def _continuous_matrices(net: ThermalNetwork, zones: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """State matrix A and outdoor input column b0 for the selected zones.

    The diagonal keeps the full coupling sum over *all* nodes, so a
    submodel sees omitted zones as fixed-temperature boundaries.
    """
    alpha = net.conductances_kw_per_c
    c = net.capacitances_kwh_per_c
    idx = np.asarray(zones, dtype=int)
    a = alpha[np.ix_(idx, idx)] / c[idx - 1][:, None]
    np.fill_diagonal(a, -alpha[idx].sum(axis=1) / c[idx - 1])
    b0 = alpha[idx, 0] / c[idx - 1]
    return a, b0


def discretize(net: ThermalNetwork, grid: TimeGrid, zones: tuple[int, ...] | None = None) -> DiscreteModel:
    """Build the exact one-step model for ``net`` on ``grid``.

    Args:
        net: thermal network.
        grid: simulation grid supplying the step length.
        zones: optional subset of 1-based zone numbers; defaults to all
            zones. With a subset, omitted zones act as boundaries (see
            DiscreteModel).

    Returns:
        DiscreteModel with transition, input, and integral matrices.
    """
    if zones is None:
        zones = tuple(range(1, net.n + 1))
    else:
        zones = tuple(zones)
        if len(set(zones)) != len(zones) or any(z < 1 or z > net.n for z in zones):
            raise ValueError(f"zone subset {zones} invalid for n={net.n}")
    a, b0 = _continuous_matrices(net, zones)
    s = len(zones)
    dt = grid.dt_h

    aug = np.zeros((3 * s, 3 * s))
    aug[:s, :s] = a
    aug[:s, s : 2 * s] = np.eye(s)
    aug[s : 2 * s, 2 * s :] = np.eye(s)
    big = matrix_exp(aug * dt)
    phi = big[:s, :s]
    j1 = big[:s, s : 2 * s]
    j2 = big[:s, 2 * s :]

    inv_c = 1.0 / net.capacitances_kwh_per_c[np.asarray(zones) - 1]
    return DiscreteModel(
        grid=grid,
        phi=phi,
        gamma_q=j1 * inv_c[None, :],
        gamma_0=j1 @ b0,
        iphi=j1,
        igamma_q=j2 * inv_c[None, :],
        igamma_0=j2 @ b0,
    )


def controlled_subsystem(
    net: ThermalNetwork, grid: TimeGrid, zones: tuple[int, ...], pinned_c: np.ndarray, gains_kw: np.ndarray
) -> tuple[DiscreteModel, np.ndarray]:
    """Exact model of the sub-network of ``zones`` with every other zone pinned.

    ``pinned_c`` holds all n zone temperatures [degC]; the entries of the
    zones outside ``zones`` are the fixed boundary values. ``gains_kw``
    holds the (K, n) exogenous gains of all zones. Returns the
    sub-network's DiscreteModel and its (K, len(zones)) gain input: each
    zone's own gains plus the constant heat inflow ``sum_j alpha_ij T_j``
    [kW] from the pinned zones.
    """
    sub = discretize(net, grid, zones=zones)
    rows = np.asarray(zones, dtype=int)
    boundary_kw = np.zeros(len(rows))
    for j in range(1, net.n + 1):
        if j not in zones:
            boundary_kw += net.conductances_kw_per_c[rows, j] * pinned_c[j - 1]
    return sub, gains_kw[:, rows - 1] + boundary_kw


def step_integrals(
    model: DiscreteModel, temps: np.ndarray, q: np.ndarray, w: np.ndarray, t0: np.ndarray
) -> np.ndarray:
    """Exact within-step integrals of T [degC*h], shape (K, size).

    ``temps`` holds the K+1 samples of the model's zones; ``q``, ``w`` and
    ``t0`` are the inputs held over each of the K steps.
    """
    # q and w take separate products (here and in simulate): (q + w) @ M
    # rounds differently and would move the last bits of every output.
    return (
        temps[:-1] @ model.iphi.T
        + q @ model.igamma_q.T
        + w @ model.igamma_q.T
        + np.outer(t0, model.igamma_0)
    )


def simulate(
    model: DiscreteModel,
    t_init: np.ndarray,
    q: np.ndarray,
    w: np.ndarray,
    outdoor: Signal | np.ndarray,
) -> Trajectory:
    """Propagate the exact discrete update from ``t_init``.

    Args:
        model: discretization to advance.
        t_init: initial zone temperatures [degC], length model.size.
        q: (K, size) equipment thermal power [kW], held per step.
        w: (K, size) exogenous gains [kW], held per step.
        outdoor: K-step outdoor temperature [degC].

    Returns:
        Trajectory over the model's zones, including the exact within-step
        temperature integrals.
    """
    k = model.grid.steps
    s = model.size
    t0 = as_values(outdoor, k)
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
    if q.shape != (k, s) or w.shape != (k, s):
        raise ValueError(f"powers shape {q.shape} and gains shape {w.shape}, expected {(k, s)} for both")
    t_init = np.asarray(t_init, dtype=float).reshape(s)

    temps = np.empty((k + 1, s))
    temps[0] = t_init
    # Per-step input contributions, vectorized over time.
    drive = q @ model.gamma_q.T + w @ model.gamma_q.T + np.outer(t0, model.gamma_0)
    for i in range(k):
        temps[i + 1] = model.phi @ temps[i] + drive[i]
    return Trajectory(
        grid=model.grid,
        temps_c=temps,
        powers_kw=q,
        gains_kw=w,
        outdoor_c=t0,
        temp_integrals_c_h=step_integrals(model, temps, q, w, t0),
    )

