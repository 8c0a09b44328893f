"""Linear-programming controller for the controlled zones.

The advanced controller minimizes the thermal-price-weighted energy of the
controlled zones over the horizon, subject to the exact discretization of
their sub-network dynamics (equality rows), fixed start and end
temperatures at the baseline setpoints, nonnegative heating power, and a
per-step comfort band around the setpoint.

Problems are solved by a self-contained revised simplex over bounded
variables (two phases). The constraint matrix is kept as sparse columns of
its nonzeros and the artificial columns are implicit; the basis inverse is
dense and explicit, updated per pivot and refactorized periodically by
triangular substitution over the basis's column singletons plus a dense
inverse of the kernel they leave (Hellerman & Rarick, "Reinversion with the
preassigned pivot procedure", Math. Programming 1, 1971). The duals are
updated per pivot from the new row of the inverse and recomputed exactly at
each refactor and at the end of each phase. Pivot column d = B^-1 a_j and
the new row of the inverse are hyper-sparse (Hall & McKinnon, "Hyper-sparsity
in the revised simplex method and how to exploit it", Comput. Optim. Appl.
32, 2005), so the ratio test and the primal update run over the support of
d, the rank-one update of the inverse over the support of d times that of
the row, and the dual update over the row's. Pricing is
most-negative-reduced-cost over a per-column bound weight (-1 at a lower
bound, +1 at an upper bound, 0 when basic or fixed) kept up to date per
pivot, with an automatic switch to Bland's rule after a run of degenerate
pivots, so the method is deterministic and cannot cycle.
Optimality is certified independently of the pivot path by recomputing the
KKT residuals from (x, y) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import controlled_subsystem
from .model import Signal, ThermalNetwork, TimeGrid, as_values
from .scenario import SetpointPlan, clock_segments

__all__ = [
    "ComfortSchedule",
    "LpProblem",
    "LpSolution",
    "KktResiduals",
    "FarkasCertificate",
    "ControlOptimum",
    "InfeasibleControlError",
    "build_control_lp",
    "solve_lp",
    "kkt_residuals",
    "optimize_controlled_zones",
]

_KKT_TOL = 1e-8
_PIVOT_TOL = 1e-10
_DEGENERATE_RUN_LIMIT = 40
_REFACTOR_EVERY = 100


@dataclass(frozen=True)
class ComfortSchedule:
    """Per-step allowed temperature deviation from the setpoint [degC]."""

    delta_c: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.delta_c, dtype=float))
        if not np.all(np.isfinite(d)) or np.any(d < 0):
            raise ValueError("comfort band must be finite and nonnegative")
        object.__setattr__(self, "delta_c", d)

    @classmethod
    def from_bands(
        cls,
        grid: TimeGrid,
        tight_band_c: float,
        wide_band_c: float,
        tight_windows: list[tuple[float, float]],
    ) -> "ComfortSchedule":
        """Tight band inside the given clock windows, wide band elsewhere.

        Windows are half-open [start, end) clock hours, read by
        ``scenario.clock_segments``.
        """
        hod = grid.step_hours_of_day()
        delta = np.full(grid.steps, float(wide_band_c))
        for start, end in tight_windows:
            for s, e in clock_segments(start, end):
                delta[(hod >= s) & (hod < e)] = float(tight_band_c)
        return cls(delta)


@dataclass(frozen=True)
class LpProblem:
    """min c.x subject to a_eq x = b_eq and lower <= x <= upper.

    Bounds may be infinite. ``names`` labels each column for diagnostics.
    """

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        a = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        b = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        n = c.shape[0]
        if a.shape != (b.shape[0], n):
            raise ValueError(f"a_eq shape {a.shape} inconsistent with {b.shape[0]} rows, {n} cols")
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError("bound vectors must match the number of variables")
        if not np.all(np.isfinite(c)):
            raise ValueError("cost vector must be finite")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("equality data must be finite")
        names = tuple(self.names) if self.names else tuple(f"x{j}" for j in range(n))
        if len(names) != n:
            raise ValueError("names length mismatch")
        for name, arr in (("c", c), ("a_eq", a), ("b_eq", b), ("lower", lo), ("upper", hi)):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "names", names)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.b_eq.shape[0]


@dataclass(frozen=True)
class KktResiduals:
    """Scaled feasibility and optimality residuals for an LP solution."""

    primal: float
    dual: float
    complementarity: float

    def max(self) -> float:
        return max(self.primal, self.dual, self.complementarity)


@dataclass(frozen=True)
class FarkasCertificate:
    """Evidence of infeasibility.

    For ``kind="rows"``, ``y`` prices the equality rows so that y.b
    exceeds the largest attainable y.Ax over the box by ``gap``.
    For ``kind="bounds"``, a single variable has lower > upper.
    """

    kind: str
    gap: float
    y: np.ndarray | None = None


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded | iteration-limit | uncertified
    x: np.ndarray | None
    y: np.ndarray | None
    objective: float | None
    residuals: KktResiduals | None
    iterations: int
    certificate: FarkasCertificate | None = None
    message: str = ""


def kkt_residuals(prob: LpProblem, x: np.ndarray, y: np.ndarray) -> KktResiduals:
    """First-order optimality residuals, computed from (x, y) alone."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = prob.lower, prob.upper
    r_eq = prob.a_eq @ x - prob.b_eq
    below = np.where(np.isfinite(lo), np.maximum(lo - x, 0.0), 0.0)
    above = np.where(np.isfinite(hi), np.maximum(x - hi, 0.0), 0.0)
    primal_scale = 1.0 + max(
        float(np.abs(prob.b_eq).max(initial=0.0)), float(np.abs(x).max(initial=0.0))
    )
    primal = max(float(np.abs(r_eq).max(initial=0.0)), float(below.max(initial=0.0)), float(above.max(initial=0.0)))

    z = prob.c - prob.a_eq.T @ y
    lo_inf = ~np.isfinite(lo)
    hi_inf = ~np.isfinite(hi)
    dual_viol = np.zeros_like(z)
    dual_viol[hi_inf] = np.maximum(-z[hi_inf], 0.0)
    dual_viol[lo_inf] = np.maximum(dual_viol[lo_inf], np.maximum(z[lo_inf], 0.0))
    dual_scale = 1.0 + float(np.abs(prob.c).max(initial=0.0))

    z_lo = np.maximum(z, 0.0)
    z_hi = np.maximum(-z, 0.0)
    comp_lo = np.zeros_like(z)
    fin = np.isfinite(lo)
    comp_lo[fin] = z_lo[fin] * np.abs(x[fin] - lo[fin])
    comp_hi = np.zeros_like(z)
    fin = np.isfinite(hi)
    comp_hi[fin] = z_hi[fin] * np.abs(hi[fin] - x[fin])
    comp_scale = 1.0 + abs(float(prob.c @ x))

    return KktResiduals(
        primal=primal / primal_scale,
        dual=float(dual_viol.max(initial=0.0)) / dual_scale,
        complementarity=max(float(comp_lo.max(initial=0.0)), float(comp_hi.max(initial=0.0))) / comp_scale,
    )


class _Simplex:
    """Bounded-variable revised simplex over [A | S], S = diag(sign) the artificials.

    A is held as column-ordered triplets of its nonzeros (``row``, ``col``,
    ``val``, column pointer ``col_start``); artificial column n + i is
    ``sign[i] * e_i`` and is never stored. The basis inverse is dense.
    """

    AT_LOWER, AT_UPPER, FREE, BASIC = 0, 1, 2, -1

    def __init__(self, prob: LpProblem):
        m, n = prob.n_rows, prob.n_vars
        self.m, self.n = m, n
        self.col, self.row = np.nonzero(prob.a_eq.T)
        self.val = prob.a_eq[self.row, self.col]
        self.col_start = np.searchsorted(self.col, np.arange(n + 1))
        x0 = np.where(
            np.isfinite(prob.lower), prob.lower, np.where(np.isfinite(prob.upper), prob.upper, 0.0)
        )
        resid = prob.b_eq - prob.a_eq @ x0
        self.sign = np.where(resid >= 0.0, 1.0, -1.0)
        self.b = prob.b_eq
        self.lower = np.concatenate([prob.lower, np.zeros(m)])
        self.upper = np.concatenate([prob.upper, np.full(m, np.inf)])
        self.x = np.concatenate([x0, np.abs(resid)])
        self.state = np.empty(n + m, dtype=int)
        self.state[:n] = np.where(
            np.isfinite(prob.lower),
            self.AT_LOWER,
            np.where(np.isfinite(prob.upper), self.AT_UPPER, self.FREE),
        )
        self.state[n:] = self.BASIC
        self.basis = np.arange(n, n + m)
        self.b_inv = np.diag(self.sign)
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.degenerate_run = 0
        self.y = np.zeros(m)

    def _price(self, y: np.ndarray) -> np.ndarray:
        """[A | S]^T y."""
        return np.concatenate(
            [np.bincount(self.col, weights=self.val * y[self.row], minlength=self.n), self.sign * y]
        )

    def _times(self, v: np.ndarray) -> np.ndarray:
        """[A | S] v."""
        return np.bincount(self.row, weights=self.val * v[self.col], minlength=self.m) + self.sign * v[self.n :]

    def _column(self, j: int) -> np.ndarray:
        """B^-1 times column j of [A | S]."""
        if j >= self.n:
            i = j - self.n
            return self.sign[i] * self.b_inv[:, i]
        nz = slice(self.col_start[j], self.col_start[j + 1])
        return self.b_inv[:, self.row[nz]] @ self.val[nz]

    def _basis_triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The basic columns of [A | S] as (row, basis position, value) triplets."""
        pos = np.full(self.n + self.m, -1)
        pos[self.basis] = np.arange(self.m)
        basic = pos[self.col] >= 0
        art = np.nonzero(pos[self.n :] >= 0)[0]
        return (
            np.concatenate([self.row[basic], art]),
            np.concatenate([pos[self.col[basic]], pos[self.n + art]]),
            np.concatenate([self.val[basic], self.sign[art]]),
        )

    def refactor(self) -> None:
        """Recompute B^-1, then the basic x, from the basis alone.

        Columns with a single entry outside the rows already taken are
        peeled off in rounds; ordered by round, they make B block upper
        triangular over the kernel left at the end, which alone is
        inverted densely. The rows of B^-1 are then filled by back
        substitution from the kernel to the first round. A singular basis
        raises ``np.linalg.LinAlgError``.
        """
        m = self.m
        rows, cols, vals = self._basis_triplets()
        row_round = np.full(m, -1)  # peeling round of each row; -1 for the kernel
        pivot_col = np.empty(m, dtype=int)  # basis position pivoting on each peeled row
        col_taken = np.zeros(m, dtype=bool)
        pivot = np.zeros(rows.size, dtype=bool)
        live = np.ones(rows.size, dtype=bool)  # entries in rows not yet taken
        rounds = []
        while True:
            single = live & (np.bincount(cols[live], minlength=m)[cols] == 1)
            if not single.any():
                break
            r, c = rows[single], cols[single]
            if np.bincount(r, minlength=m).max() > 1:
                raise np.linalg.LinAlgError("Singular matrix")  # two columns pivot on one row
            row_round[r] = len(rounds)
            pivot_col[r] = c
            col_taken[c] = True
            pivot |= single
            live &= row_round[rows] < 0
            rounds.append((r, c, vals[single]))

        kernel_rows, kernel_cols = np.nonzero(row_round < 0)[0], np.nonzero(~col_taken)[0]
        if kernel_rows.size:
            at_row, at_col = np.empty(m, dtype=int), np.empty(m, dtype=int)
            at_row[kernel_rows] = np.arange(kernel_rows.size)
            at_col[kernel_cols] = np.arange(kernel_cols.size)
            kernel = np.zeros((kernel_rows.size, kernel_cols.size))
            kernel[at_row[rows[live]], at_col[cols[live]]] = vals[live]
            self.b_inv = None  # no row of the old inverse is read: free it before LAPACK's buffers
            kernel = np.linalg.inv(kernel)
            self.b_inv = np.zeros((m, m))
            self.b_inv[np.ix_(kernel_cols, kernel_rows)] = kernel

        # Row r of B X = I, for the column c pivoting on it, reads
        # X[c] = (e_r - sum of B[r, c'] X[c'] over columns c' of later rounds
        # and the kernel) / B[r, c]; earlier rounds have no entry in row r.
        for t in range(len(rounds) - 1, -1, -1):
            r, c, v = rounds[t]
            self.b_inv[c] = 0.0
            self.b_inv[c, r] = 1.0
            off = np.nonzero(~pivot & (row_round[rows] == t))[0]
            off = off[np.argsort(rows[off], kind="stable")]
            slot = np.arange(off.size) - np.searchsorted(rows[off], rows[off])  # rank within its row
            # One entry per row at a time, so no row repeats within a scatter.
            for k in range(int(slot.max(initial=-1)) + 1):
                e = off[slot == k]
                terms = self.b_inv[cols[e]]
                terms *= vals[e, None]
                self.b_inv[pivot_col[rows[e]]] -= terms
            self.b_inv[c] /= v[:, None]

        x_nonbasic = self.x.copy()
        x_nonbasic[self.basis] = 0.0
        self.x[self.basis] = self.b_inv @ (self.b - self._times(x_nonbasic))
        self.pivots_since_refactor = 0

    def run_phase(self, c_phase: np.ndarray, max_iter: int, allow_unbounded: bool) -> str:
        dtol = _KKT_TOL * (1.0 + float(np.abs(c_phase).max(initial=0.0)))
        fixed = self.lower == self.upper
        # Pricing weight of each column: -1 at its lower bound, +1 at its
        # upper bound, 0 when basic or fixed, so the violation of a bounded
        # nonbasic column is max(weight * z, 0). Nonbasic free columns
        # price at |z|; once basic they never leave, as their room is infinite.
        weight = np.where(self.state == self.AT_LOWER, -1.0, np.where(self.state == self.AT_UPPER, 1.0, 0.0))
        weight[fixed] = 0.0
        free = (self.state == self.FREE).nonzero()[0]
        # y is recomputed as B^-T c_B at the start, after each refactor and
        # before the phase may stop; in between each pivot updates it.
        recompute, updated = True, False
        while True:
            if self.iterations >= max_iter:
                return "iteration-limit"
            if recompute:
                self.y = self.b_inv.T @ c_phase[self.basis]
                recompute, updated = False, False
            z = c_phase - self._price(self.y)
            viol = weight * z
            np.maximum(viol, 0.0, out=viol)
            viol[free] = np.abs(z[free])
            if self.degenerate_run > _DEGENERATE_RUN_LIMIT:
                j = int(np.argmax(viol > dtol))  # Bland: the first candidate
            else:
                j = int(np.argmax(viol))
            if not viol[j] > dtol:
                if not updated:
                    return "optimal"
                recompute = True
                continue
            self.iterations += 1

            if self.state[j] == self.AT_UPPER or (self.state[j] == self.FREE and z[j] > 0):
                sigma = -1.0
            else:
                sigma = 1.0
            d = self._column(j)
            # The ratio test and the primal update touch only the support of d.
            nz = d.nonzero()[0]
            moving = self.basis[nz]
            step = sigma * d[nz]
            xb = self.x[moving]
            t_limit = np.full(nz.size, np.inf)
            dec = step > _PIVOT_TOL
            t_limit[dec] = np.maximum(xb[dec] - self.lower[moving[dec]], 0.0) / step[dec]
            inc = step < -_PIVOT_TOL
            t_limit[inc] = np.maximum(self.upper[moving[inc]] - xb[inc], 0.0) / (-step[inc])
            t_basic = float(t_limit.min(initial=np.inf))
            span = self.upper[j] - self.lower[j]
            t = min(t_basic, span)

            if not np.isfinite(t):
                if allow_unbounded:
                    return "unbounded"
                raise ArithmeticError("feasibility phase reported an unbounded direction")

            if span <= t_basic + 1e-12 and np.isfinite(span):
                # Bound flip: variable crosses to its other bound, basis unchanged.
                self.x[moving] = xb - step * span
                self.x[j] += sigma * span
                self.state[j] = self.AT_UPPER if self.state[j] == self.AT_LOWER else self.AT_LOWER
                weight[j] = -weight[j]
                self.degenerate_run = 0
                continue

            near = (t_limit <= t + 1e-9 * (1.0 + abs(t))).nonzero()[0]
            leave = int(near[np.argmin(moving[near])])
            r = int(nz[leave])
            leaving = int(moving[leave])

            self.x[moving] = xb - step * t
            self.x[j] += sigma * t
            hit_lower = step[leave] > 0
            self.x[leaving] = self.lower[leaving] if hit_lower else self.upper[leaving]
            self.state[leaving] = self.AT_LOWER if hit_lower else self.AT_UPPER
            weight[leaving] = 0.0 if fixed[leaving] else (-1.0 if hit_lower else 1.0)
            if self.state[j] == self.FREE:
                free = free[free != j]
            self.state[j] = self.BASIC
            weight[j] = 0.0
            self.basis[r] = j

            # Rank-one update of B^-1 and y over the supports of d and of
            # the new row r.
            row = self.b_inv[r] / d[r]
            cols = row.nonzero()[0]
            self.b_inv[nz[:, None], cols] -= d[nz, None] * row[cols]
            self.b_inv[r] = row
            self.y[cols] += z[j] * row[cols]
            updated = True
            self.pivots_since_refactor += 1
            if self.pivots_since_refactor >= _REFACTOR_EVERY:
                self.refactor()
                recompute = True

            self.degenerate_run = self.degenerate_run + 1 if t <= 1e-12 else 0


def _farkas(sim: _Simplex, prob: LpProblem) -> FarkasCertificate:
    """Row-pricing certificate from the optimal feasibility-phase duals."""
    y = sim.y.copy()
    aty = prob.a_eq.T @ y
    aty[np.abs(aty) <= _KKT_TOL * (1.0 + np.abs(aty).max(initial=0.0))] = 0.0
    upper = np.where(np.isfinite(prob.upper), prob.upper, 0.0)
    lower = np.where(np.isfinite(prob.lower), prob.lower, 0.0)
    sup = float(np.maximum(aty, 0.0) @ upper + np.minimum(aty, 0.0) @ lower)
    return FarkasCertificate(kind="rows", gap=float(prob.b_eq @ y - sup), y=y)


def _unfinished(status: str, iterations: int) -> LpSolution:
    """Solution record for a run that stopped without an optimal basis."""
    message = "objective unbounded below" if status == "unbounded" else ""
    return LpSolution(status, None, None, None, None, iterations, message=message)


def solve_lp(prob: LpProblem, max_iter: int | None = None) -> LpSolution:
    """Solve the LP deterministically.

    Returns an LpSolution whose status is ``optimal`` only if the KKT
    residuals, recomputed independently of the pivot path, are within
    1e-8; then it carries x, y and the objective. The other statuses carry
    no x: ``infeasible`` (with a Farkas-type certificate), ``unbounded``,
    ``iteration-limit``, and ``uncertified`` when the optimality phase
    converged twice, the second time from a refactorized basis, to a point
    whose residuals exceed 1e-8 (they are in ``residuals`` and ``message``).
    """
    n, m = prob.n_vars, prob.n_rows
    if max_iter is None:
        max_iter = 200 * (n + m + 10)

    bad = np.nonzero(prob.lower > prob.upper)[0]
    if bad.size:
        j = int(bad[0])
        return LpSolution(
            status="infeasible",
            x=None,
            y=None,
            objective=None,
            residuals=None,
            iterations=0,
            certificate=FarkasCertificate(kind="bounds", gap=float(prob.lower[j] - prob.upper[j])),
            message=f"variable {prob.names[j]} has lower {prob.lower[j]} > upper {prob.upper[j]}",
        )

    sim = _Simplex(prob)
    c_phase1 = np.concatenate([np.zeros(n), np.ones(m)])
    status = sim.run_phase(c_phase1, max_iter, allow_unbounded=False)
    if status != "optimal":
        return _unfinished(status, sim.iterations)
    infeas = float(sim.x[n:].sum())
    if infeas > _KKT_TOL * (1.0 + float(np.abs(prob.b_eq).max(initial=0.0))):
        cert = _farkas(sim, prob)
        return LpSolution(
            status="infeasible",
            x=None,
            y=cert.y,
            objective=None,
            residuals=None,
            iterations=sim.iterations,
            certificate=cert,
            message=f"equality system infeasible (residual {infeas:g})",
        )

    # Freeze artificials at zero and optimize the true objective.
    sim.upper[n:] = 0.0
    sim.x[n:] = np.maximum(sim.x[n:], 0.0)
    c_phase2 = np.concatenate([prob.c, np.zeros(m)])
    # A failed certificate earns one re-run of the optimality phase from
    # the refactorized basis.
    for _ in range(2):
        status = sim.run_phase(c_phase2, max_iter, allow_unbounded=True)
        if status != "optimal":
            return _unfinished(status, sim.iterations)
        sim.refactor()
        x = sim.x[:n].copy()
        y = sim.b_inv.T @ c_phase2[sim.basis]
        res = kkt_residuals(prob, x, y)
        if res.max() <= _KKT_TOL:
            return LpSolution(
                status="optimal",
                x=x,
                y=y,
                objective=float(prob.c @ x),
                residuals=res,
                iterations=sim.iterations,
            )
    return LpSolution(
        status="uncertified",
        x=None,
        y=None,
        objective=None,
        residuals=res,
        iterations=sim.iterations,
        message=f"simplex converged but KKT residuals are {res}",
    )


def build_control_lp(
    net: ThermalNetwork,
    plan: SetpointPlan,
    grid: TimeGrid,
    price: Signal | np.ndarray,
    comfort: ComfortSchedule,
    gains_kw: np.ndarray,
    outdoor: Signal | np.ndarray,
    q_min_kw: float = 0.0,
    q_max_kw: float = np.inf,
) -> LpProblem:
    """Assemble the cost-minimization LP for the controlled zones.

    Variables are the controlled zones' temperature samples T(0..K) and
    per-step powers q(0..K-1). Equality rows enforce the exact one-step
    discretization of the controlled sub-network (uncontrolled zones and
    outdoor folded into the affine term) plus T(0) = T(K) = setpoint.
    Bounds keep q within [q_min, q_max] (heating-only by default) and T
    within the comfort band.
    """
    k = grid.steps
    ctrl = plan.controlled
    mz = len(ctrl)
    if plan.n != net.n:
        raise ValueError(f"plan covers {plan.n} zones, network has {net.n}")
    a_step = as_values(price, k)
    t0 = as_values(outdoor, k)
    if comfort.delta_c.shape[0] != k:
        raise ValueError(f"comfort schedule length {comfort.delta_c.shape[0]} != steps {k}")
    gains = np.asarray(gains_kw, dtype=float)
    if gains.shape != (k, plan.n):
        raise ValueError(f"gains shape {gains.shape}, expected {(k, plan.n)}")

    sub, w_sub = controlled_subsystem(net, grid, ctrl, plan.setpoints_c, gains)
    affine = w_sub @ sub.gamma_q.T + np.outer(t0, sub.gamma_0)

    n_temp = mz * (k + 1)
    n_vars = n_temp + mz * k

    def t_var(pos, step):
        return pos * (k + 1) + step

    def q_var(pos, step):
        return n_temp + pos * k + step

    n_rows = mz * k + 2 * mz
    a_eq = np.zeros((n_rows, n_vars))
    b_eq = np.zeros(n_rows)
    # Row step * mz + pos: T_pos(step + 1) - phi[pos] . T(step) - gamma_q[pos] . q(step) = affine[step, pos].
    zones = np.arange(mz)
    step, pos, pos2 = np.ix_(np.arange(k), zones, zones)
    row = step * mz + pos
    a_eq[row, t_var(pos, step + 1)] = 1.0
    a_eq[row, t_var(pos2, step)] -= sub.phi
    a_eq[row, q_var(pos2, step)] -= sub.gamma_q
    b_eq[: mz * k] = affine.ravel()
    ends = mz * k + 2 * zones
    a_eq[ends, t_var(zones, 0)] = 1.0
    a_eq[ends + 1, t_var(zones, k)] = 1.0
    sp = plan.setpoints_c[np.asarray(ctrl) - 1]
    b_eq[mz * k :] = np.repeat(sp, 2)

    band = comfort.delta_c[np.minimum(np.arange(k + 1), k - 1)]
    c = np.concatenate([np.zeros(n_temp), np.tile(grid.dt_h * a_step, mz)])
    lower = np.concatenate([(sp[:, None] - band).ravel(), np.full(mz * k, q_min_kw, dtype=float)])
    upper = np.concatenate([(sp[:, None] + band).ravel(), np.full(mz * k, q_max_kw, dtype=float)])
    names = []
    for zone in ctrl:
        names.extend(f"T{zone}[{step}]" for step in range(k + 1))
    for zone in ctrl:
        names.extend(f"q{zone}[{step}]" for step in range(k))
    return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, lower=lower, upper=upper, names=tuple(names))


@dataclass(frozen=True)
class ControlOptimum:
    """Optimal controlled-zone plan plus solver diagnostics."""

    q_kw: np.ndarray
    temps_c: np.ndarray
    objective_usd: float
    solution: LpSolution = field(repr=False)


class InfeasibleControlError(RuntimeError):
    """The control LP ended without an optimal plan; ``solution.status`` says why."""

    def __init__(self, message: str, solution: LpSolution, window_h: tuple[float, float] | None):
        super().__init__(message)
        self.solution = solution
        self.window_h = window_h


def binding_window_h(solution: LpSolution, grid: TimeGrid, n_controlled: int) -> tuple[float, float] | None:
    """Time window of the equality rows the infeasibility certificate leans on."""
    cert = solution.certificate
    if cert is None or cert.kind != "rows" or cert.y is None:
        return None
    weights = np.abs(cert.y)
    if weights.max(initial=0.0) == 0.0:
        return None
    rows = np.nonzero(weights >= 0.5 * weights.max())[0]
    steps = [min(r // n_controlled, grid.steps) for r in rows if r < n_controlled * grid.steps]
    if not steps:
        steps = [0, grid.steps]
    return (min(steps) * grid.dt_h, (max(steps) + 1) * grid.dt_h)


def optimize_controlled_zones(
    net: ThermalNetwork,
    plan: SetpointPlan,
    grid: TimeGrid,
    price: Signal | np.ndarray,
    comfort: ComfortSchedule,
    gains_kw: np.ndarray,
    outdoor: Signal | np.ndarray,
    q_min_kw: float = 0.0,
    q_max_kw: float = np.inf,
) -> ControlOptimum:
    """Plan the controlled zones' powers and temperatures.

    Solves the control LP. The planned temperatures satisfy the exact
    discretization to solver tolerance, so ``run_experiment`` on the
    planned powers reproduces them; this function does not re-simulate.

    Raises:
        InfeasibleControlError: when the LP ends without an optimal point
            (infeasible, unbounded, iteration limit or uncertified);
            carries the solution, with any certificate, and the implicated
            time window.
    """
    prob = build_control_lp(net, plan, grid, price, comfort, gains_kw, outdoor, q_min_kw, q_max_kw)
    sol = solve_lp(prob)
    if sol.status != "optimal":
        window = binding_window_h(sol, grid, plan.m)
        detail = f": {sol.message}" if sol.message else ""
        raise InfeasibleControlError(
            f"controlled-zone optimization ended with status {sol.status}{detail}", sol, window
        )
    k = grid.steps
    mz = plan.m
    n_temp = mz * (k + 1)
    return ControlOptimum(
        q_kw=sol.x[n_temp:].reshape(mz, k).T,
        temps_c=sol.x[:n_temp].reshape(mz, k + 1).T,
        objective_usd=float(sol.objective),
        solution=sol,
    )
