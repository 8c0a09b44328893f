"""Linear-programming controller for the controlled zones.

The advanced controller minimizes the thermal-price-weighted energy of the
controlled zones over the horizon, subject to the exact discretization of
their sub-network dynamics (equality rows), fixed start and end
temperatures at the baseline setpoints, nonnegative heating power, and a
per-step comfort band around the setpoint.

An LP keeps its equality matrix as column-ordered triplets of its nonzeros,
from ``build_control_lp`` through the solver and the certificates; a dense
copy is built only when ``LpProblem.a_eq`` is read. Problems are solved by a
self-contained revised simplex over bounded variables (two phases), which
stores [A | S], S the signed artificial columns, as one set of triplets and
starts through the same refactorization as any other basis. Planning
starts from a basis walked forward in time over each zone's rows when no
two controlled zones share a conductance (Bixby, "Implementing the simplex
method: the initial basis", ORSA J. Comput. 4, 1992), and from the
artificial basis when they do or when that start is singular or leaves
its bounds. The basis inverse is dense and explicit, updated per pivot
and refactorized periodically by triangular substitution
over the basis's column singletons (Hellerman & Rarick, "Reinversion with
the preassigned pivot procedure", Math. Programming 1, 1971). A peeled
row of the inverse is built only on its pivot row and on the rows of
later rounds and the kernel, so refactorizing a peeled basis holds one
inverse, not two. The kernel the singletons leave is inverted by its
block triangular form: a maximum transversal
(Duff, "On algorithms for obtaining a maximum transversal", ACM TOMS 7,
1981), then Tarjan's strongly connected components of the matched graph
(Duff & Reid, "An implementation of Tarjan's algorithm for the block
triangularization of a matrix", ACM TOMS 4, 1978), so LAPACK sees only the
diagonal blocks. The duals are updated per pivot from the new row of the
inverse and recomputed exactly at each refactor and at the end of each
phase. Pivot column d = B^-1 a_j and the new row of the inverse are
hyper-sparse (Hall & McKinnon, "Hyper-sparsity in the revised simplex
method and how to exploit it", Comput. Optim. Appl. 32, 2005), so the ratio
test and the primal update run over the support of d, the rank-one update
of the inverse over the support of d times that of the row, and the dual
update over the row's. Pricing is most-negative-reduced-cost over each
column's bound status, kept as its pricing weight, with an automatic switch
to Bland's rule after a run of degenerate pivots, so the method is
deterministic and cannot cycle. Optimality is certified independently of
the pivot path by recomputing the KKT residuals from (x, y) alone.
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
# How far, relative to 1 + |x|, a basic value of a given start may lie
# outside its bounds: the rounding of refactor's substitution, not a pivot.
_START_SLACK = 1e-10
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


@dataclass(frozen=True, init=False)
class LpProblem:
    """min c.x subject to A x = b_eq and lower <= x <= upper.

    A is given by its nonzeros, ``nonzeros=(row, col, val)``, with no
    (row, col) pair repeated; zero values are dropped. It is stored as
    column-ordered triplets (``row``, ``col``, ``val``, sorted by column,
    then row); ``a_eq`` builds the dense matrix on each access. Bounds may
    be infinite. ``names`` labels each column for diagnostics.
    """

    c: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    names: tuple[str, ...]
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    def __init__(self, c, b_eq, lower, upper, nonzeros, names=()):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        b = np.atleast_1d(np.asarray(b_eq, dtype=float))
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        m, n = b.shape[0], c.shape[0]
        row, col = (np.asarray(v, dtype=np.intp).ravel() for v in nonzeros[:2])
        val = np.asarray(nonzeros[2], dtype=float).ravel()
        if not row.shape == col.shape == val.shape:
            raise ValueError("nonzeros need one row, col and val per entry")
        keep = val != 0.0
        order = np.lexsort((row[keep], col[keep]))
        row, col, val = row[keep][order], col[keep][order], val[keep][order]
        if np.any((row < 0) | (row >= m) | (col < 0) | (col >= n)):
            raise ValueError(f"nonzeros outside the {m} x {n} matrix")
        if np.any((np.diff(col) == 0) & (np.diff(row) == 0)):
            raise ValueError("nonzeros repeat a (row, col) pair")
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError("bound vectors must match the number of variables")
        if not np.all(np.isfinite(c)):
            raise ValueError("cost vector must be finite")
        if not (np.all(np.isfinite(val)) and np.all(np.isfinite(b))):
            raise ValueError("equality data must be finite")
        names = tuple(names) if names else tuple(f"x{j}" for j in range(n))
        if len(names) != n:
            raise ValueError("names length mismatch")
        fields = {"c": c, "b_eq": b, "lower": lo, "upper": hi, "names": names, "row": row, "col": col, "val": val}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.b_eq.shape[0]

    @property
    def a_eq(self) -> np.ndarray:
        """A as a dense array, built on each access."""
        a = np.zeros((self.n_rows, self.n_vars))
        a[self.row, self.col] = self.val
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x."""
        return np.bincount(self.row, weights=self.val * x[self.col], minlength=self.n_rows)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T y."""
        return np.bincount(self.col, weights=self.val * y[self.row], minlength=self.n_vars)


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
    """Outcome of ``solve_lp``: ``status`` and the pivot count ``iterations``, always.

    ``optimal`` fills x, y, objective and residuals, ``infeasible`` certificate
    and message, ``uncertified`` residuals and message, ``unbounded`` message.
    """

    status: str  # optimal | infeasible | unbounded | iteration-limit | uncertified
    iterations: int
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    objective: float | None = None
    residuals: KktResiduals | None = None
    certificate: FarkasCertificate | None = None
    message: str = ""


def kkt_residuals(prob: LpProblem, x: np.ndarray, y: np.ndarray) -> KktResiduals:
    """First-order optimality residuals, computed from (x, y) alone."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = prob.lower, prob.upper
    r_eq = prob.matvec(x) - prob.b_eq
    below = np.where(np.isfinite(lo), np.maximum(lo - x, 0.0), 0.0)
    above = np.where(np.isfinite(hi), np.maximum(x - hi, 0.0), 0.0)
    primal_scale = 1.0 + max(
        float(np.abs(prob.b_eq).max(initial=0.0)), float(np.abs(x).max(initial=0.0))
    )
    primal = max(float(np.abs(r_eq).max(initial=0.0)), float(below.max(initial=0.0)), float(above.max(initial=0.0)))

    z = prob.c - prob.rmatvec(y)
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


def _block_triangular_inverse(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense inverse X of the p x p matrix M with these nonzeros, no pair repeated.

    Returns (y, order) with X[order] = y: the rows of X in block order.

    A maximum transversal matches each column j to a row r(j) by
    depth-first augmenting paths from a greedy start (Duff, "On algorithms
    for obtaining a maximum transversal", ACM TOMS 7, 1981). The strongly
    connected components of the graph with an edge j -> j' for each entry
    (r(j), j') are the diagonal blocks of M's block triangular form
    (Tarjan's algorithm; Duff & Reid, "An implementation of Tarjan's
    algorithm for the block triangularization of a matrix", ACM TOMS 4,
    1978). Each block is leveled one above the highest block it reaches, so
    the rows of X = M^-1 are filled a level at a time, sinks first:
    X[C] = M[r(C), C]^-1 (E[r(C)] - M[r(C), C'] X[C']) over the columns C'
    of lower levels. The diagonal blocks larger than 1 x 1 are inverted with
    one ``np.linalg.inv`` call per size, and the 1 x 1 blocks divide. No
    perfect matching, or a singular diagonal block, raises
    ``np.linalg.LinAlgError``.
    """

    def grouped(key, value):
        """The entries' values grouped by key, as p lists."""
        by_key = np.lexsort((value, key))
        ends = np.searchsorted(key[by_key], np.arange(p + 1)).tolist()
        flat = value[by_key].tolist()
        return [flat[a:b] for a, b in zip(ends, ends[1:])]

    col_rows = grouped(cols, rows)
    row_of, col_of = [-1] * p, [-1] * p
    for j in range(p):
        for i in col_rows[j]:
            if col_of[i] < 0:
                row_of[j], col_of[i] = i, j
                break
    seen = [-1] * p
    for j0 in range(p):
        if row_of[j0] >= 0:
            continue
        # path[t] reaches path[t + 1] through row via[t], matched to it.
        path, via, todo = [j0], [], [iter(col_rows[j0])]
        while todo and len(via) < len(path):
            for i in todo[-1]:
                if seen[i] != j0:
                    seen[i] = j0
                    via.append(i)
                    if col_of[i] >= 0:
                        path.append(col_of[i])
                        todo.append(iter(col_rows[col_of[i]]))
                    break
            else:
                todo.pop()
                path.pop()
                if via:
                    via.pop()
        if not path:
            raise np.linalg.LinAlgError("Singular matrix")  # structurally: no perfect matching
        for j, i in zip(path, via):
            row_of[j], col_of[i] = i, j

    row_cols = grouped(rows, cols)
    succ = [row_cols[i] for i in row_of]
    # Tarjan's algorithm, iterative. need[v] is one above the highest level
    # of the finished blocks v reaches; a block's level is its members' max.
    index, low, need, comp, level = [0] * p, [0] * p, [0] * p, [-1] * p, []
    stack, count = [], 0
    for root in range(p):
        if index[root]:
            continue
        count += 1
        index[root] = low[root] = count
        stack.append(root)
        calls = [(root, iter(succ[root]))]
        while calls:
            v, edges = calls[-1]
            for w in edges:
                if not index[w]:
                    count += 1
                    index[w] = low[w] = count
                    stack.append(w)
                    calls.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:
                    low[v] = min(low[v], index[w])
                else:
                    need[v] = max(need[v], level[comp[w]] + 1)
            else:
                calls.pop()
                if low[v] == index[v]:
                    top = 0
                    while True:
                        w = stack.pop()
                        comp[w] = len(level)
                        top = max(top, need[w])
                        if w == v:
                            break
                    level.append(top)
                if calls:
                    u = calls[-1][0]
                    if comp[v] < 0:
                        low[u] = min(low[u], low[v])
                    else:
                        need[u] = max(need[u], level[comp[v]] + 1)

    # Row t of y is row order[t] of X: each level, and each run of blocks of
    # one size within it, is a contiguous slice of y.
    comp, col_of = np.array(comp), np.array(col_of)
    col_level = np.array(level)[comp]
    col_size = np.bincount(comp)[comp]
    order = np.lexsort((comp, col_size, col_level))
    rank = np.empty(p, dtype=int)
    rank[order] = np.arange(p)
    n_levels = int(col_level.max()) + 1
    level_cut = np.searchsorted(col_level[order], np.arange(n_levels + 1))
    key = col_level[order] * (p + 1) + col_size[order]
    group_cut = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
    group_size = col_size[order[group_cut[:-1]]]

    owner = col_of[rows]  # the column matched to each entry's row; its row of y holds that row's equation
    inside = comp[owner] == comp[cols]
    # Diagonal blocks of each group, flat as (block, row, column) of the block.
    e = np.flatnonzero(inside)
    e_group = np.searchsorted(group_cut, rank[cols[e]], side="right") - 1
    first, size = group_cut[e_group], group_size[e_group]
    d_start = np.concatenate([[0], np.cumsum(np.diff(group_cut) * group_size)])
    diag = np.zeros(d_start[-1])
    diag[d_start[e_group] + (rank[owner[e]] - first) * size + (rank[cols[e]] - first) % size] = vals[e]
    # Blocks of more than one row are inverted up front, one call per size.
    flat_size = np.repeat(group_size, np.diff(d_start))
    for s in np.unique(group_size[group_size > 1]).tolist():
        sel = flat_size == s
        diag[sel] = np.linalg.inv(diag[sel].reshape(-1, s, s)).ravel()
    # Off-block entries of each level, flat as a (level rows, distinct source rows) matrix.
    o = np.flatnonzero(~inside)
    o_level = col_level[owner[o]]
    src, src_at = np.unique(o_level * p + rank[cols[o]], return_inverse=True)
    src_cut = np.searchsorted(src, np.arange(n_levels + 1) * p)
    n_src = np.diff(src_cut)
    s_start = np.concatenate([[0], np.cumsum(np.diff(level_cut) * n_src)])
    coupling = np.zeros(s_start[-1])
    at = (rank[owner[o]] - level_cut[o_level]) * n_src[o_level] + src_at - src_cut[o_level]
    coupling[s_start[o_level] + at] = vals[o]
    src %= p

    y = np.zeros((p, p))
    y[rank[col_of], np.arange(p)] = 1.0
    level_cut, group_cut, group_size = level_cut.tolist(), group_cut.tolist(), group_size.tolist()
    src_cut, s_start, d_start = src_cut.tolist(), s_start.tolist(), d_start.tolist()
    g = 0
    for lv in range(n_levels):
        a, b = level_cut[lv], level_cut[lv + 1]
        if src_cut[lv + 1] > src_cut[lv]:
            sources = y[src[src_cut[lv] : src_cut[lv + 1]]]
            y[a:b] -= coupling[s_start[lv] : s_start[lv + 1]].reshape(b - a, -1) @ sources
        while g < len(group_size) and group_cut[g] < b:
            s, rhs = group_size[g], y[group_cut[g] : group_cut[g + 1]]
            block = diag[d_start[g] : d_start[g + 1]].reshape(-1, s, s)
            if s == 1:
                rhs /= block.reshape(-1, 1)
            else:
                rhs[:] = (block @ rhs.reshape(-1, s, p)).reshape(-1, p)
            g += 1
    return y, order


def _at_a_bound(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Each column at its lower bound if finite, else at its upper if finite, else at 0."""
    return np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))


class _Simplex:
    """Bounded-variable revised simplex over [A | S], S = diag(sign) the artificials.

    [A | S] is kept as column-ordered triplets (``row``, ``col``, ``val``,
    plus the column pointer ``col_start``): the problem's nonzeros, then
    artificial column n + i as ``sign[i] * e_i``. The cold start puts every
    column at a bound (free ones at 0) and the artificials in the basis.
    A given ``start = (basis, x)`` names the m basic columns of [A | S] and
    the structural values: nonbasic ones at a bound, basic ones as
    estimated. Either way each artificial is signed so that |b - A x|_i is
    its value, and ``refactor`` then computes B^-1 and x_B, as for any
    basis; a given start whose basis is singular, or whose basic values
    leave their bounds, raises ``ValueError``. The basis inverse is dense.

    A column's bound status is its pricing weight, kept across both phases:
    -1 at its lower bound, +1 at its upper, 0 when basic or fixed, so a bounded
    nonbasic column violates by max(weight * z, 0). Nonbasic free columns are
    listed in ``free`` and price at |z|; their room is infinite, so once basic
    they never leave.
    """

    def __init__(self, prob: LpProblem, start: tuple[np.ndarray, np.ndarray] | None = None):
        m, n = prob.n_rows, prob.n_vars
        self.m, self.n = m, n
        self.b_eq = prob.b_eq
        if start is None:
            basis = np.arange(n, n + m)
            x0 = _at_a_bound(prob.lower, prob.upper)
        else:
            basis, x0 = start
        sign = np.where(prob.matvec(x0) <= prob.b_eq, 1.0, -1.0)
        self.row = np.concatenate([prob.row, np.arange(m)])
        self.col = np.concatenate([prob.col, np.arange(n, n + m)])
        self.val = np.concatenate([prob.val, sign])
        self.col_start = np.searchsorted(self.col, np.arange(n + m + 1))
        self.lower = np.concatenate([prob.lower, np.zeros(m)])
        self.upper = np.concatenate([prob.upper, np.full(m, np.inf)])
        self.x = np.concatenate([x0, np.zeros(m)])
        self.basis = np.array(basis)
        self.weight = np.where(self.x == self.lower, -1.0, np.where(self.x == self.upper, 1.0, 0.0))
        self.weight[self.basis] = 0.0
        self.weight[self.lower == self.upper] = 0.0
        free = np.isinf(self.lower) & np.isinf(self.upper)
        free[self.basis] = False
        self.free = np.nonzero(free)[0]
        self.iterations = 0
        self.degenerate_run = 0
        self.refactor()
        if start is not None:
            xb = self.x[self.basis]
            slack = _START_SLACK * (1.0 + np.abs(xb))
            if not np.all((xb >= self.lower[self.basis] - slack) & (xb <= self.upper[self.basis] + slack)):
                raise ValueError("a basic value of the start leaves its bounds")

    def _price(self, y: np.ndarray) -> np.ndarray:
        """[A | S]^T y."""
        return np.bincount(self.col, weights=self.val * y[self.row], minlength=self.n + self.m)

    def _times(self, v: np.ndarray) -> np.ndarray:
        """[A | S] v."""
        return np.bincount(self.row, weights=self.val * v[self.col], minlength=self.m)

    def _column(self, j: int) -> np.ndarray:
        """B^-1 times column j of [A | S]."""
        nz = slice(self.col_start[j], self.col_start[j + 1])
        return self.b_inv[:, self.row[nz]] @ self.val[nz]

    def _basis_triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The basic columns of [A | S] as (row, basis position, value) triplets."""
        pos = np.full(self.n + self.m, -1)
        pos[self.basis] = np.arange(self.m)
        basic = pos[self.col] >= 0
        return self.row[basic], pos[self.col[basic]], self.val[basic]

    def refactor(self) -> None:
        """Compute B^-1, then the basic x, from the basis and the nonbasic x alone.

        Columns with a single entry outside the rows already taken are
        peeled off in rounds; ordered by round, they make B block upper
        triangular over the kernel left at the end, which
        ``_block_triangular_inverse`` inverts. The rows of B^-1 are then
        filled by back substitution from the kernel to the first round. A
        row of round t is nonzero only on its own pivot row and on the rows
        of later rounds and the kernel, and is divided by its pivot there
        alone, so the division gathers no whole rows of B^-1 and a peeled
        basis holds one inverse. A singular basis raises
        ``np.linalg.LinAlgError``.
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
        self.b_inv = None  # no row of an old inverse is read: free it first
        if kernel_rows.size:
            at_row, at_col = np.empty(m, dtype=int), np.empty(m, dtype=int)
            at_row[kernel_rows] = np.arange(kernel_rows.size)
            at_col[kernel_cols] = np.arange(kernel_cols.size)
            kernel, order = _block_triangular_inverse(
                at_row[rows[live]], at_col[cols[live]], vals[live], kernel_rows.size
            )
        self.b_inv = np.zeros((m, m))
        if kernel_rows.size == m > 0:  # nothing was peeled: a row scatter is far cheaper
            self.b_inv[order] = kernel
        elif kernel_rows.size:
            self.b_inv[np.ix_(kernel_cols[order], kernel_rows)] = kernel

        # Row r of B X = I, for the column c pivoting on it, reads
        # X[c] = (e_r - sum of B[r, c'] X[c'] over columns c' of later rounds
        # and the kernel) / B[r, c]; earlier rounds have no entry in row r.
        by_round = np.nonzero(~pivot & (row_round[rows] >= 0))[0]
        by_round = by_round[np.argsort(row_round[rows[by_round]], kind="stable")]
        cut = np.searchsorted(row_round[rows[by_round]], np.arange(len(rounds) + 1))
        for t in range(len(rounds) - 1, -1, -1):
            r, c, v = rounds[t]
            self.b_inv[c, r] = 1.0
            off = by_round[cut[t] : cut[t + 1]]
            off = off[np.argsort(rows[off], kind="stable")]
            slot = np.arange(off.size) - np.searchsorted(rows[off], rows[off])  # rank within its row
            # One entry per row at a time, so no row repeats within a scatter.
            for k in range(int(slot.max(initial=-1)) + 1):
                e = off[slot == k]
                terms = self.b_inv[cols[e]]
                terms *= vals[e, None]
                self.b_inv[pivot_col[rows[e]]] -= terms
            # Row c is nonzero only on r and on the rows of later rounds and the kernel.
            self.b_inv[np.ix_(c, (row_round > t) | (row_round < 0))] /= v[:, None]
            self.b_inv[c, r] /= v

        x_nonbasic = self.x.copy()
        x_nonbasic[self.basis] = 0.0
        self.x[self.basis] = self.b_inv @ (self.b_eq - self._times(x_nonbasic))
        self.pivots_since_refactor = 0

    def run_phase(self, c_phase: np.ndarray, max_iter: int, allow_unbounded: bool) -> str:
        dtol = _KKT_TOL * (1.0 + float(np.abs(c_phase).max(initial=0.0)))
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
            viol = self.weight * z
            np.maximum(viol, 0.0, out=viol)
            viol[self.free] = np.abs(z[self.free])
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

            sigma = -1.0 if z[j] > 0 else 1.0  # the direction that lowers the phase cost
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
                self.weight[j] = -self.weight[j]
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
            if self.lower[leaving] != self.upper[leaving]:
                self.weight[leaving] = -1.0 if hit_lower else 1.0
            if not self.weight[j]:
                self.free = self.free[self.free != j]
            self.weight[j] = 0.0
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
    aty = prob.rmatvec(y)
    aty[np.abs(aty) <= _KKT_TOL * (1.0 + np.abs(aty).max(initial=0.0))] = 0.0
    upper = np.where(np.isfinite(prob.upper), prob.upper, 0.0)
    lower = np.where(np.isfinite(prob.lower), prob.lower, 0.0)
    sup = float(np.maximum(aty, 0.0) @ upper + np.minimum(aty, 0.0) @ lower)
    return FarkasCertificate(kind="rows", gap=float(prob.b_eq @ y - sup), y=y)


def _unfinished(status: str, iterations: int) -> LpSolution:
    """Solution record for a run that stopped without an optimal basis."""
    message = "objective unbounded below" if status == "unbounded" else ""
    return LpSolution(status, iterations, message=message)


def solve_lp(
    prob: LpProblem, max_iter: int | None = None, start: tuple[np.ndarray, np.ndarray] | None = None
) -> LpSolution:
    """Solve the LP deterministically; ``LpSolution`` lists what each status fills.

    The status is ``optimal`` only if the KKT residuals, recomputed
    independently of the pivot path, are within 1e-8, and ``uncertified``
    when the optimality phase converged twice, the second time from a
    refactorized basis, to a point whose residuals exceed 1e-8.

    ``start = (basis, x)`` seeds the simplex (see ``_Simplex``); a start
    that is singular or leaves its bounds falls back to the artificial
    basis, as does ``start=None``.
    """
    n, m = prob.n_vars, prob.n_rows
    if max_iter is None:
        max_iter = 200 * (n + m + 10)

    bad = np.nonzero(prob.lower > prob.upper)[0]
    if bad.size:
        j = int(bad[0])
        return LpSolution(
            status="infeasible",
            iterations=0,
            certificate=FarkasCertificate(kind="bounds", gap=float(prob.lower[j] - prob.upper[j])),
            message=f"variable {prob.names[j]} has lower {prob.lower[j]} > upper {prob.upper[j]}",
        )

    try:
        sim = _Simplex(prob, start)
    except ValueError:  # a singular start (np.linalg.LinAlgError is a ValueError) or one outside its bounds
        if start is None:
            raise
        sim = _Simplex(prob)
    c_phase1 = np.concatenate([np.zeros(n), np.ones(m)])
    status = sim.run_phase(c_phase1, max_iter, allow_unbounded=False)
    if status != "optimal":
        return _unfinished(status, sim.iterations)
    infeas = float(sim.x[n:].sum())
    if infeas > _KKT_TOL * (1.0 + float(np.abs(prob.b_eq).max(initial=0.0))):
        return LpSolution(
            status="infeasible",
            iterations=sim.iterations,
            certificate=_farkas(sim, prob),
            message=f"equality system infeasible (residual {infeas:g})",
        )

    # Freeze artificials at zero, fixed columns weighing 0, and optimize the true objective.
    sim.upper[n:] = 0.0
    sim.x[n:] = np.maximum(sim.x[n:], 0.0)
    sim.weight[n:] = 0.0
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
                iterations=sim.iterations,
                x=x,
                y=y,
                objective=float(prob.c @ x),
                residuals=res,
            )
    return LpSolution(
        status="uncertified",
        iterations=sim.iterations,
        residuals=res,
        message=f"simplex converged but KKT residuals are {res}",
    )


class _ControlLp(LpProblem):
    """A control LP with ``start``, its time-walk start ``(basis, x)`` or None."""

    def __init__(self, start: tuple[np.ndarray, np.ndarray] | None, **fields):
        super().__init__(**fields)
        object.__setattr__(self, "start", start)


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

    When no two controlled zones share a conductance (always with one
    zone), the problem's ``start`` is a basis walked forward in time over
    each zone's rows (``_time_walk``), for ``solve_lp(prob,
    start=prob.start)``; otherwise it is None.
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

    def t_var(pos, step):
        return pos * (k + 1) + step

    def q_var(pos, step):
        return n_temp + pos * k + step

    n_rows = mz * k + 2 * mz
    b_eq = np.zeros(n_rows)
    # Row step * mz + pos: T_pos(step + 1) - phi[pos] . T(step) - gamma_q[pos] . q(step) = affine[step, pos].
    zones = np.arange(mz)
    step, pos, pos2 = np.ix_(np.arange(k), zones, zones)
    row = step * mz + pos
    coupled = np.broadcast_to(row, (k, mz, mz))
    b_eq[: mz * k] = affine.ravel()
    ends = mz * k + 2 * zones
    # (rows, cols, values) of each block of nonzeros, broadcast to the rows' shape.
    blocks = [
        (row, t_var(pos, step + 1), 1.0),
        (coupled, t_var(pos2, step), -sub.phi),
        (coupled, q_var(pos2, step), -sub.gamma_q),
        (ends, t_var(zones, 0), 1.0),
        (ends + 1, t_var(zones, k), 1.0),
    ]
    nonzeros = [np.concatenate([np.broadcast_to(b[i], b[0].shape).ravel() for b in blocks]) for i in range(3)]
    sp = plan.setpoints_c[np.asarray(ctrl) - 1]
    b_eq[mz * k :] = np.repeat(sp, 2)

    band = comfort.delta_c[np.minimum(np.arange(k + 1), k - 1)]
    t_lo, t_hi = sp[:, None] - band, sp[:, None] + band
    q_lo, q_hi = np.full((mz, k), q_min_kw, dtype=float), np.full((mz, k), q_max_kw, dtype=float)
    c = np.concatenate([np.zeros(n_temp), np.tile(grid.dt_h * a_step, mz)])
    lower = np.concatenate([t_lo.ravel(), q_lo.ravel()])
    upper = np.concatenate([t_hi.ravel(), q_hi.ravel()])
    names = []
    for zone in ctrl:
        names.extend(f"T{zone}[{step}]" for step in range(k + 1))
    for zone in ctrl:
        names.extend(f"q{zone}[{step}]" for step in range(k))

    start = None
    if not net.conductances_kw_per_c[np.ix_(ctrl, ctrl)].any():
        # Phi and Gamma_q are diagonal, so each zone's rows can be walked on their own.
        temps, q, t_basic, q_basic = _time_walk(
            np.diagonal(sub.phi), np.diagonal(sub.gamma_q), affine.T, sp, t_lo, t_hi, q_lo, q_hi
        )
        x = np.empty(n_temp + mz * k)
        at_zone, steps = zones[:, None], np.arange(k)
        x[t_var(at_zone, np.arange(k + 1))], x[q_var(at_zone, steps)] = temps, q
        basis = np.arange(x.size, x.size + n_rows)
        dyn_rows = row[:, :, 0].T  # [pos, step]
        basis[dyn_rows[t_basic]] = t_var(at_zone, steps + 1)[t_basic]
        basis[dyn_rows[q_basic]] = q_var(at_zone, steps)[q_basic]
        basis[ends] = t_var(zones, 0)  # T(0) on its start row; the T(K) rows keep their artificials
        start = (basis, x)
    return _ControlLp(start, c=c, b_eq=b_eq, lower=lower, upper=upper, names=tuple(names), nonzeros=nonzeros)


def _time_walk(
    phi: np.ndarray,
    gamma: np.ndarray,
    affine: np.ndarray,
    t_start: np.ndarray,
    t_lo: np.ndarray,
    t_hi: np.ndarray,
    q_lo: np.ndarray,
    q_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Walk each zone forward in time on its own, for a start basis.

    Zone p follows T(s+1) = phi[p] T(s) + gamma[p] q(s) + affine[p, s] from
    T(0) = t_start[p], with q(s) at a bound (``_at_a_bound``). Inside
    T(s+1)'s band [t_lo, t_hi][p, s+1], T(s+1) is basic on row s; below
    it, q(s) is basic and lifts T(s+1) to its lower band if that fits under
    q_hi[p, s]; otherwise row s keeps its artificial, with T(s+1) at the
    nearer band edge.

    Returns the (m, K+1) temperatures, the (m, K) powers and the (m, K)
    masks of the steps where T(s+1), respectively q(s), is basic.
    """
    q = _at_a_bound(q_lo, q_hi)
    t_lo, t_hi = t_lo[:, 1:], t_hi[:, 1:]
    held = gamma[:, None] * q + affine
    temps = np.empty((len(phi), affine.shape[1] + 1))
    temps[:, 0] = t_start
    drift = np.empty(affine.shape)
    for p in range(len(phi)):
        temp, ph, drifts, clipped = float(t_start[p]), float(phi[p]), [], []
        for c, low, high in zip(held[p].tolist(), t_lo[p].tolist(), t_hi[p].tolist()):
            d = ph * temp + c
            # The drift itself where T(s + 1) is basic, a band edge where it is not.
            temp = low if d < low else high if d > high else d
            drifts.append(d)
            clipped.append(temp)
        drift[p], temps[p, 1:] = drifts, clipped
    with np.errstate(divide="ignore", invalid="ignore"):
        lift = q + (t_lo - drift) / gamma[:, None]
    t_basic = (t_lo <= drift) & (drift <= t_hi)
    q_basic = (drift < t_lo) & (gamma[:, None] > 0) & (lift <= q_hi)
    q[q_basic] = lift[q_basic]
    return temps, q, t_basic, q_basic


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

    Solves the control LP. When no two controlled zones share a
    conductance (always with one zone), Phi and Gamma_q are diagonal and
    the simplex starts from a basis walked forward in time over each
    zone's rows; otherwise, and when that start is singular or leaves its
    bounds, it starts from the artificial basis. The planned temperatures
    satisfy the exact discretization to solver tolerance, so
    ``run_experiment`` on the planned powers reproduces them; this
    function does not re-simulate.

    Raises:
        InfeasibleControlError: when the LP ends without an optimal point
            (infeasible, unbounded, iteration limit or uncertified);
            carries the solution, with any certificate, and the implicated
            time window.
    """
    prob = build_control_lp(net, plan, grid, price, comfort, gains_kw, outdoor, q_min_kw, q_max_kw)
    sol = solve_lp(prob, start=prob.start)
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
