"""Output checks made apart from the program, with scipy as the reference.

Each function returns a list of failure messages (empty when the output
is right). Nothing here imports crosszone: the control LP is rebuilt from
the study's definition with scipy.sparse and solved with HiGHS, and the
zero-order hold is built on scipy.linalg.expm.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from inputs import DT_H

LP_RTOL = 1e-9
IDENTITY_RTOL = 1e-8
REPORT_RTOL = 1e-9
RESIM_TOL_C = 1e-6
BAND_TOL_C = 1e-6


def read_trajectory(path: str) -> dict:
    """Columns of a trajectory CSV, parsed with numpy alone."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    n = sum(1 for h in header if h.startswith("T_"))
    return {
        "temps": data[:, 2 : 2 + n],
        "powers": data[:-1, 2 + n : 2 + 2 * n],
        "gains": data[:-1, 2 + 2 * n : 2 + 3 * n],
        "outdoor": data[:-1, 2 + 3 * n],
        "price": data[:-1, 3 + 3 * n],
    }


def zoh(caps, alpha, zones):
    """Phi, Gamma (per kW of held input) and outdoor column of a sub-network."""
    idx = np.asarray(zones) - 1
    c = caps[idx]
    a = alpha[np.ix_(idx + 1, idx + 1)] / c[:, None]
    np.fill_diagonal(a, -alpha[idx + 1].sum(axis=1) / c)
    s = len(zones)
    aug = np.zeros((2 * s, 2 * s))
    aug[:s, :s] = a
    aug[:s, s:] = np.eye(s)
    big = scipy.linalg.expm(aug * DT_H)
    j1 = big[:s, s:]
    return big[:s, :s], j1 / c[None, :], j1 @ (alpha[idx + 1, 0] / c)


def _drive(caps, alpha, setpoints, ctrl, gains, outdoor):
    """Affine per-step input of the controlled sub-network (K, m)."""
    idx = np.asarray(ctrl) - 1
    others = [j for j in range(1, len(caps) + 1) if j not in ctrl]
    boundary = np.array([sum(alpha[i, j] * setpoints[j - 1] for j in others) for i in ctrl])
    phi, gamma, g0 = zoh(caps, alpha, ctrl)
    return phi, gamma, (gains[:, idx] + boundary) @ gamma.T + np.outer(outdoor, g0)


def lp_objective(caps, alpha, setpoints, ctrl, price, gains, outdoor, delta) -> float:
    """Optimal cost of the controlled zones, from HiGHS on an independent LP.

    Variables T_i(0..K), q_i(0..K-1) per controlled zone; rows
    T(k+1) - Phi T(k) - Gamma q(k) = drive(k) and T(0) = T(K) = setpoint;
    q >= 0 and |T(k) - setpoint| <= delta(min(k, K-1)).
    """
    k, m = len(price), len(ctrl)
    phi, gamma, drive = _drive(caps, alpha, setpoints, ctrl, gains, outdoor)
    n_t = m * (k + 1)

    def t_var(pos: int, step: int) -> int:
        return pos * (k + 1) + step

    def q_var(pos: int, step: int) -> int:
        return n_t + pos * k + step

    rows, cols, vals, rhs = [], [], [], []
    for step in range(k):
        for p in range(m):
            r = len(rhs)
            rows += [r]
            cols += [t_var(p, step + 1)]
            vals += [1.0]
            for p2 in range(m):
                rows += [r, r]
                cols += [t_var(p2, step), q_var(p2, step)]
                vals += [-phi[p, p2], -gamma[p, p2]]
            rhs.append(drive[step, p])
    for p, zone in enumerate(ctrl):
        for step in (0, k):
            rows += [len(rhs)]
            cols += [t_var(p, step)]
            vals += [1.0]
            rhs.append(setpoints[zone - 1])
    a_eq = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(len(rhs), n_t + m * k))
    band = delta[np.minimum(np.arange(k + 1), k - 1)]
    bounds = [(setpoints[z - 1] - band[s], setpoints[z - 1] + band[s]) for z in ctrl for s in range(k + 1)]
    bounds += [(0.0, None)] * (m * k)
    cost = np.concatenate([np.zeros(n_t), np.tile(price * DT_H, m)])
    res = scipy.optimize.linprog(
        cost, A_eq=a_eq, b_eq=np.array(rhs), bounds=bounds, method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise ArithmeticError(f"HiGHS: {res.message}")
    return float(res.fun)


def plan_failures(caps, alpha, setpoints, ctrl, traj: dict, delta, objective: float) -> list[str]:
    """LP optimality against HiGHS, plus re-simulation, band and end points."""
    out = []
    idx = np.asarray(ctrl) - 1
    try:
        ref = lp_objective(caps, alpha, setpoints, ctrl, traj["price"], traj["gains"], traj["outdoor"], delta)
        if abs(objective - ref) > LP_RTOL * abs(ref):
            out.append(f"LP objective {objective!r} != HiGHS {ref!r}")
    except ArithmeticError as exc:
        out.append(str(exc))
    out += resim_failures(caps, alpha, setpoints, ctrl, traj)
    temps = traj["temps"][:, idx]
    sp = setpoints[idx]
    k = len(traj["price"])
    band = delta[np.minimum(np.arange(k + 1), k - 1)][:, None]
    if np.any(np.abs(temps - sp) > band + BAND_TOL_C):
        out.append("controlled temperatures leave the comfort band")
    if np.abs(temps[[0, -1]] - sp).max() > BAND_TOL_C:
        out.append("controlled temperatures do not start and end at setpoint")
    return out


def resim_failures(caps, alpha, setpoints, ctrl, traj: dict) -> list[str]:
    """Re-simulate the controlled powers with a scipy ZOH and compare temperatures."""
    idx = np.asarray(ctrl) - 1
    phi, gamma, drive = _drive(caps, alpha, setpoints, ctrl, traj["gains"], traj["outdoor"])
    drive = drive + traj["powers"][:, idx] @ gamma.T
    t = setpoints[idx].copy()
    worst = 0.0
    for step in range(len(drive)):
        t = phi @ t + drive[step]
        worst = max(worst, float(np.abs(t - traj["temps"][step + 1, idx]).max()))
    return [f"re-simulated temperatures differ by {worst:g} degC"] if worst > RESIM_TOL_C else []


def identity_failures(report: dict, base: dict, exp: dict) -> list[str]:
    """naive - error, corrected a and corrected b equal the true savings.

    The true savings are summed here over every zone as price * dq * dt.
    """
    true = float((base["price"][:, None] * (base["powers"] - exp["powers"])).sum() * DT_H)
    out = []
    for label, value in (
        ("naive - error", report["naive_controlled_usd"] - report["overestimation_error_usd"]),
        ("corrected form a", report["corrected_form_a_usd"]),
        ("corrected form b", report["corrected_form_b_usd"]),
    ):
        if abs(value - true) > IDENTITY_RTOL * abs(true):
            out.append(f"{label} = {value!r}, true savings {true!r}")
    return out


def report_failures(got: dict, want: dict) -> list[str]:
    """Two savings reports agree field by field to REPORT_RTOL."""
    out = []
    for key in ("naive_controlled_usd", "overestimation_error_usd", "corrected_form_a_usd",
                "corrected_form_b_usd", "oracle_true_usd", "relative_error"):
        a, b = got[key], want[key]
        if abs(a - b) > REPORT_RTOL * abs(b):
            out.append(f"{key}: {a!r} from files, {b!r} in memory")
    for za, zb in zip(got["per_zone"], want["per_zone"]):
        if abs(za["savings_usd"] - zb["savings_usd"]) > REPORT_RTOL * max(abs(zb["baseline_cost_usd"]), 1.0):
            out.append(f"zone {zb['zone']} savings differ")
    return out


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
