"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy and depends only on the seed it is given:
the program under test receives the arrays, configs and files made from
these values and nothing else. Random networks follow the same recipe as
the test suite's ``random_network`` (85 % edge density, conductances up
to 0.05 kW/degC, capacitances 0.3 to 1.2 kWh/degC, every loss rate
sum_j alpha_ij / C_i capped at 0.6 per hour by scaling the conductances)
but the code is kept apart from the tests.
"""

from __future__ import annotations

import numpy as np

DT_H = 0.25
SETPOINT_C = 21.0
MAX_RATE_PER_H = 0.6
# A controlled zone needs a real outdoor coupling: with q >= 0 its
# baseline tracking power must stay positive for the control LP to be
# feasible (see multizone_case).
MIN_OUTDOOR_KW_PER_C = 0.005

# The built-in two-zone study, written out from the paper's example so the
# checks do not read it back from the program.
EXAMPLE_CAPS = np.array([0.27, 0.81])
EXAMPLE_ALPHA = np.array([[0.0, 0.045, 0.135], [0.045, 0.0, 0.090], [0.135, 0.090, 0.0]])
EXAMPLE_SETPOINTS = np.array([21.0, 21.0])
EXAMPLE_CONTROLLED = (1,)
EXAMPLE_STEPS = 480
TIGHT_BAND_C = 1.0
WIDE_BAND_C = 2.0
TIGHT_WINDOWS = ((6.0, 9.0), (18.0, 22.0))
TOU_HOURS = ((22.0, 6.0), (6.0, 14.0), (14.0, 19.0), (19.0, 22.0))


def random_network(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Capacitances (n,) [kWh/degC] and symmetric conductances (n+1, n+1) [kW/degC]."""
    alpha = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.85:
                alpha[i, j] = alpha[j, i] = rng.uniform(0.0, 0.05)
    caps = rng.uniform(0.3, 1.2, n)
    worst = (alpha[1:, :].sum(axis=1) / caps).max()
    if worst > MAX_RATE_PER_H:
        alpha *= MAX_RATE_PER_H / worst
    return caps, alpha


def network_with_controlled(rng: np.random.Generator, n: int, m: int):
    """Random network plus m controlled zones that couple to outdoors.

    Draws networks until at least m zones have an outdoor conductance of
    MIN_OUTDOOR_KW_PER_C or more, then picks m of them at random.
    """
    while True:
        caps, alpha = random_network(rng, n)
        eligible = np.nonzero(alpha[1:, 0] >= MIN_OUTDOOR_KW_PER_C)[0] + 1
        if eligible.size >= m:
            ctrl = tuple(sorted(int(z) for z in rng.choice(eligible, size=m, replace=False)))
            return caps, alpha, ctrl


def comfort_delta(steps: int) -> np.ndarray:
    """Per-step comfort band: tight inside TIGHT_WINDOWS, wide elsewhere."""
    hod = np.arange(steps) * DT_H % 24.0
    delta = np.full(steps, WIDE_BAND_C)
    for start, end in TIGHT_WINDOWS:
        delta[(hod >= start) & (hod < end)] = TIGHT_BAND_C
    return delta


def multizone_case(rng: np.random.Generator, m: int = 3, steps: int = 192) -> dict:
    """One planning study on a random 6-zone network with m controlled zones.

    The study runs under the program's synthetic cold snap (outdoor at most
    -4 degC), so a controlled zone's outdoor loss at setpoint is at least
    25 alpha_i0 kW. Its floor and wall areas are sized so that solar plus
    internal gains, even with the internal noise ten standard deviations
    high, stay below half of that loss: the baseline power of every
    controlled zone stays positive, and so the LP is always feasible.
    """
    n = 6
    caps, alpha, ctrl = network_with_controlled(rng, n, m)
    wall_ratio = rng.uniform(0.5, 1.5, n)
    floor = rng.uniform(10.0, 40.0, n)
    for z in ctrl:
        # 0.25 window-to-wall x 0.06 kW/m2 peak solar + 0.01 kW/m2 x 2 internal
        per_m2 = 0.25 * 0.06 * wall_ratio[z - 1] + 0.02
        floor[z - 1] = rng.uniform(0.5, 1.0) * 0.5 * 25.0 * alpha[z, 0] / per_m2
    tou = rng.uniform(0.10, 0.18, len(TOU_HOURS))
    return {
        "caps": caps,
        "alpha": alpha,
        "setpoints": np.full(n, SETPOINT_C),
        "controlled": ctrl,
        "steps": steps,
        "tariff": [(s, e, float(p)) for (s, e), p in zip(TOU_HOURS, tou)],
        "gain_seed": int(rng.integers(1, 2**31 - 1)),
        "exterior_wall_m2": wall_ratio * floor,
        "floor_m2": floor,
    }


def _zoh(caps: np.ndarray, alpha: np.ndarray, zones: tuple[int, ...]):
    """Phi and Gamma_q of a sub-network, from a symmetric eigendecomposition.

    A = C^-1 S with S symmetric negative definite, so
    C^1/2 A C^-1/2 = V diag(lam) V^T and both matrices follow in closed form.
    """
    idx = np.asarray(zones) - 1
    s = alpha[np.ix_(idx + 1, idx + 1)].copy()
    np.fill_diagonal(s, -alpha[idx + 1].sum(axis=1))
    root_c = np.sqrt(caps[idx])
    lam, vec = np.linalg.eigh(s / np.outer(root_c, root_c))
    left = vec / root_c[:, None]
    right = vec.T * root_c[None, :]
    phi = left @ np.diag(np.exp(lam * DT_H)) @ right
    j1 = left @ np.diag(np.expm1(lam * DT_H) / lam) @ right
    return phi, j1 / caps[idx][None, :]


def field_case(rng: np.random.Generator) -> dict:
    """One month of metered operation on a random 8-zone network, 3 zones controlled.

    Weather, gains and the thermal price are drawn here. The controlled
    zones follow a daily setback: from 14:00 to 22:00, the dearer hours,
    their power drops by a zone-specific fraction of the baseline power,
    after which the baseline power lets them drift back towards setpoint.
    The last step's power is solved so that every controlled zone ends
    exactly at its setpoint. ``dq`` is that change against the baseline
    power. The zones cool while heat is dear and recover while it is
    cheaper, so the true savings stay well away from zero.
    """
    n, m, steps = 8, 3, 2880
    caps, alpha, ctrl = network_with_controlled(rng, n, m)
    hod = np.arange(steps) * DT_H % 24.0
    day = np.arange(steps) * DT_H / 24.0
    mean_c = rng.uniform(-10.0, 2.0)
    swing = rng.uniform(3.0, 8.0)
    drift = np.cumsum(rng.normal(0.0, 0.08, steps))
    outdoor = mean_c - swing * np.cos(2.0 * np.pi * (hod - 15.0) / 24.0) + drift - drift.mean()
    sun = np.where((hod >= 8.0) & (hod < 17.0), np.sin(np.pi * (hod - 8.0) / 9.0) ** 2, 0.0)
    ghi = sun * rng.uniform(200.0, 600.0, int(day[-1]) + 1)[day.astype(int)]
    gains = rng.uniform(0.02, 0.3, n)[None, :] * (1.0 + 0.2 * rng.standard_normal((steps, n)))
    gains = np.clip(gains, 0.0, None) + np.outer(ghi / 1000.0, rng.uniform(0.1, 1.0, n))

    tou = rng.uniform(0.10, 0.18, len(TOU_HOURS))
    electric = np.empty(steps)
    for (start, end), p in zip(TOU_HOURS, tou):
        inside = (hod >= start) & (hod < end) if start < end else (hod >= start) | (hod < end)
        electric[inside] = p
    cop = np.clip(1.8 + (3.3 - 1.8) / 23.3 * (outdoor + 15.0), 1.0, 3.3)
    price = electric / cop

    idx = np.asarray(ctrl) - 1
    # Baseline power at equal setpoints: outdoor loss minus gains.
    q_base = alpha[idx + 1, 0][None, :] * (SETPOINT_C - outdoor)[:, None] - gains[:, idx]
    cut = rng.uniform(0.2, 0.6, m)
    peak = (hod >= 14.0) & (hod < 22.0)
    dq = np.zeros((steps, m))
    dq[peak] = -cut[None, :] * np.maximum(q_base[peak], 0.0)
    phi, gamma_q = _zoh(caps, alpha, ctrl)
    x = np.zeros(m)  # baseline minus experiment temperature
    for k in range(steps - 1):
        x = phi @ x - gamma_q @ dq[k]
    dq[-1] = np.linalg.solve(gamma_q, phi @ x)
    return {
        "caps": caps,
        "alpha": alpha,
        "setpoints": np.full(n, SETPOINT_C),
        "controlled": ctrl,
        "steps": steps,
        "outdoor": outdoor,
        "ghi": ghi,
        "gains": gains,
        "price": price,
        "dq": dq,
        "exterior_wall_m2": rng.uniform(10.0, 60.0, n),
        "floor_m2": rng.uniform(10.0, 40.0, n),
    }


def field_config(case: dict) -> dict:
    """The JSON run configuration ``crosszone estimate`` reads for a field case."""
    return {
        "network": {
            "capacitances_kwh_per_c": case["caps"].tolist(),
            "conductances_w_per_c": (case["alpha"] * 1000.0).tolist(),
        },
        "zones": {"setpoints_c": case["setpoints"].tolist(), "controlled": list(case["controlled"])},
        "grid": {"dt_h": DT_H, "steps": case["steps"], "start_hour": 0.0},
        "areas": {
            "exterior_wall_m2": case["exterior_wall_m2"].tolist(),
            "floor_m2": case["floor_m2"].tolist(),
        },
    }
