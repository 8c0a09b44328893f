"""Multi-zone building thermal simulation and savings accounting.

When an advanced controller takes over only some zones of a building,
comparing metered costs of just those zones overstates the whole-building
benefit: the still-tracking neighbours burn extra energy replacing the
heat that drains into the colder controlled zones. This package simulates
both operating scenarios on a thermal RC network with exact hold-input
discretization, optimizes the controlled zones against a time-of-use
thermal price with a built-in LP solver, and reports naive, corrected,
and true savings side by side.
"""

from .dynamics import DiscreteModel, discretize, simulate
from .estimator import (
    GeometryCase,
    SavingsReport,
    ZoneSavings,
    conductance_ratios,
    geometry_relative_error,
    savings_report,
)
from .linalg import matrix_exp
from .lp import (
    ComfortSchedule,
    ControlOptimum,
    LpProblem,
    LpSolution,
    build_control_lp,
    kkt_residuals,
    optimize_controlled_zones,
    solve_lp,
)
from .model import (
    CostModel,
    InvalidNetworkError,
    Signal,
    ThermalNetwork,
    TimeGrid,
    Trajectory,
)
from .scenario import (
    CopCurve,
    GainSpec,
    SetpointPlan,
    Tariff,
    TariffPeriod,
    WeatherSeries,
    cop,
    load_weather,
    run_baseline,
    run_experiment,
    synthesize_gains,
    synthetic_weather,
    thermal_price,
    tracking_power,
)

__version__ = "0.1.0"

__all__ = [
    "CopCurve",
    "ComfortSchedule",
    "ControlOptimum",
    "CostModel",
    "DiscreteModel",
    "GainSpec",
    "GeometryCase",
    "InvalidNetworkError",
    "LpProblem",
    "LpSolution",
    "SavingsReport",
    "SetpointPlan",
    "Signal",
    "Tariff",
    "TariffPeriod",
    "ThermalNetwork",
    "TimeGrid",
    "Trajectory",
    "WeatherSeries",
    "ZoneSavings",
    "build_control_lp",
    "conductance_ratios",
    "cop",
    "discretize",
    "geometry_relative_error",
    "kkt_residuals",
    "load_weather",
    "matrix_exp",
    "optimize_controlled_zones",
    "run_baseline",
    "run_experiment",
    "savings_report",
    "simulate",
    "solve_lp",
    "synthesize_gains",
    "synthetic_weather",
    "thermal_price",
    "tracking_power",
]
